/**
 * @file
 * Fusion + dedup microbenchmark: runs the fig07 benchmark set through
 * executeNoisy in four configurations — PR-1 baseline (fusion and
 * dedup off), fusion only, dedup only, and both — plus a threaded
 * both-on run, and emits BENCH_sim_fusion.json with per-benchmark and
 * aggregate wall-clock, speedups and histogram-identity flags.
 *
 * The run doubles as an acceptance check: every configuration must
 * reproduce the baseline's histogram exactly (dedup is bit-identical
 * by construction; fusion empirically — see DESIGN.md), and the
 * process exits 4 when any benchmark disagrees.
 *
 * Usage:
 *   micro_fusion [--device NAME] [--trials N] [--threads N] [--reps N]
 *                [--bench NAME]... [--json FILE]
 *
 * Each configuration runs --reps times (default 3), rotated with the
 * other configurations per bench_util's protocol, and reports the
 * fastest repetition, so one cold-cache or descheduled run does not
 * skew the speedup ratios. The engines are deterministic, so every
 * repetition produces the same histogram.
 */

#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "workloads/benchmarks.hh"

using namespace triq;

int
main(int argc, char **argv)
try {
    std::string device_name = "IBMQ14";
    std::string json_file;
    std::vector<std::string> bench_names;
    int trials = defaultTrials(1000);
    int threads = std::max(2, ThreadPool::hardwareThreads());
    int reps = 3;
    bench::Flags("micro_fusion")
        .add("--device", device_name)
        .add("--bench", bench_names)
        .add("--trials", trials)
        .add("--threads", threads)
        .add("--reps", reps)
        .add("--json", json_file)
        .parse(argc, argv);
    if (trials < 1 || threads < 1 || reps < 1)
        fatal("micro_fusion: --trials, --threads and --reps must be "
              ">= 1");
    if (bench_names.empty())
        bench_names = benchmarkNames(); // the fig07 set

    Device dev = bench::deviceByName(device_name);
    int day = bench::defaultDay();
    Calibration calib = dev.calibrate(day);

    // The five measured configurations. "baseline" reproduces the PR-1
    // engine exactly: per-trial replay, no fusion.
    struct Config
    {
        const char *name;
        ExecOptions opts;
    };
    const Config configs[] = {
        {"baseline", {.threads = 1, .fusion = -1, .dedup = -1}},
        {"fusion_only", {.threads = 1, .fusion = 1, .dedup = -1}},
        {"dedup_only", {.threads = 1, .fusion = -1, .dedup = 1}},
        {"fusion_dedup", {.threads = 1, .fusion = 1, .dedup = 1}},
        {"fusion_dedup_threaded",
         {.threads = threads, .fusion = 1, .dedup = 1}},
    };
    constexpr int kNumConfigs = sizeof(configs) / sizeof(configs[0]);

    double total_ms[kNumConfigs] = {};
    bench::Verdict verdict("micro_fusion");
    JsonWriter json;
    json.beginObject()
        .key("device").value(device_name)
        .key("day").value(day)
        .key("trials").value(trials)
        .key("threads").value(threads)
        .key("reps").value(reps)
        .key("benchmarks").beginArray();
    for (const std::string &name : bench_names) {
        Circuit program = makeBenchmark(name);
        CompileOptions copts;
        copts.emitAssembly = false;
        CompileResult compiled =
            compileForDevice(program, dev, calib, copts);

        ExecutionResult last, res[kNumConfigs];
        const std::vector<double> ms = bench::rotatedMinMs(
            kNumConfigs, reps,
            [&](int ci) {
                last = executeNoisy(compiled.hwCircuit, dev, calib,
                                    trials, 12345, configs[ci].opts);
            },
            [&](int ci, int rep) {
                if (rep == 0)
                    res[ci] = std::move(last);
            });
        bool identical = true;
        for (int ci = 0; ci < kNumConfigs; ++ci) {
            total_ms[ci] += ms[static_cast<size_t>(ci)];
            if (res[ci].histogram != res[0].histogram ||
                res[ci].successRate != res[0].successRate) {
                identical = false;
                verdict.breach(name + ": " + configs[ci].name +
                               " differs from the baseline");
            }
        }

        json.beginObject()
            .key("benchmark").value(name)
            .key("baseline_ms").value(ms[0])
            .key("fusion_only_ms").value(ms[1])
            .key("dedup_only_ms").value(ms[2])
            .key("fusion_dedup_ms").value(ms[3])
            .key("fusion_dedup_threaded_ms").value(ms[4])
            .key("speedup").value(bench::ratio(ms[0], ms[3]))
            .key("faulty_trials").value(res[0].simulatedTrajectories)
            .key("distinct_patterns").value(res[3].simulatedTrajectories)
            .key("histograms_identical").value(identical)
            .endObject();
    }
    json.endArray();
    for (int ci = 0; ci < kNumConfigs; ++ci)
        json.key(std::string("total_") + configs[ci].name + "_ms")
            .value(total_ms[ci]);
    for (int ci = 1; ci < kNumConfigs; ++ci)
        json.key(std::string(configs[ci].name) + "_speedup")
            .value(bench::ratio(total_ms[0], total_ms[ci]));
    json.key("identical_across_configs").value(!verdict.breached())
        .endObject();

    bench::writeReport("micro_fusion", json, json_file);
    return verdict.exitCode();
} catch (const FatalError &) {
    return bench::Verdict::kFatal;
}
