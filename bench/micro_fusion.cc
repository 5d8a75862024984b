/**
 * @file
 * Trajectory-engine microbenchmark: runs the fig07 benchmark set
 * through three configurations — the baseline (bench_util's serial
 * per-trial reference, bench::referenceExecute: unfused, no
 * checkpoints, no dedup) and executeNoisy's fusion + dedup engine,
 * serial and threaded — and emits BENCH_sim_fusion.json with
 * per-benchmark and aggregate wall-clock, speedups and
 * histogram-identity flags.
 *
 * The run doubles as an acceptance check: both engine runs must
 * reproduce the reference's histogram exactly (empirically, because
 * fusion reassociates floating point — see DESIGN.md), and the
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
#include "common/flags.hh"
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
    Flags("micro_fusion")
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

    // The three measured configurations: the per-trial reference, then
    // the engine (fusion + dedup) serial and threaded.
    const char *const configs[] = {"baseline", "fusion_dedup",
                                   "fusion_dedup_threaded"};
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
                last = ci == 0
                           ? bench::referenceExecute(compiled.hwCircuit,
                                                     dev, calib, trials)
                           : executeNoisy(compiled.hwCircuit, dev, calib,
                                          trials, 12345,
                                          {.threads = ci == 1 ? 1
                                                              : threads});
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
                verdict.breach(name + ": " + configs[ci] +
                               " differs from the baseline");
            }
        }

        json.beginObject()
            .key("benchmark").value(name)
            .key("baseline_ms").value(ms[0])
            .key("fusion_dedup_ms").value(ms[1])
            .key("fusion_dedup_threaded_ms").value(ms[2])
            .key("speedup").value(bench::ratio(ms[0], ms[1]))
            .key("faulty_trials").value(res[0].simulatedTrajectories)
            .key("distinct_patterns").value(res[1].simulatedTrajectories)
            .key("histograms_identical").value(identical)
            .endObject();
    }
    json.endArray();
    for (int ci = 0; ci < kNumConfigs; ++ci)
        json.key(std::string("total_") + configs[ci] + "_ms")
            .value(total_ms[ci]);
    for (int ci = 1; ci < kNumConfigs; ++ci)
        json.key(std::string(configs[ci]) + "_speedup")
            .value(bench::ratio(total_ms[0], total_ms[ci]));
    json.key("identical_across_configs").value(!verdict.breached())
        .endObject();

    bench::writeReport("micro_fusion", json, json_file);
    return verdict.exitCode();
} catch (const FatalError &) {
    return bench::Verdict::kFatal;
}
