/**
 * @file
 * Trajectory-engine microbenchmark: measures executeNoisy throughput
 * (trials/sec) on fig07-style compiled workloads in three
 * configurations — serial, multi-threaded trajectories, and serial
 * trajectories with adaptive intra-state kernel threading — and emits
 * one JSON object
 * with a row per benchmark so CI can track the simulator's
 * performance trajectory across PRs. The default row set (BV8, QFT,
 * Adder) spans the study's width range: BV8 is wide and shallow, QFT
 * and Adder are narrow and gate-dense, which is where trajectory and
 * kernel threading trade places. --wide appends 20-24-qubit GHZ
 * round-trip and QFT rows compiled onto the Google72 grid — the
 * register sizes where kernel threading (which shards amplitude
 * loops, not trials) starts to matter.
 *
 * Timing follows bench_util's protocol: the three configurations
 * rotate within each row over a fixed three repetitions, each keeping
 * its minimum.
 *
 * The run doubles as a determinism check: all three configurations
 * must produce bit-identical results per row, the JSON records
 * whether they did, and the process exits 4 when any row disagrees.
 *
 * Usage:
 *   micro_trajectory [--bench NAME]... [--device NAME] [--trials N]
 *                    [--threads N] [--wide] [--json FILE]
 *
 * --bench may be repeated; when given, only the named benchmarks run.
 */

#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/flags.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "workloads/benchmarks.hh"

using namespace triq;

namespace
{

/**
 * Repetitions per configuration: fixed, because a single shot let the
 * small rows swing by tens of percent between identical runs.
 */
constexpr int kReps = 3;

} // namespace

int
main(int argc, char **argv)
try {
    std::vector<std::string> bench_names;
    std::string device_name = "IBMQ14";
    std::string json_file;
    int trials = defaultTrials(2000);
    int threads = std::max(2, ThreadPool::hardwareThreads());
    bool wide = false;
    Flags("micro_trajectory")
        .add("--bench", bench_names)
        .add("--device", device_name)
        .add("--trials", trials)
        .add("--threads", threads)
        .add("--wide", wide)
        .add("--json", json_file)
        .parse(argc, argv);
    if (bench_names.empty())
        bench_names = {"BV8", "QFT", "Adder"};
    if (trials < 1 || threads < 1)
        fatal("micro_trajectory: --trials and --threads must be >= 1");

    Device dev = bench::deviceByName(device_name);
    int day = bench::defaultDay();
    Calibration calib = dev.calibrate(day);

    // One compiled row per benchmark. Wide rows ride on the Google72
    // grid with the greedy mapper (B&B search over 72 qubits is a
    // mapper benchmark, not a simulator one) and a reduced trial
    // count: each faulty 20-24-qubit trajectory replays hundreds of
    // gates over megabytes of amplitudes, so a fraction of the
    // default trial count already dominates the narrow rows' work.
    struct RowSpec
    {
        std::string name;
        Circuit hw;
        Device dev;
        Calibration calib;
        int trials = 0;
    };
    std::vector<RowSpec> specs;
    for (const std::string &bench_name : bench_names) {
        Circuit program = makeBenchmark(bench_name);
        CompileOptions copts;
        copts.emitAssembly = false;
        CompileResult compiled =
            compileForDevice(program, dev, calib, copts);
        specs.push_back(
            {bench_name, compiled.hwCircuit, dev, calib, trials});
    }
    if (wide) {
        Device grid = makeGoogle72();
        Calibration gcal = grid.calibrate(day);
        int wide_trials = std::max(16, trials / 64);
        struct WideSpec
        {
            const char *name;
            Circuit program;
        };
        const WideSpec wide_specs[] = {
            {"GHZ20", makeGhzRoundTrip(20)},
            {"GHZ24", makeGhzRoundTrip(24)},
            {"QFT20", makeQft(20, 0b0101)},
        };
        for (const WideSpec &w : wide_specs) {
            CompileOptions copts;
            copts.emitAssembly = false;
            copts.mapping.kind = MapperKind::Greedy;
            CompileResult compiled =
                compileForDevice(w.program, grid, gcal, copts);
            specs.push_back(
                {w.name, compiled.hwCircuit, grid, gcal, wide_trials});
        }
    }

    // The three configurations, rotated within each row:
    //  0. serial;
    //  1. threaded; must match the serial run bit for bit
    //     (chunk-sharded RNG, disjoint per-trial result slots);
    //  2. serial trajectories with adaptive intra-state kernel
    //     threading: the same memory plan as 0 (kernel workers add no
    //     state copies), sharding amplitude loops instead of pattern
    //     groups — the configuration the governor's low-memory plan
    //     degrades to on big registers.
    const ExecOptions configs[] = {
        {.threads = 1, .kernelThreads = 1},
        {.threads = threads},
        {.threads = 1, .kernelThreads = -1},
    };
    constexpr int kNumConfigs = sizeof(configs) / sizeof(configs[0]);

    bench::Verdict verdict("micro_trajectory");
    JsonWriter json;
    json.beginObject()
        .key("device").value(device_name)
        .key("day").value(day)
        .key("trials").value(trials)
        .key("threads").value(threads)
        .key("rows").beginArray();
    for (const RowSpec &spec : specs) {
        ExecutionResult last, res[kNumConfigs];
        const std::vector<double> ms = bench::rotatedMinMs(
            kNumConfigs, kReps,
            [&](int c) {
                last = executeNoisy(spec.hw, spec.dev, spec.calib,
                                    spec.trials, 12345, configs[c]);
            },
            [&](int c, int rep) {
                if (rep == 0)
                    res[c] = std::move(last);
            });

        bool identical = true;
        for (int c = 1; c < kNumConfigs; ++c)
            identical = identical &&
                        res[c].successRate == res[0].successRate &&
                        res[c].simulatedTrajectories ==
                            res[0].simulatedTrajectories &&
                        res[c].histogram == res[0].histogram;
        if (!identical)
            verdict.breach(spec.name + ": results differ across configs");

        auto trials_per_sec = [&](double row_ms) {
            return bench::ratio(1000.0 * spec.trials, row_ms);
        };
        json.beginObject()
            .key("benchmark").value(spec.name)
            .key("device").value(spec.dev.name())
            .key("trials").value(spec.trials)
            .key("simulated_trajectories")
            .value(res[0].simulatedTrajectories)
            .key("success_rate").value(res[0].successRate)
            .key("serial_ms").value(ms[0])
            .key("serial_trials_per_sec").value(trials_per_sec(ms[0]))
            .key("threaded_ms").value(ms[1])
            .key("threaded_trials_per_sec").value(trials_per_sec(ms[1]))
            .key("thread_speedup").value(bench::ratio(ms[0], ms[1]))
            .key("kernel_ms").value(ms[2])
            .key("kernel_trials_per_sec").value(trials_per_sec(ms[2]))
            .key("kernel_speedup").value(bench::ratio(ms[0], ms[2]))
            .key("identical_across_configs").value(identical)
            .endObject();
    }
    json.endArray()
        .key("identical_across_configs").value(!verdict.breached())
        .endObject();

    bench::writeReport("micro_trajectory", json, json_file);
    return verdict.exitCode();
} catch (const FatalError &) {
    return bench::Verdict::kFatal;
}
