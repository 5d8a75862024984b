/**
 * @file
 * Adaptive-scheduler microbenchmark: times every scheduler consumer in
 * its three modes — forced serial, forced threaded, adaptive
 * (cost-model) — and emits BENCH_sched.json so CI can hold the
 * scheduler to its contract: adaptive must never lose to serial.
 *
 * Rows:
 *   - every fig07 study benchmark, noisy-executed on IBMQ14 (the
 *     trial-batch consumer; small circuits must stay serial);
 *   - fig13-style supremacy circuits on 6- and 12-qubit grids (the
 *     large-sim end of the range; bigger grids belong to fig13's
 *     compile-only study);
 *   - a cold and a warm sweep of the study benchmarks on IBMQ14 (the
 *     per-day compile fan-out consumer; the warm sweep is all cache
 *     hits and must stay serial).
 *
 * Timing protocol: bench_util's rotatedMinMs — modes interleaved with
 * the order rotated every repetition, each keeping its minimum over
 * --reps repetitions — after one untimed warm-up run per mode.
 *
 * The gate: adaptive_speedup = serial_ms / adaptive_ms must be >=
 * --tolerance (default 0.90) on every row, OR the absolute loss
 * adaptive_ms - serial_ms must be under --noise-floor-ms (default
 * 1.0). When the model correctly picks serial the two runs execute
 * identical code, so the ratio is 1.0 +- timer noise — a strict
 * >= 1.0 gate would flake on every other run (measured spread on a
 * shared-CPU box: +-8% even at min-over-5-reps), and the
 * sub-millisecond rows exceed any relative tolerance on pure jitter,
 * hence both bounds; a genuine mis-scheduling (threading a job that
 * loses) costs far more than 10%. Exit codes: 4 when any mode
 * disagrees with serial results (determinism breach), 6 when the gate
 * fails, 0 otherwise.
 *
 * Usage:
 *   micro_sched [--trials N] [--reps N] [--tolerance X]
 *               [--noise-floor-ms X] [--json FILE]
 */

#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/flags.hh"
#include "common/logging.hh"
#include "common/sched.hh"
#include "common/thread_pool.hh"
#include "workloads/benchmarks.hh"
#include "workloads/supremacy.hh"

using namespace triq;

namespace
{

/** One benchmark row: min-over-reps per mode plus the adaptive plan. */
struct Row
{
    std::string name;
    std::string kind; //!< "sim" or "sweep".
    int items = 0;    //!< Trials (sim) or grid cells (sweep).
    std::vector<double> ms; //!< Serial, threaded, adaptive; min over reps.
    bool identical = true;

    // The adaptive run's recorded decision.
    std::string mode;
    int threads = 1;
    int itemsPerTask = 1;
    int tasks = 0;
    double predictedMs = 0.0;
    double actualMs = 0.0;
};

void
emitRow(JsonWriter &json, const Row &r)
{
    json.beginObject()
        .key("name").value(r.name)
        .key("kind").value(r.kind)
        .key("items").value(r.items)
        .key("serial_ms").value(r.ms[0])
        .key("threaded_ms").value(r.ms[1])
        .key("adaptive_ms").value(r.ms[2])
        .key("adaptive_speedup").value(bench::ratio(r.ms[0], r.ms[2]))
        .key("thread_speedup").value(bench::ratio(r.ms[0], r.ms[1]))
        .key("adaptive_mode").value(r.mode)
        .key("threads").value(r.threads)
        .key("items_per_task").value(r.itemsPerTask)
        .key("tasks").value(r.tasks)
        .key("predicted_ms").value(r.predictedMs)
        .key("actual_ms").value(r.actualMs)
        .key("identical").value(r.identical)
        .endObject();
}

/** Time executeNoisy in the three modes, interleaved, min over reps. */
Row
simRow(const std::string &name, const Circuit &hw, const Device &dev,
       const Calibration &calib, int trials, int reps, int threads)
{
    Row row;
    row.name = name;
    row.kind = "sim";
    row.items = trials;

    // Forced serial, forced threaded, adaptive.
    const ExecOptions mode_opts[3] = {
        {.threads = 1}, {.threads = threads}, {.threads = -1}};

    ExecutionResult baseline;
    for (int m = 0; m < 3; ++m) {
        // Untimed warm-up: pool spawn, calibration, allocator.
        ExecutionResult r =
            executeNoisy(hw, dev, calib, trials, 12345, mode_opts[m]);
        if (m == 0) {
            baseline = std::move(r);
        } else if (r.histogram != baseline.histogram ||
                   r.successRate != baseline.successRate) {
            row.identical = false;
        }
    }
    ExecutionResult last;
    row.ms = bench::rotatedMinMs(
        3, reps,
        [&](int m) {
            last = executeNoisy(hw, dev, calib, trials, 12345,
                                mode_opts[m]);
        },
        [&](int m, int) {
            if (m == 2) {
                row.mode = last.sched.mode();
                row.threads = last.sched.threads;
                row.itemsPerTask = last.sched.itemsPerTask;
                row.tasks = last.sched.tasks;
                row.predictedMs = last.sched.predictedMs;
                row.actualMs = last.sched.actualMs;
            }
            if (last.histogram != baseline.histogram)
                row.identical = false;
        });
    return row;
}

/** Time runSweep in the three modes; cold = fresh cache per run. */
Row
sweepRow(const std::string &name, const SweepConfig &base, int reps,
         int threads, bool warm)
{
    Row row;
    row.name = name;
    row.kind = "sweep";

    SweepConfig mode_cfgs[3] = {base, base, base};
    mode_cfgs[0].threads = 1;       // forced serial
    mode_cfgs[1].threads = threads; // forced threaded
    mode_cfgs[2].threads = -1;      // adaptive

    // Warm mode keeps one pre-filled cache per mode; cold uses a fresh
    // cache for every timed run. Caches and results are made and
    // dropped outside the timed region.
    std::vector<std::unique_ptr<CompileCache>> caches;
    for (int m = 0; m < 3; ++m) {
        caches.push_back(std::make_unique<CompileCache>());
        if (warm)
            runSweep(mode_cfgs[m], caches[m].get());
    }

    std::vector<double> esp_baseline;
    SweepResult last;
    row.ms = bench::rotatedMinMs(
        3, reps,
        [&](int m) { last = runSweep(mode_cfgs[m], caches[m].get()); },
        [&](int m, int rep) {
            if (!warm)
                caches[m] = std::make_unique<CompileCache>();
            row.items = last.stats.cells;
            if (m == 2) {
                row.mode = last.stats.schedMode;
                row.threads = last.stats.threads;
                row.itemsPerTask = last.stats.schedItemsPerTask;
                row.tasks = last.stats.schedTasks;
                row.predictedMs = last.stats.schedPredictedMs;
                row.actualMs = last.stats.schedActualMs;
            }
            // The scheduler must never change what is computed.
            std::vector<double> esps;
            for (const SweepCell &c : last.cells)
                esps.push_back(c.esp);
            if (rep == 0 && m == 0)
                esp_baseline = std::move(esps);
            else if (esps != esp_baseline)
                row.identical = false;
            last = SweepResult();
        });
    return row;
}

} // namespace

int
main(int argc, char **argv)
try {
    int trials = defaultTrials(1000);
    int reps = 5;
    bench::LossGate gate;
    std::string json_file;
    Flags("micro_sched")
        .add("--trials", trials)
        .add("--reps", reps)
        .add("--tolerance", gate.tolerance)
        .add("--noise-floor-ms", gate.noiseFloorMs)
        .add("--json", json_file)
        .parse(argc, argv);
    if (trials < 1 || reps < 1)
        fatal("micro_sched: --trials and --reps must be >= 1");

    const SchedCalib &calib_model = schedCalib(); // measure up front
    const int threads = std::max(2, ThreadPool::hardwareThreads());
    std::vector<Row> rows;

    // --- fig07 study benchmarks on IBMQ14 (trial-batch consumer).
    Device dev = bench::deviceByName("IBMQ14");
    int day = bench::defaultDay();
    Calibration calib = dev.calibrate(day);
    bench::forEachStudyBenchmark(
        dev, [&](const std::string &name, const Circuit &program) {
            CompileResult compiled = bench::compileTriq(
                program, dev, OptLevel::OneQOptCN, day);
            rows.push_back(simRow(name, compiled.hwCircuit, dev, calib,
                                  trials, reps, threads));
        });

    // --- fig13-style supremacy circuits (large-sim rows). Trials are
    // scaled down: each faulty trajectory replays hundreds of gates on
    // thousands of amplitudes, so a fraction of the fig07 trial count
    // already dominates the fig07 rows' total work.
    struct SupConfig
    {
        int rows, cols, depth;
    };
    const SupConfig sup_configs[] = {{2, 3, 16}, {3, 4, 24}};
    int sup_trials = std::max(32, trials / 8);
    for (const auto &cfg : sup_configs) {
        int n = cfg.rows * cfg.cols;
        Device grid("Grid" + std::to_string(n),
                    Topology::grid(cfg.rows, cfg.cols), GateSet::ibm(),
                    dev.noiseSpec());
        Calibration gcal = grid.calibrate(1);
        Circuit program =
            makeSupremacy(cfg.rows, cfg.cols, cfg.depth, 1);
        CompileOptions copts;
        copts.level = OptLevel::OneQOptCN;
        copts.mapping.kind = MapperKind::Greedy;
        copts.emitAssembly = false;
        CompileResult compiled =
            compileForDevice(program, grid, gcal, copts);
        rows.push_back(simRow("Supremacy" + std::to_string(n) + "d" +
                                  std::to_string(cfg.depth),
                              compiled.hwCircuit, grid, gcal, sup_trials,
                              reps, threads));
    }

    // --- sweep fan-out rows: the study grid on IBMQ14, two days, both
    // levels. Cold compiles everything; warm must be all cache hits
    // (near-zero work — the scheduler has to keep it serial).
    SweepConfig sweep_cfg;
    for (const std::string &name : benchmarkNames())
        sweep_cfg.programs.push_back({name, makeBenchmark(name)});
    sweep_cfg.devices = {dev};
    sweep_cfg.days = {0, 1};
    sweep_cfg.levels = {OptLevel::OneQOptC, OptLevel::OneQOptCN};
    sweep_cfg.options.emitAssembly = false;
    sweep_cfg.driftThreshold = -1.0;
    rows.push_back(
        sweepRow("sweep_cold", sweep_cfg, reps, threads, false));
    rows.push_back(
        sweepRow("sweep_warm", sweep_cfg, reps, threads, true));

    // --- the gate.
    bench::Verdict verdict("micro_sched");
    for (const Row &r : rows) {
        if (!r.identical)
            verdict.breach(r.name + ": a mode disagrees with serial");
        verdict.checkLoss(gate, r.name + " (chose " + r.mode + ")",
                          r.ms[0], r.ms[2]);
    }

    JsonWriter json;
    json.beginObject()
        .key("calib").value(schedCalibString(calib_model))
        .key("hardware_threads").value(ThreadPool::hardwareThreads())
        .key("forced_threads").value(threads)
        .key("trials").value(trials)
        .key("reps").value(reps)
        .key("tolerance").value(gate.tolerance)
        .key("noise_floor_ms").value(gate.noiseFloorMs)
        .key("rows").beginArray();
    for (const Row &r : rows)
        emitRow(json, r);
    json.endArray()
        .key("identical_across_modes").value(!verdict.breached())
        .key("gate_pass").value(verdict.gatePassed())
        .endObject();

    bench::writeReport("micro_sched", json, json_file);
    return verdict.exitCode();
} catch (const FatalError &) {
    return bench::Verdict::kFatal;
}
