#include "workloads.hh"

#include <sched.h>
#include <time.h>

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <thread>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/sched.hh"
#include "core/compiler.hh"
#include "core/decompose.hh"
#include "core/esp.hh"
#include "core/fingerprint.hh"
#include "device/machines.hh"
#include "lang/lexer.hh"
#include "lang/lower.hh"
#include "lang/parser.hh"
#include "service/server.hh"
#include "service/sweep.hh"
#include "service/wire.hh"
#include "sim/compact.hh"
#include "sim/executor.hh"
#include "sim/fusion.hh"
#include "sim/verify.hh"
#include "speed.hh"
#include "trace.hh"
#include "workloads/benchmarks.hh"
#include "workloads/supremacy.hh"

namespace e2e
{

namespace
{

using namespace triq;

/**
 * Set-up builds timed before the measured loop, and again after it,
 * each time at least kSetupReps builds and until kSetupMinS seconds of
 * building have passed; setup_s is the median of all of them, so one
 * moment of host load does not set it (the serial workloads' set-up
 * takes about 2 ms, triqd's about 20 ms).
 */
constexpr int kSetupReps = 8;
constexpr double kSetupMinS = 0.5;

/** Paper trial counts (Sec. 5): 8192 on superconducting, 5000 on UMDTI. */
int
paperTrials(const Device &dev)
{
    return dev.vendor() == Vendor::UMD ? 5000 : 8192;
}

uint64_t
mix(uint64_t a, uint64_t b)
{
    uint64_t z = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
cpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) * 1e-6;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

/** A ScaffLite source file from examples/programs. */
struct Source
{
    std::string name;
    std::string text;
    int qubits = 0;
};

std::vector<Source>
loadSources(const std::string &root)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(root) / "examples" / "programs";
    std::vector<fs::path> files;
    if (fs::is_directory(dir))
        for (const auto &e : fs::directory_iterator(dir))
            if (e.path().extension() == ".scaff")
                files.push_back(e.path());
    if (files.empty())
        fatal("e2ebench: no .scaff programs under ", dir.string());
    std::sort(files.begin(), files.end());
    std::vector<Source> out;
    for (const auto &f : files) {
        std::ifstream in(f);
        std::stringstream ss;
        ss << in.rdbuf();
        Source s;
        s.name = f.stem().string();
        s.text = ss.str();
        s.qubits = compileScaffLite(s.text).numQubits();
        out.push_back(std::move(s));
    }
    return out;
}

/** Display name of a CompileReport pass as a span name. */
std::string
passSpanName(const std::string &pass)
{
    if (pass == "reliability-matrix")
        return "core.reliability";
    return "core." + pass;
}

/** Record a compile's pass timings as depth-2 spans from `start_us`. */
void
addPassSpans(Recorder &rec, long op, const CompileReport &report,
             double start_us, int tid = 0)
{
    double t = start_us;
    for (const auto &p : report.passes) {
        rec.add(passSpanName(p.pass), op, 2, t, p.ms * 1e3, tid);
        t += p.ms * 1e3;
    }
}

uint64_t
histogramDigest(const ExecutionResult &run)
{
    Fnv1a h;
    for (const auto &[key, n] : run.sortedHistogram())
        h.u64(key).i64(n);
    return h.value();
}

/** Flip one output bit: a leading X on the first measured qubit. */
void
corrupt(CompileResult &res)
{
    std::vector<ProgQubit> m = res.hwCircuit.measuredQubits();
    Circuit c(res.hwCircuit.numQubits(), res.hwCircuit.name());
    c.add(Gate::x(m.empty() ? 0 : m.front()));
    c.append(res.hwCircuit);
    res.hwCircuit = std::move(c);
}

/** Per-layer accumulation over the distinct cells of a run. */
struct LayerCounts
{
    double cells = 0, tokens = 0, gatesLowered = 0, assemblyBytes = 0;
    double compiles = 0, mapperNodes = 0, mapperPruned = 0;
    double mapperOptimal = 0, swaps = 0;
    double sims = 0, trajectories = 0, trials = 0, noErrorProb = 0;
    double threaded = 0;
    std::vector<double> predictRatio;
    double fusedOps = 0, fusedGates = 0;

    void
    addCompile(const CompileResult &r)
    {
        compiles += 1;
        assemblyBytes += static_cast<double>(r.assembly.size());
        mapperNodes += static_cast<double>(r.report.mapperNodes);
        mapperPruned += static_cast<double>(r.report.mapperBoundPruned +
                                            r.report.mapperSymmetryPruned +
                                            r.report.mapperDominancePruned);
        mapperOptimal += r.report.mapperOptimal ? 1 : 0;
        swaps += r.swapCount;
    }

    void
    addRun(const ExecutionResult &run)
    {
        sims += 1;
        trajectories += run.simulatedTrajectories;
        trials += run.trials;
        noErrorProb += run.noErrorProb;
        threaded += run.sched.threaded ? 1 : 0;
        if (run.sched.actualMs > 0.0)
            predictRatio.push_back(run.sched.predictedMs /
                                   run.sched.actualMs);
    }
};

/** End-to-end and per-layer metric assembly shared by the workloads. */
struct Collector
{
    std::vector<Metric> out;

    void
    add(const std::string &name, double v, const std::string &unit)
    {
        out.push_back({name, v, unit});
    }
};

double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

/** Layer of a span name ("core.mapping" -> "core"). */
std::string
layerOf(const std::string &span)
{
    return span.substr(0, span.find('.'));
}

const char *const kLayers[] = {"lang", "device", "core", "sim", "service"};

/**
 * Share of busy time per layer in a serial workload: the self time of
 * the layer spans inside each op over the summed op wall time; what no
 * layer span covers is the benchmark's own glue ("bench").
 */
std::map<std::string, double>
opShares(const Recorder &rec)
{
    double wall = 0.0;
    for (const auto &[op, c] : rec.coverage())
        wall += c.wallUs;
    std::map<std::string, double> share;
    double attributed = 0.0;
    for (const auto &[name, us] : rec.selfTimeUs(0)) {
        if (name == "op")
            continue;
        share[layerOf(name)] += ratio(us, wall);
        attributed += us;
    }
    share["bench"] = ratio(wall - attributed, wall);
    return share;
}

/** The per-layer metric list, shared by every workload's traced run. */
void
addLayerMetrics(Collector &m, const Recorder &rec, const LayerCounts &lc,
                double sched_calib_ms,
                const std::map<std::string, double> &shares)
{
    // Per-call durations by span name (every lane).
    std::map<std::string, std::vector<double>> durs;
    for (const Span &s : rec.spans())
        durs[s.name].push_back(s.durUs / 1e3);
    auto med = [&](const char *name) {
        auto it = durs.find(name);
        return it == durs.end() ? 0.0 : median(it->second);
    };
    const double cells = std::max(1.0, lc.cells);
    const double compiles = std::max(1.0, lc.compiles);
    const double sims = std::max(1.0, lc.sims);

    m.add("lang.tokenize_ms", med("lang.tokenize"), "ms");
    m.add("lang.parse_ms", med("lang.parse"), "ms");
    m.add("lang.lower_ms", med("lang.lower"), "ms");
    m.add("lang.tokens", lc.tokens / cells, "count");
    m.add("lang.gates_lowered", lc.gatesLowered / cells, "count");
    m.add("device.calibrate_ms", med("device.calibrate"), "ms");
    m.add("sched.calib_ms", sched_calib_ms, "ms");
    m.add("sched.threaded_frac", ratio(lc.threaded, lc.sims), "frac");
    m.add("core.compile_ms", med("core.compile"), "ms");
    m.add("core.sanitize_ms", med("core.sanitize"), "ms");
    m.add("core.decompose_ms", med("core.decompose"), "ms");
    m.add("core.reliability_ms", med("core.reliability"), "ms");
    m.add("core.mapping_ms", med("core.mapping"), "ms");
    m.add("core.routing_ms", med("core.routing"), "ms");
    m.add("core.translate_ms", med("core.translate"), "ms");
    m.add("core.emit_ms", med("core.emit"), "ms");
    m.add("core.assembly_bytes", lc.assemblyBytes / compiles, "bytes");
    m.add("core.mapper_nodes", lc.mapperNodes / compiles, "count");
    m.add("core.mapper_pruned", lc.mapperPruned / compiles, "count");
    m.add("core.mapper_optimal_frac", ratio(lc.mapperOptimal, lc.compiles),
          "frac");
    m.add("core.swaps", lc.swaps / compiles, "count");
    m.add("sim.execute_ms", med("sim.execute"), "ms");
    m.add("sim.trajectories", lc.trajectories / sims, "count");
    m.add("sim.trajectory_frac", ratio(lc.trajectories, lc.trials), "frac");
    m.add("sim.no_error_prob", lc.noErrorProb / sims, "prob");
    m.add("sim.predict_ratio", median(lc.predictRatio), "ratio");
    m.add("sim.compact_ms", med("sim.compact"), "ms");
    m.add("sim.fusion_plan_ms", med("sim.fusion_plan"), "ms");
    m.add("sim.fused_op_ratio", ratio(lc.fusedOps, lc.fusedGates), "ratio");

    for (const char *layer : kLayers) {
        auto it = shares.find(layer);
        m.add(std::string("share.") + layer,
              it == shares.end() ? 0.0 : it->second, "frac");
    }
    auto bench = shares.find("bench");
    m.add("share.bench", bench == shares.end() ? 0.0 : bench->second,
          "frac");

    std::vector<double> cov;
    for (const auto &[op, c] : rec.coverage())
        if (c.wallUs > 0.0)
            cov.push_back(c.selfSumUs / c.wallUs);
    // Share of each op's wall time its layer spans account for. A
    // preemption landing in the benchmark's own glue lowers single
    // ops, so the tail is reported as a percentile and a count.
    double low = 0.0;
    for (double c : cov)
        low += c < 0.95 ? 1.0 : 0.0;
    m.add("trace.coverage_p01", percentile(cov, 1), "frac");
    m.add("trace.coverage_median", median(cov), "frac");
    m.add("trace.coverage_below_95_frac",
          ratio(low, static_cast<double>(cov.size())), "frac");
}

/** Zero-valued service metrics for workloads that bypass triqd. */
void
addNoServiceMetrics(Collector &m)
{
    for (const char *n :
         {"service.request_ms.compile_hit", "service.request_ms.compile_miss",
          "service.request_ms.simulate", "service.overhead_ms"})
        m.add(n, 0.0, "ms");
    m.add("service.cache_hit_frac", 0.0, "frac");
    m.add("service.cache_evictions", 0.0, "count");
    m.add("service.queue_depth_max", 0.0, "count");
    m.add("service.rejected", 0.0, "count");
    m.add("service.reply_bytes", 0.0, "bytes");
}

/** The end-to-end metric list (untraced runs). */
struct EndToEnd
{
    /** Times at nominal host speed on gated workloads (speed.hh). */
    double setupS = 0.0;
    long setupBuilds = 0;
    long ops = 0;
    double measuredS = 0.0;
    std::vector<double> latMs;
    double cpuMs = 0.0;
    /** The same times as measured, and the median wall-time scale. */
    double rawSetupS = 0.0, rawMeasuredS = 0.0, rawCpuMs = 0.0;
    std::vector<double> rawLatMs;
    double speed = 1.0;
    long attempted = 0, failed = 0;
    double successMean = 0.0, espGeomean = 0.0, gates2q = 0.0;
    /** Taken when the measured loop ends, before the output checks. */
    double peakRssMb = 0.0;
};

void
addEndToEnd(Collector &m, const EndToEnd &e)
{
    m.add("setup_s", e.setupS, "s");
    m.add("throughput_ops_s", ratio(static_cast<double>(e.ops), e.measuredS),
          "1/s");
    m.add("latency_p50_ms", percentile(e.latMs, 50), "ms");
    m.add("latency_p90_ms", percentile(e.latMs, 90), "ms");
    m.add("latency_p99_ms", percentile(e.latMs, 99), "ms");
    m.add("ok_frac",
          ratio(static_cast<double>(e.attempted - e.failed),
                static_cast<double>(e.attempted)),
          "frac");
    m.add("peak_rss_mb", e.peakRssMb, "MB");
    m.add("cpu_per_op_ms", ratio(e.cpuMs, static_cast<double>(e.ops)), "ms");
    m.add("success_rate_mean", e.successMean, "prob");
    m.add("esp_geomean", e.espGeomean, "prob");
    m.add("gates_2q_total", e.gates2q, "count");
}

std::string
detailJson(const EndToEnd &e, const std::string &extra)
{
    JsonWriter w;
    w.beginObject();
    w.key("samples").value(static_cast<long>(e.latMs.size()));
    w.key("measured_s").value(e.measuredS);
    w.key("setup_builds").value(e.setupBuilds);
    w.key("speed_scale_median").value(e.speed);
    w.key("raw_setup_s").value(e.rawSetupS);
    w.key("raw_throughput_ops_s")
        .value(ratio(static_cast<double>(e.ops), e.rawMeasuredS));
    w.key("raw_latency_p50_ms").value(percentile(e.rawLatMs, 50));
    w.key("raw_latency_p90_ms").value(percentile(e.rawLatMs, 90));
    w.key("raw_latency_p99_ms").value(percentile(e.rawLatMs, 99));
    w.key("raw_cpu_per_op_ms")
        .value(ratio(e.rawCpuMs, static_cast<double>(e.ops)));
    w.key("latency_max_ms").value(
        e.latMs.empty() ? 0.0
                        : *std::max_element(e.latMs.begin(), e.latMs.end()));
    w.key("samples_beyond_p99")
        .value(static_cast<long>(static_cast<double>(e.latMs.size()) * 0.01));
    if (!extra.empty())
        w.raw(extra);
    w.endObject();
    return w.str();
}

/**
 * Build a workload's set-up at least kSetupReps times and for at least
 * kSetupMinS seconds, and return the last build; each build's time is
 * appended to `raw` as measured and to `scaled` at nominal host speed.
 * Tearing down the previous build is not timed.
 */
template <typename Make>
auto
timedSetups(Make &&make, SpeedRef &speed, std::vector<double> &scaled,
            std::vector<double> &raw)
{
    decltype(make()) last{};
    double spent = 0.0;
    for (int i = 0; i < kSetupReps || spent < kSetupMinS; ++i) {
        last = {};
        speed.tick();
        const double t0 = nowUs();
        last = make();
        raw.push_back((nowUs() - t0) / 1e6);
        scaled.push_back(raw.back() * speed.wallFactor());
        spent += raw.back();
    }
    return last;
}

/** Measured SchedCalib for the descriptor and sched.calib_ms. */
struct SchedProbe
{
    std::string calib;
    double ms = 0.0;
};

SchedProbe
probeSched()
{
    SchedProbe p;
    const double t0 = nowUs();
    SchedCalib c = measureSchedCalib();
    p.ms = (nowUs() - t0) / 1e3;
    p.calib = schedCalibString(c);
    return p;
}

// ---------------------------------------------------------------------
// Serial workloads: fig07_fullstack, compile_grid, fig13_mapper.
// ---------------------------------------------------------------------

/** One distinct cell of a serial workload. */
struct Cell
{
    int source = -1;   //!< Index into sources (-1 = generated program).
    int program = -1;  //!< Index into generated programs.
    int device = 0;
    OptLevel level = OptLevel::OneQOptCN;
    int day = 0;
    int trials = 0;    //!< 0 = compile only.
    uint64_t simSeed = 0;
};

struct SerialSetup
{
    std::vector<Source> sources;
    std::vector<Circuit> generated;
    std::vector<Device> devices;
    std::vector<Cell> cells;
    CompileOptions base;
    SchedProbe sched;
};

SerialSetup
setupSerial(const Options &o)
{
    SerialSetup s;
    s.sched = probeSched();
    const uint64_t seed = o.seed;
    // Every cell draws its own calibration day, so a run averages over
    // many days and the quality metrics vary little between seeds.
    auto day_of = [&](uint64_t k) {
        return static_cast<int>(mix(seed, 1000 + k) % 365);
    };
    if (o.workload == "fig13_mapper") {
        // Sec. 6.5 supremacy ladder on IBMQ14-noise grids at fig13's
        // per-compile node budget and calibration day (day 1), four
        // seeded circuits per grid (fewer let the seed move the mean
        // ESP by more than its bound). The mapper reads only the 2Q
        // interaction graph, which the seed does not change, so node
        // counts repeat exactly across seeds; on day 1 every row proves
        // optimality within the budget.
        struct Grid
        {
            int rows, cols, depth;
        };
        const Grid grids[] = {{3, 4, 24}, {4, 4, 32}, {4, 5, 40}};
        const NoiseSpec noise = makeIbmQ14().noiseSpec();
        for (const Grid &g : grids) {
            const int n = g.rows * g.cols;
            s.devices.emplace_back("Grid" + std::to_string(n),
                                   Topology::grid(g.rows, g.cols),
                                   GateSet::ibm(), noise);
            for (int k = 0; k < 4; ++k) {
                Cell c;
                c.program = static_cast<int>(s.generated.size());
                c.device = static_cast<int>(s.devices.size()) - 1;
                c.day = 1;
                s.generated.push_back(makeSupremacy(
                    g.rows, g.cols, g.depth, mix(seed, 77 + k) % 100000));
                s.cells.push_back(c);
            }
        }
        s.base.level = OptLevel::OneQOptCN;
        s.base.mapping.kind = MapperKind::BranchAndBound;
        s.base.mapping.nodeBudget = 200000;
        return s;
    }

    s.sources = loadSources(o.root);
    s.devices = allStudyDevices();
    std::vector<OptLevel> levels;
    // Three days per fig07 cell: its slowest cells (8192 trials of the
    // widest programs) then come in several similar copies, so the tail
    // percentiles do not rest on one (program, device, day).
    int days = 3;
    if (o.workload == "fig07_fullstack") {
        levels = {OptLevel::OneQOpt, OptLevel::OneQOptCN};
    } else {
        levels = {OptLevel::N, OptLevel::OneQOpt, OptLevel::OneQOptC,
                  OptLevel::OneQOptCN};
    }
    for (int p = 0; p < static_cast<int>(s.sources.size()); ++p)
        for (int d = 0; d < static_cast<int>(s.devices.size()); ++d) {
            if (s.sources[static_cast<size_t>(p)].qubits >
                s.devices[static_cast<size_t>(d)].numQubits())
                continue;
            for (OptLevel lv : levels)
                for (int k = 0; k < days; ++k) {
                    Cell c;
                    c.source = p;
                    c.device = d;
                    c.level = lv;
                    // The levels of one (program, device, k) share a day.
                    c.day = day_of(static_cast<uint64_t>(
                        (p * 16 + d) * 16 + k));
                    if (o.workload == "fig07_fullstack") {
                        c.trials =
                            paperTrials(s.devices[static_cast<size_t>(d)]);
                        c.simSeed = mix(seed, s.cells.size());
                    }
                    s.cells.push_back(c);
                }
        }
    return s;
}

/** What one op produced (kept until its untimed check). */
struct OpOut
{
    Circuit program;
    Calibration calib;
    CompileResult compiled;
    ExecutionResult run;
    bool ran = false;
};

OpOut
runSerialOp(const SerialSetup &s, const Cell &c, long op, Recorder &rec)
{
    OpOut out;
    const Device &dev = s.devices[static_cast<size_t>(c.device)];
    auto whole = rec.scope("op", op, 0);
    {
        auto sp = rec.scope("device.calibrate", op);
        out.calib = dev.calibrate(c.day);
    }
    if (c.source >= 0) {
        const std::string &text =
            s.sources[static_cast<size_t>(c.source)].text;
        Module m;
        {
            auto sp = rec.scope("lang.parse", op);
            m = parseScaffLite(text);
        }
        auto sp = rec.scope("lang.lower", op);
        out.program = lowerToCircuit(m);
    } else {
        out.program = s.generated[static_cast<size_t>(c.program)];
    }
    CompileOptions copts = s.base;
    copts.level = c.level;
    {
        auto sp = rec.scope("core.compile", op);
        const double t = nowUs();
        out.compiled = compileForDevice(out.program, dev, out.calib, copts);
        if (rec.on)
            addPassSpans(rec, op, out.compiled.report, t);
    }
    if (c.trials > 0) {
        auto sp = rec.scope("sim.execute", op);
        out.run = executeNoisy(out.compiled.hwCircuit, dev, out.calib,
                               c.trials, c.simSeed);
        out.ran = true;
    }
    return out;
}

/** Standalone probes of layers the op calls only from inside (lane 1). */
void
probeSerialOp(const SerialSetup &s, const Cell &c, const OpOut &out,
              long op, Recorder &rec, LayerCounts &lc)
{
    if (c.source >= 0) {
        rec.lane = 1;
        {
            auto sp = rec.scope("lang.tokenize", op);
            (void)tokenize(s.sources[static_cast<size_t>(c.source)].text);
        }
        rec.lane = 0;
    }
    if (!out.ran)
        return;
    const double t0 = nowUs();
    CompactCircuit cc = compactCircuit(out.compiled.hwCircuit);
    const double t1 = nowUs();
    FusedProgram fp(cc.circuit);
    const double t2 = nowUs();
    rec.add("sim.compact", op, 1, t0, t1 - t0, 1);
    rec.add("sim.fusion_plan", op, 1, t1, t2 - t1, 1);
    lc.fusedOps += fp.stats().ops;
    lc.fusedGates += fp.stats().gates;
}

/** Untimed correctness check of one op against its cell's record. */
struct CellRecord
{
    bool seen = false;
    uint64_t digest = 0;
    double esp = 0.0, success = -1.0;
    int twoQ = 0;
};

/** A distinct cell's first output, verified after the measured loop. */
struct PendingVerify
{
    long op;
    Circuit program;
    CompileResult compiled;
};

std::string
checkSerialOp(const SerialSetup &s, const Cell &c, const OpOut &out,
              long op, CellRecord &cr, LayerCounts &lc,
              std::vector<PendingVerify> &pending)
{
    const Device &dev = s.devices[static_cast<size_t>(c.device)];
    uint64_t digest = compileResultDigest(out.compiled);
    if (out.ran)
        digest = Fnv1a().u64(digest).u64(histogramDigest(out.run)).value();
    if (cr.seen)
        return digest == cr.digest ? ""
                                   : "output digest differs from the "
                                     "cell's first run";
    cr.seen = true;
    cr.digest = digest;
    pending.push_back({op, out.program, out.compiled});
    if (out.ran) {
        long total = 0;
        for (const auto &[key, n] : out.run.histogram)
            total += n;
        if (total != out.run.trials || out.run.trials != c.trials)
            return "histogram holds " + std::to_string(total) +
                   " trials, expected " + std::to_string(c.trials);
        const uint64_t want = idealOutcome(out.program);
        const uint64_t got = outcomeForProgram(
            out.run.correctOutcome, out.compiled.hwCircuit,
            out.compiled.finalMap, out.program.measuredQubits());
        if (want != got)
            return "simulated correct outcome " + std::to_string(got) +
                   " != program's ideal outcome " + std::to_string(want);
        cr.success = out.run.successRate;
        lc.addRun(out.run);
    }
    cr.esp = estimatedSuccessProbability(out.compiled.hwCircuit,
                                         dev.topology(), out.calib);
    cr.twoQ = out.compiled.stats.twoQ;
    lc.cells += 1;
    if (c.source >= 0)
        lc.tokens += static_cast<double>(
            tokenize(s.sources[static_cast<size_t>(c.source)].text).size());
    lc.gatesLowered += out.program.numGates();
    lc.addCompile(out.compiled);
    return "";
}

/**
 * verifyCompilation on every distinct cell's first output, on up to
 * four threads: fig13's 20-qubit cells take seconds each, and verified
 * serially inside the loop they were most of a run's wall time.
 * Returns the number of cells that failed.
 */
long
verifyPending(const std::vector<PendingVerify> &pending,
              std::vector<std::string> &errors)
{
    std::vector<std::string> verdict(pending.size());
    std::atomic<size_t> next{0};
    auto work = [&] {
        for (size_t i; (i = next++) < pending.size();) {
            const PendingVerify &p = pending[i];
            try {
                const VerificationResult v =
                    verifyCompilation(p.program, p.compiled);
                if (!v.equivalent)
                    verdict[i] = "verifyCompilation failed (max deviation " +
                                 std::to_string(v.maxDeviation) + ")";
            } catch (const std::exception &e) {
                verdict[i] = std::string("verifyCompilation threw: ") +
                             e.what();
            }
        }
    };
    const unsigned n =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < n; ++t)
        threads.emplace_back(work);
    for (std::thread &t : threads)
        t.join();
    long failed = 0;
    for (size_t i = 0; i < pending.size(); ++i) {
        if (verdict[i].empty())
            continue;
        ++failed;
        if (errors.size() < 8)
            errors.push_back("op " + std::to_string(pending[i].op) + ": " +
                             verdict[i]);
    }
    return failed;
}

/** One closed-loop run over the cells, in seeded passes. */
struct LoopStats
{
    std::vector<double> latMs;   //!< Correct ops (traced ones if paired).
    std::vector<double> scaledMs; //!< latMs at nominal host speed.
    std::vector<size_t> cellOf;  //!< Cell index of each latMs entry.
    std::vector<double> plainMs; //!< Paired mode: the untraced twin.
    double measuredS = 0.0;      //!< Op time, both twins if paired.
    double cpuMs = 0.0, scaledCpuMs = 0.0;
    long attempted = 0, failed = 0;
};

/**
 * Run ops closed-loop in whole passes over the cells until `seconds`
 * of measured op time have passed. Whole passes keep the op mix of
 * every run the same (cells differ in cost by 100x), and the quality
 * metrics cover every cell. In paired mode (the traced run) every op
 * runs twice back to back, untraced and traced in alternating order,
 * so the latency difference of the twins is the tracing overhead;
 * standalone probes then run once per cell on the probe lane.
 */
LoopStats
runSerialLoop(const Options &o, const SerialSetup &s, Recorder &rec,
              SpeedRef &speed, std::vector<CellRecord> &records,
              LayerCounts &lc, std::vector<PendingVerify> &pending,
              std::vector<std::string> &errors, bool paired)
{
    LoopStats ls;
    const size_t n = s.cells.size();
    std::vector<bool> probed(n, false);
    std::vector<size_t> order(n);
    long op = 0;

    // One execution plus its untimed check; returns latency or -1.
    auto execute = [&](size_t idx, bool traced) -> double {
        const Cell &c = s.cells[idx];
        rec.on = traced;
        ++ls.attempted;
        std::string err;
        speed.tick();
        const double c0 = cpuMs();
        const double t0 = nowUs();
        std::optional<OpOut> out;
        try {
            out = runSerialOp(s, c, op, rec);
        } catch (const std::exception &e) {
            err = e.what();
        }
        const double lat = (nowUs() - t0) / 1e3;
        ls.cpuMs += cpuMs() - c0;
        ls.scaledCpuMs += (cpuMs() - c0) * speed.cpuFactor();
        ls.measuredS += lat / 1e3;
        if (out) {
            if (o.injectCorrupt && op == 0)
                corrupt(out->compiled);
            try {
                err = checkSerialOp(s, c, *out, op, records[idx], lc,
                                    pending);
            } catch (const std::exception &e) {
                err = std::string("check threw: ") + e.what();
            }
            if (traced && !probed[idx]) {
                probed[idx] = true;
                probeSerialOp(s, c, *out, op, rec, lc);
            }
        }
        rec.on = false;
        if (err.empty())
            return lat;
        ++ls.failed;
        if (errors.size() < 8)
            errors.push_back("op " + std::to_string(op) + ": " + err);
        return -1.0;
    };

    for (int pass = 0; pass == 0 || ls.measuredS < o.seconds; ++pass) {
        std::iota(order.begin(), order.end(), size_t{0});
        Rng rng(mix(o.seed, 5000 + static_cast<uint64_t>(pass)));
        for (size_t i = n; i > 1; --i)
            std::swap(order[i - 1],
                      order[static_cast<size_t>(
                          rng.uniformInt(static_cast<int>(i)))]);
        for (size_t idx : order) {
            if (!paired) {
                const double lat = execute(idx, false);
                if (lat >= 0.0) {
                    ls.latMs.push_back(lat);
                    ls.scaledMs.push_back(lat * speed.wallFactor());
                    ls.cellOf.push_back(idx);
                }
            } else {
                const bool traced_first = op % 2 == 1;
                const double a = execute(idx, traced_first);
                const double b = execute(idx, !traced_first);
                if (a >= 0.0 && b >= 0.0) {
                    ls.latMs.push_back(traced_first ? a : b);
                    ls.scaledMs.push_back(ls.latMs.back() *
                                          speed.wallFactor());
                    ls.cellOf.push_back(idx);
                    ls.plainMs.push_back(traced_first ? b : a);
                }
            }
            ++op;
        }
    }
    return ls;
}

/**
 * Each op's latency replaced by the median latency of the ops of its
 * group in the same loop (a serial workload's cell; triqd's request
 * kind and cell), so ops delayed by the host do not set a tail
 * percentile: over raw op latencies, fig13_mapper's p99 rested on its
 * two slowest ops, and triqd_serial's p90 moved by a fifth between
 * runs whose p50 agreed within 5%. An op alone in its group keeps its
 * own latency. `group[i]` < `groups` is op i's group.
 */
std::vector<double>
groupMedianLatencies(const std::vector<double> &lat_ms,
                     const std::vector<size_t> &group, size_t groups)
{
    std::vector<std::vector<double>> by_group(groups);
    for (size_t i = 0; i < lat_ms.size(); ++i)
        by_group[group[i]].push_back(lat_ms[i]);
    std::vector<double> out;
    out.reserve(lat_ms.size());
    for (const std::vector<double> &v : by_group)
        out.insert(out.end(), v.size(), median(v));
    return out;
}

/** Quality metrics over the distinct cells (deterministic per seed). */
void
quality(const std::vector<CellRecord> &records, EndToEnd &e)
{
    double succ = 0.0, logesp = 0.0, n = 0.0;
    e.gates2q = 0.0;
    for (const CellRecord &r : records) {
        if (!r.seen)
            continue;
        succ += r.success >= 0.0 ? r.success : r.esp;
        logesp += std::log(std::max(r.esp, 1e-300));
        e.gates2q += r.twoQ;
        n += 1;
    }
    e.successMean = ratio(succ, n);
    e.espGeomean = n > 0 ? std::exp(logesp / n) : 0.0;
}

uint64_t
recordsDigest(const std::vector<CellRecord> &records)
{
    Fnv1a h;
    for (const CellRecord &r : records)
        h.u64(r.seen ? r.digest : 0);
    return h.value();
}

/** Tracing overhead from paired (untraced, traced) latencies. */
void
addOverheadMetrics(Collector &m, const std::vector<double> &plain,
                   const std::vector<double> &traced)
{
    std::vector<double> diff;
    double a = 0.0, b = 0.0;
    const size_t k = std::min(plain.size(), traced.size());
    for (size_t i = 0; i < k; ++i) {
        diff.push_back(traced[i] - plain[i]);
        a += plain[i];
        b += traced[i];
    }
    m.add("trace.overhead_ms", median(diff), "ms");
    m.add("trace.overhead_frac", ratio(b - a, a), "frac");
    m.add("trace.paired_ops", static_cast<double>(k), "count");
}

Result
runSerialWorkload(const Options &o)
{
    Result res;
    EndToEnd e;
    SpeedRef speed;
    std::vector<double> setup_times, raw_setup_times;
    auto make = [&] { return setupSerial(o); };
    SerialSetup s = timedSetups(make, speed, setup_times, raw_setup_times);
    std::vector<CellRecord> records(s.cells.size());
    LayerCounts lc;
    Recorder rec;
    rec.injectLayer = o.injectLayer;
    rec.injectUs = o.injectUs;
    Collector m;

    std::vector<PendingVerify> pending;
    LoopStats loop = runSerialLoop(o, s, rec, speed, records, lc, pending,
                                   res.errors, o.trace);
    e.peakRssMb = peakRssMb();
    loop.failed += verifyPending(pending, res.errors);
    pending = {};
    (void)timedSetups(make, speed, setup_times, raw_setup_times);
    e.setupS = median(setup_times);
    e.rawSetupS = median(raw_setup_times);
    e.setupBuilds = static_cast<long>(setup_times.size());
    e.ops = static_cast<long>(loop.latMs.size());
    e.latMs =
        groupMedianLatencies(loop.scaledMs, loop.cellOf, s.cells.size());
    e.rawLatMs =
        groupMedianLatencies(loop.latMs, loop.cellOf, s.cells.size());
    e.measuredS =
        std::accumulate(loop.scaledMs.begin(), loop.scaledMs.end(), 0.0) /
        1e3;
    e.rawMeasuredS =
        std::accumulate(loop.latMs.begin(), loop.latMs.end(), 0.0) / 1e3;
    e.cpuMs = loop.scaledCpuMs;
    e.rawCpuMs = loop.cpuMs;
    e.speed = speed.medianWallFactor();
    e.attempted = loop.attempted;
    e.failed = loop.failed;
    quality(records, e);
    if (!o.trace) {
        addEndToEnd(m, e);
    } else {
        addLayerMetrics(m, rec, lc, s.sched.ms, opShares(rec));
        addNoServiceMetrics(m);
        addOverheadMetrics(m, loop.plainMs, loop.latMs);
        if (!o.traceOut.empty() && !rec.writeChrome(o.traceOut))
            fatal("e2ebench: cannot write ", o.traceOut);
    }

    JsonWriter x;
    x.beginObject();
    x.key("cells").value(static_cast<long>(s.cells.size()));
    x.key("sched_calib").value(s.sched.calib);
    x.endObject();
    res.detail = detailJson(e, "\"workload\": " + x.str());
    res.attempted = e.attempted;
    res.failed = e.failed;
    res.metrics = std::move(m.out);
    res.outputsDigest = std::to_string(recordsDigest(records));
    return res;
}

// ---------------------------------------------------------------------
// triqd_serial and triqd_mixed: an in-process Server under one or four
// closed-loop clients.
// ---------------------------------------------------------------------

constexpr int kClients = 4;
constexpr int kSimTrials = 256;
constexpr int kSimSeeds = 4;
/**
 * Requests issued in the first second after set-up are checked but not
 * measured: the server's throughput over that second was measured at
 * about half its later rate, which made a 12 s run's throughput follow
 * how long the warm-up lasted.
 */
constexpr double kWarmupS = 1.0;
/** First request indices of the untraced phases of a traced run. */
constexpr long kUntracedPhaseFirstIndex[] = {1000000, 2000000};

enum class ReqKind
{
    CompileHit,
    CompileMiss,
    Simulate
};

struct Request
{
    ReqKind kind = ReqKind::CompileHit;
    int source = 0;
    int device = 0;
    int day = 0;
    uint64_t simSeed = 0;
};

struct TriqdSetup
{
    std::vector<Source> sources;
    std::vector<Device> devices;
    /** A fitting (source, device) pair and its seeded warm day. */
    struct Pair
    {
        int source, device, warmDay;
    };
    std::vector<Pair> pairs;
    std::unique_ptr<Server> server;
    SchedProbe sched;
};

/**
 * Request i of the seeded stream: 94.9% compile requests for a cell
 * the set-up already compiled (cache hits), 0.1% compile requests for
 * a never-seen calibration day (misses that insert), 5% small simulate
 * requests on a cached cell with one of kSimSeeds seeds. The miss
 * share is kept low because every miss grows the server's unbounded
 * cache for the rest of the run (~15 KB per entry), so peak_rss_mb
 * follows the number of misses, which follows the run's throughput: at
 * 0.5%, triqd_serial's peak_rss_mb had a quartile spread of 0.11 over
 * five seeds. Simulate requests take
 * 5-20 times as long as hits; at a 10% share the boundary between the
 * two fell on p90, which then jumped by a third between runs.
 */
Request
requestAt(const TriqdSetup &s, uint64_t seed, long i)
{
    Rng rng(mix(seed, 900000 + static_cast<uint64_t>(i)));
    Request r;
    const double u = rng.uniform();
    const auto &pair = s.pairs[static_cast<size_t>(
        rng.uniformInt(static_cast<int>(s.pairs.size())))];
    r.source = pair.source;
    r.device = pair.device;
    r.day = pair.warmDay;
    if (u < 0.949) {
        r.kind = ReqKind::CompileHit;
    } else if (u < 0.95) {
        r.kind = ReqKind::CompileMiss;
        r.day = 1000 + static_cast<int>(i);
    } else {
        r.kind = ReqKind::Simulate;
        r.simSeed = 1 + static_cast<uint64_t>(rng.uniformInt(kSimSeeds));
    }
    return r;
}

std::string
requestLine(const TriqdSetup &s, const Request &r, long i)
{
    JsonWriter w;
    w.beginObject();
    w.key("id").value("r" + std::to_string(i));
    w.key("op").value(r.kind == ReqKind::Simulate ? "simulate" : "compile");
    w.key("program").value(s.sources[static_cast<size_t>(r.source)].text);
    w.key("device").value(s.devices[static_cast<size_t>(r.device)].name());
    w.key("level").value("cn").key("day").value(r.day);
    if (r.kind == ReqKind::Simulate)
        w.key("trials").value(kSimTrials).key("seed").value(
            static_cast<double>(r.simSeed));
    w.endObject();
    return w.str();
}

/**
 * Compile every fitting pair on its warm day into `cache`, through the
 * same entry point the server's compile path uses.
 */
void
warmCache(const TriqdSetup &s, CompileCache &cache)
{
    for (const TriqdSetup::Pair &p : s.pairs) {
        const Device &dev = s.devices[static_cast<size_t>(p.device)];
        (void)compileThroughCache(
            &cache,
            compileScaffLite(s.sources[static_cast<size_t>(p.source)].text),
            dev, p.warmDay, dev.calibrate(p.warmDay), CompileOptions{});
    }
}

TriqdSetup
setupTriqd(const Options &o)
{
    TriqdSetup s;
    s.sched = probeSched();
    s.sources = loadSources(o.root);
    s.devices = allStudyDevices();
    for (int p = 0; p < static_cast<int>(s.sources.size()); ++p)
        for (int d = 0; d < static_cast<int>(s.devices.size()); ++d)
            if (s.sources[static_cast<size_t>(p)].qubits <=
                s.devices[static_cast<size_t>(d)].numQubits())
                s.pairs.push_back(
                    {p, d,
                     static_cast<int>(mix(o.seed, s.pairs.size()) % 365)});
    s.server = std::make_unique<Server>(ServerConfig{});
    s.server->start();
    warmCache(s, s.server->cache());
    return s;
}

/** One request and what its reply said (read by the client). */
struct Reply
{
    long index = 0;
    Request req;
    double submitUs = 0.0, submittedUs = 0.0, replyUs = 0.0;
    /** Wall-time scale to nominal host speed (1 in triqd_mixed). */
    double scale = 1.0;
    int client = 0;
    bool warmup = false; //!< Issued in the warm-up: checked, not measured.
    bool ok = false;
    uint64_t fingerprint = 0;
    double esp = -1.0, success = -1.0;
    bool hit = false;
    long bytes = 0;
};

/**
 * The client's read of a reply line. Keeping these fields instead of
 * the line bounds the memory of long runs. Returns what is wrong with
 * a reply that is not ok ("" otherwise).
 */
std::string
readReply(Reply &r, const std::string &line)
{
    r.bytes = static_cast<long>(line.size());
    const JsonParseResult pr = parseJson(line);
    const JsonValue &v = pr.value;
    r.ok = pr.ok && v.getBool("ok", false);
    if (!r.ok)
        return line.substr(0, 200);
    try {
        r.fingerprint = std::stoull(v.getString("fingerprint"), nullptr, 16);
    } catch (const std::exception &) {
        r.ok = false;
        return "unreadable fingerprint in " + line.substr(0, 200);
    }
    r.esp = v.getNumber("esp", -1.0);
    r.success = v.getNumber("success_rate", -1.0);
    r.hit = v.getString("source") == cellSourceName(CellSource::CacheHit);
    return "";
}

struct TriqdLoop
{
    /**
     * In request-index order. A deque grows without the copy-on-resize
     * peaks of a vector, so peak_rss_mb follows the request count
     * smoothly instead of jumping at each capacity doubling.
     */
    std::deque<Reply> replies;
    std::map<long, std::string> problems; //!< Replies that were not ok.
    long measured = 0;               //!< Replies issued after the warm-up.
    /** Measured time after the warm-up, at nominal speed if scaled. */
    double wallS = 0.0, cpuMs = 0.0;
    double rawWallS = 0.0, rawCpuMs = 0.0; //!< The same, as measured.
    int queueDepthMax = 0;

    /** What was wrong with reply `r` ("" when it was ok). */
    std::string
    problemOf(const Reply &r) const
    {
        auto it = problems.find(r.index);
        return it == problems.end() ? std::string() : it->second;
    }
};

/**
 * Receives each reply, with what was wrong with it, as it arrives; a
 * loop given one keeps no replies.
 */
using ReplySink = std::function<void(const Reply &, const std::string &)>;

/**
 * Four logical clients, each with one request in flight, driven by
 * this (single generator) thread: a reply callback hands the finished
 * request back and the generator issues that client's next request.
 * Requests go out for `warmup_s` unmeasured seconds, then for
 * `seconds` measured ones. Replies are always kept: handing them to a
 * sink on the generator thread would put their checks inside the
 * measured wall time.
 */
TriqdLoop
runTriqdLoop(const Options &o, TriqdSetup &s, double warmup_s,
             double seconds, long first_index, bool sample_queue,
             const ReplySink *, SpeedRef *)
{
    struct Done
    {
        int client;
        std::string line;
        double us;
    };
    struct Mailbox
    {
        std::mutex mu;
        std::condition_variable cv;
        std::deque<Done> done;
    };
    auto box = std::make_shared<Mailbox>();
    TriqdLoop loop;
    std::map<long, Reply> inflight;
    std::vector<long> clientReq(kClients, -1);
    long next = first_index;
    const double warm_until = nowUs() + warmup_s * 1e6;
    bool measuring = false;
    double t0 = 0.0, c0 = 0.0;

    auto issue = [&](int client) {
        if (!measuring && nowUs() >= warm_until) {
            measuring = true;
            t0 = nowUs();
            c0 = cpuMs();
        }
        Reply r;
        r.index = next++;
        r.client = client;
        r.warmup = !measuring;
        r.req = requestAt(s, o.seed, r.index);
        std::string line = requestLine(s, r.req, r.index);
        clientReq[static_cast<size_t>(client)] = r.index;
        r.submitUs = nowUs();
        inflight[r.index] = r;
        s.server->submit("client" + std::to_string(client), std::move(line),
                         [box, client](std::string reply) {
                             const double at = nowUs();
                             std::lock_guard<std::mutex> lk(box->mu);
                             box->done.push_back(
                                 {client, std::move(reply), at});
                             box->cv.notify_one();
                         });
        inflight[r.index].submittedUs = nowUs();
        // Server::stats() sorts its latency window under the lock the
        // workers record into; sampling 1 submit in 8 slowed the loop
        // by a third, so sample 1 in 64.
        if (sample_queue && r.index % 64 == 0)
            loop.queueDepthMax = std::max(loop.queueDepthMax,
                                          s.server->stats().queueDepth);
    };

    for (int c = 0; c < kClients; ++c)
        issue(c);
    int open = kClients;
    while (open > 0) {
        Done d;
        {
            std::unique_lock<std::mutex> lk(box->mu);
            box->cv.wait(lk, [&] { return !box->done.empty(); });
            d = std::move(box->done.front());
            box->done.pop_front();
        }
        const long idx = clientReq[static_cast<size_t>(d.client)];
        Reply r = inflight[idx];
        inflight.erase(idx);
        r.replyUs = d.us;
        if (!measuring || (nowUs() - t0) / 1e6 < seconds)
            issue(d.client);
        else
            --open;
        if (std::string p = readReply(r, d.line); !p.empty())
            loop.problems.emplace(r.index, std::move(p));
        if (o.injectCorrupt && r.index == 0)
            r.fingerprint ^= 1;
        loop.measured += r.warmup ? 0 : 1;
        loop.replies.push_back(std::move(r));
    }
    loop.wallS = loop.rawWallS = (nowUs() - t0) / 1e6;
    loop.cpuMs = loop.rawCpuMs = cpuMs() - c0;
    std::sort(loop.replies.begin(), loop.replies.end(),
              [](const Reply &a, const Reply &b) { return a.index < b.index; });
    return loop;
}

/**
 * One client driving the server through Server::processLine, the
 * synchronous path of the stdio transport: each request is issued from
 * this thread once the previous reply is back. Requests go out for
 * `warmup_s` unmeasured seconds, then until the measured requests'
 * latencies sum to `seconds`, which is the loop's measured time;
 * `speed` is sampled between requests and scales it. With a `sink`,
 * each reply goes to it between requests (outside the measured time)
 * instead of being kept, so the benchmark's own memory does not grow
 * with the request count and set peak_rss_mb.
 */
TriqdLoop
runTriqdSerialLoop(const Options &o, TriqdSetup &s, double warmup_s,
                   double seconds, long first_index, bool sample_queue,
                   const ReplySink *sink, SpeedRef *speed)
{
    TriqdLoop loop;
    const double warm_until = nowUs() + warmup_s * 1e6;
    for (long i = first_index; loop.rawWallS < seconds; ++i) {
        Reply r;
        r.index = i;
        r.warmup = nowUs() < warm_until;
        r.req = requestAt(s, o.seed, i);
        const std::string line = requestLine(s, r.req, i);
        speed->tick();
        r.scale = speed->wallFactor();
        const double c0 = cpuMs();
        r.submitUs = nowUs();
        const std::string reply = s.server->processLine("client0", line);
        r.replyUs = nowUs();
        r.submittedUs = r.submitUs; // no asynchronous hand-off to time
        if (!r.warmup) {
            const double cpu = cpuMs() - c0;
            loop.rawWallS += (r.replyUs - r.submitUs) / 1e6;
            loop.wallS += (r.replyUs - r.submitUs) / 1e6 * r.scale;
            loop.rawCpuMs += cpu;
            loop.cpuMs += cpu * speed->cpuFactor();
            ++loop.measured;
        }
        if (sample_queue && i % 64 == 0)
            loop.queueDepthMax =
                std::max(loop.queueDepthMax, s.server->stats().queueDepth);
        std::string problem = readReply(r, reply);
        if (o.injectCorrupt && r.index == 0)
            r.fingerprint ^= 1;
        if (sink) {
            (*sink)(r, problem);
            continue;
        }
        if (!problem.empty())
            loop.problems.emplace(r.index, std::move(problem));
        loop.replies.push_back(std::move(r));
    }
    return loop;
}

/** The direct (serverless) result of one request's cell. */
struct Direct
{
    double esp = 0.0;
    uint64_t digest = 0;
    int twoQ = 0;
    CompileFingerprint key;
    /** Warm-day cells only (the ones simulate requests replay). */
    std::shared_ptr<const CompileResult> result;
    std::optional<Calibration> calib;
    std::string error; //!< verifyCompilation failure, "" when sound.
};

/**
 * Untimed checks of triqd replies: each must be ok and carry the
 * fingerprint and ESP of a direct compile of the same cell (and, for a
 * simulate request, the success rate of a direct simulation).
 */
class TriqdChecker
{
  public:
    explicit TriqdChecker(const TriqdSetup &s) : s_(s) {}

    /**
     * "" when the reply is correct, else what is wrong. `problem` is
     * what readReply() found wrong with it.
     */
    std::string
    check(const Reply &r, const std::string &problem)
    {
        if (!r.ok)
            return "reply not ok: " + problem;
        const Direct &d = directFor(r.req);
        if (!d.error.empty())
            return d.error;
        if (r.fingerprint != d.key.combined())
            return "fingerprint differs from the direct compile's " +
                   d.key.str();
        if (r.esp != d.esp)
            return "esp differs from the direct compile";
        if (r.hit != (r.req.kind != ReqKind::CompileMiss))
            return std::string("cache ") + (r.hit ? "hit" : "miss") +
                   " unexpected";
        if (r.req.kind == ReqKind::Simulate &&
            r.success != directSuccess(r.req, d))
            return "simulated success rate differs from a direct run";
        return "";
    }

    /** Every artifact the server cached for a checked cell is direct. */
    long
    checkCache(CompileCache &cache) const
    {
        long bad = 0;
        for (const auto &[cell, d] : direct_) {
            auto hit = cache.find(d.key);
            if (!hit || compileResultDigest(*hit->result) != d.digest)
                ++bad;
        }
        return bad;
    }

    const std::map<std::tuple<int, int, int>, Direct> &
    cells() const
    {
        return direct_;
    }

  private:
    double
    directSuccess(const Request &r, const Direct &d)
    {
        const auto key = std::make_tuple(r.source, r.device, r.simSeed);
        auto it = success_.find(key);
        if (it != success_.end())
            return it->second;
        ExecOptions eo; // the server's per-request settings
        eo.threads = 1;
        eo.kernelThreads = 1;
        const double rate =
            executeNoisy(d.result->hwCircuit,
                         s_.devices[static_cast<size_t>(r.device)], *d.calib,
                         kSimTrials, r.simSeed, eo)
                .successRate;
        success_.emplace(key, rate);
        return rate;
    }

    const Direct &
    directFor(const Request &r)
    {
        const auto key = std::make_tuple(r.source, r.device, r.day);
        auto it = direct_.find(key);
        if (it != direct_.end())
            return it->second;
        Direct d;
        const Device &dev = s_.devices[static_cast<size_t>(r.device)];
        const CompileOptions copts;
        const Circuit program =
            compileScaffLite(s_.sources[static_cast<size_t>(r.source)].text);
        const Calibration calib = dev.calibrate(r.day);
        Circuit lowered =
            decomposeToCnotBasis(program, dev.gateSet().nativeCphase);
        d.key = fingerprintCompile(lowered, dev, calib, copts);
        auto cr = std::make_shared<CompileResult>(
            compileForDevice(program, dev, calib, copts));
        d.esp = estimatedSuccessProbability(cr->hwCircuit, dev.topology(),
                                            calib);
        d.digest = compileResultDigest(*cr);
        d.twoQ = cr->stats.twoQ;
        if (!verifyCompilation(program, *cr).equivalent)
            d.error = "verifyCompilation failed on the direct compile";
        // Simulate requests replay warm-day cells; keep only those.
        if (r.kind != ReqKind::CompileMiss) {
            d.result = std::move(cr);
            d.calib = calib;
        }
        return direct_.emplace(key, std::move(d)).first->second;
    }

    const TriqdSetup &s_;
    std::map<std::tuple<int, int, int>, Direct> direct_;
    /** Direct success rate per warm cell and simulation seed. */
    std::map<std::tuple<int, int, uint64_t>, double> success_;
};

double
latencyMs(const Reply &r)
{
    return (r.replyUs - r.submitUs) / 1e3;
}

/**
 * Replay requests on the probe lane without the server: the same
 * calibration, front end, compile-or-lookup (on a cache warmed like
 * the server's) and simulation. Stops after `budget_s`. Returns each
 * replayed request's client latency minus its standalone cost.
 */
std::vector<double>
replayStandalone(const TriqdSetup &s, const TriqdLoop &loop,
                 double budget_s, Recorder &rec, LayerCounts &lc)
{
    const CompileOptions copts;
    CompileCache cache;
    warmCache(s, cache);
    std::vector<double> overhead;
    const double until = nowUs() + budget_s * 1e6;
    rec.lane = 1;
    for (const Reply &r : loop.replies) {
        if (nowUs() > until)
            break;
        const long op = r.index;
        const Device &dev = s.devices[static_cast<size_t>(r.req.device)];
        const std::string &text =
            s.sources[static_cast<size_t>(r.req.source)].text;
        const double t0 = nowUs();
        Calibration calib;
        {
            auto sp = rec.scope("device.calibrate", op);
            calib = dev.calibrate(r.req.day);
        }
        Module mod;
        {
            auto sp = rec.scope("lang.parse", op);
            mod = parseScaffLite(text);
        }
        Circuit prog;
        {
            auto sp = rec.scope("lang.lower", op);
            prog = lowerToCircuit(mod);
        }
        CachedCompile cc;
        {
            auto sp = rec.scope("core.compile", op);
            const double t = nowUs();
            cc = compileThroughCache(&cache, prog, dev, r.req.day, calib,
                                     copts);
            if (cc.source == CellSource::Compiled)
                addPassSpans(rec, op, cc.result->report, t, 1);
        }
        ExecutionResult run;
        if (r.req.kind == ReqKind::Simulate) {
            ExecOptions eo;
            eo.threads = 1;
            eo.kernelThreads = 1;
            auto sp = rec.scope("sim.execute", op);
            run = executeNoisy(cc.result->hwCircuit, dev, calib, kSimTrials,
                               r.req.simSeed, eo);
        }
        overhead.push_back(latencyMs(r) - (nowUs() - t0) / 1e3);

        // Counts and standalone probes, outside the replayed cost.
        {
            auto sp = rec.scope("lang.tokenize", op);
            lc.tokens += static_cast<double>(tokenize(text).size());
        }
        lc.cells += 1;
        lc.gatesLowered += prog.numGates();
        if (cc.source == CellSource::Compiled)
            lc.addCompile(*cc.result);
        if (r.req.kind == ReqKind::Simulate) {
            lc.addRun(run);
            const double c0 = nowUs();
            CompactCircuit compact = compactCircuit(cc.result->hwCircuit);
            const double c1 = nowUs();
            FusedProgram fp(compact.circuit);
            rec.add("sim.compact", op, 1, c0, c1 - c0, 1);
            rec.add("sim.fusion_plan", op, 1, c1, nowUs() - c1, 1);
            lc.fusedOps += fp.stats().ops;
            lc.fusedGates += fp.stats().gates;
        }
    }
    rec.lane = 0;
    return overhead;
}

/**
 * Restrict every thread of the process to the last CPU the calling
 * thread may run on; threads started later inherit that from their
 * creator. Returns the CPU and stores the calling thread's previous
 * affinity in `before`.
 */
int
pinProcessToOneCpu(cpu_set_t &before)
{
    CPU_ZERO(&before);
    if (sched_getaffinity(0, sizeof(before), &before) != 0)
        fatal("e2ebench: cannot read the CPU affinity");
    int last = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &before))
            last = c;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(last, &one);
    for (const auto &task :
         std::filesystem::directory_iterator("/proc/self/task"))
        if (sched_setaffinity(std::stoi(task.path().filename().string()),
                              sizeof(one), &one) != 0)
            fatal("e2ebench: cannot pin thread ",
                  task.path().filename().string(), " to CPU ", last);
    return last;
}

/**
 * triqd_mixed (four concurrent clients through Server::submit) or
 * triqd_serial (one client through Server::processLine): the same
 * request stream, checks and metrics.
 *
 * triqd_serial's measured loops run on one CPU, the server's workers
 * included, so each request's hand-off to a worker and back is a
 * context switch on that CPU. Unpinned, each hand-off wakes another
 * virtual CPU, and on a shared host that wake-up's cost moved the
 * workload's throughput by 2x between runs. Set-up is timed unpinned:
 * pinned, its quartile spread reached 0.26, against 0.03-0.08 for the
 * unpinned serial workloads.
 */
Result
runTriqdWorkload(const Options &o, bool serial)
{
    Result res;
    EndToEnd e;
    SpeedRef speed;
    std::vector<double> setup_times, raw_setup_times;
    auto make = [&] { return setupTriqd(o); };
    TriqdSetup s = timedSetups(make, speed, setup_times, raw_setup_times);
    cpu_set_t unpinned;
    const int pinned_cpu = serial ? pinProcessToOneCpu(unpinned) : -1;
    const auto run_loop = serial ? runTriqdSerialLoop : runTriqdLoop;
    const int clients = serial ? 1 : kClients;

    TriqdChecker checker(s);
    long attempted = 0, failed = 0;
    auto fail = [&](const std::string &what) {
        ++failed;
        if (res.errors.size() < 8)
            res.errors.push_back(what);
    };
    Fnv1a outputs;
    std::map<ReqKind, std::vector<double>> byKind;
    std::vector<double> lat_ms, raw_lat_ms;
    std::vector<size_t> group;
    std::map<std::tuple<ReqKind, int, int, int, uint64_t>, size_t> groups;
    double reply_bytes = 0.0, sim_success = 0.0, sims = 0.0;
    // Check one reply; replies of the measured phase also count.
    auto consume = [&](const Reply &r, const std::string &problem,
                       bool measured) {
        ++attempted;
        std::string err = checker.check(r, problem);
        if (!err.empty()) {
            fail("request " + std::to_string(r.index) + ": " + err);
            return;
        }
        if (!measured)
            return;
        if (r.index < 200) // a prefix every run reaches
            outputs.i64(r.index).u64(r.fingerprint).f64(r.esp).f64(
                r.success);
        if (r.warmup)
            return;
        lat_ms.push_back(latencyMs(r) * r.scale);
        raw_lat_ms.push_back(latencyMs(r));
        group.push_back(groups
                            .emplace(std::make_tuple(r.req.kind, r.req.source,
                                                     r.req.device, r.req.day,
                                                     r.req.simSeed),
                                     groups.size())
                            .first->second);
        if (o.trace)
            byKind[r.req.kind].push_back(latencyMs(r));
        reply_bytes += static_cast<double>(r.bytes);
        if (r.req.kind == ReqKind::Simulate) {
            sim_success += r.success;
            sims += 1;
        }
    };
    // The traced run needs the replies after the loop.
    const ReplySink sink = [&](const Reply &r, const std::string &problem) {
        consume(r, problem, true);
    };
    const ReplySink *measured_sink = o.trace ? nullptr : &sink;

    // With tracing, untraced phases before and after the traced one on
    // the same server, with their own request indices (so their misses
    // are fresh keys too); the latency difference of the traced phase
    // and the untraced ones is the tracing overhead.
    TriqdLoop plain;
    if (o.trace)
        plain = run_loop(o, s, kWarmupS, o.seconds / 6,
                         kUntracedPhaseFirstIndex[0], false, nullptr, &speed);
    const ServerStats before = s.server->stats();
    TriqdLoop loop =
        o.trace ? run_loop(o, s, 0.0, o.seconds / 3, 0, true, nullptr, &speed)
                : run_loop(o, s, kWarmupS, o.seconds, 0, false,
                           measured_sink, &speed);
    const ServerStats stats = s.server->stats();
    if (o.trace) {
        TriqdLoop after = run_loop(o, s, 0.0, o.seconds / 6,
                                   kUntracedPhaseFirstIndex[1], false,
                                   nullptr, &speed);
        plain.replies.insert(plain.replies.end(), after.replies.begin(),
                             after.replies.end());
        plain.problems.merge(after.problems);
        plain.measured += after.measured;
        plain.wallS += after.wallS;
    }
    e.peakRssMb = peakRssMb();
    if (serial)
        sched_setaffinity(0, sizeof(unpinned), &unpinned);
    (void)timedSetups(make, speed, setup_times, raw_setup_times);
    e.setupS = median(setup_times);
    e.rawSetupS = median(raw_setup_times);
    e.setupBuilds = static_cast<long>(setup_times.size());

    for (const Reply &r : plain.replies)
        consume(r, plain.problemOf(r), false);
    for (const Reply &r : loop.replies)
        consume(r, loop.problemOf(r), true);
    if (const long bad = checker.checkCache(s.server->cache()))
        fail(std::to_string(bad) +
             " cached artifact(s) differ from the direct compile");

    e.latMs = groupMedianLatencies(lat_ms, group, groups.size());
    e.rawLatMs = groupMedianLatencies(raw_lat_ms, group, groups.size());
    e.ops = static_cast<long>(e.latMs.size());
    e.measuredS = loop.wallS;
    e.rawMeasuredS = loop.rawWallS;
    e.cpuMs = loop.cpuMs;
    e.rawCpuMs = loop.rawCpuMs;
    e.speed = speed.medianWallFactor();
    e.attempted = attempted;
    e.failed = failed;
    // Code quality over the warm cells: a fixed set per seed, while the
    // number of miss cells follows the run's throughput.
    double logesp = 0.0, ncells = 0.0;
    for (const auto &[key, d] : checker.cells()) {
        if (!d.result)
            continue;
        logesp += std::log(std::max(d.esp, 1e-300));
        e.gates2q += d.twoQ;
        ncells += 1.0;
    }
    e.successMean = ratio(sim_success, sims);
    e.espGeomean = ncells > 0 ? std::exp(logesp / ncells) : 0.0;

    Collector m;
    if (!o.trace) {
        addEndToEnd(m, e);
    } else {
        // Request spans as the client saw them (one lane per client):
        // the submit call, then queueing, execution and the reply
        // inside the server.
        Recorder rec;
        rec.on = true;
        for (const Reply &r : loop.replies) {
            const int tid = 2 + r.client;
            rec.add("op", r.index, 0, r.submitUs, r.replyUs - r.submitUs,
                    tid);
            rec.add("service.submit", r.index, 1, r.submitUs,
                    r.submittedUs - r.submitUs, tid);
            rec.add("service.execute", r.index, 1, r.submittedUs,
                    r.replyUs - r.submittedUs, tid);
        }
        LayerCounts lc;
        std::vector<double> overhead =
            replayStandalone(s, loop, o.seconds / 3, rec, lc);

        // Busy-time shares: the replayed layers against the summed
        // client latency of the replayed requests; the rest is service
        // (admission, queueing, worker hand-off, serialization).
        std::map<std::string, double> shares;
        double replayed_ms = 0.0;
        for (size_t i = 0; i < overhead.size(); ++i)
            replayed_ms += latencyMs(loop.replies[i]);
        double attributed = 0.0;
        for (const Span &sp : rec.spans())
            if (sp.tid == 1 && sp.depth == 1 &&
                sp.name != "lang.tokenize" && sp.name != "sim.compact" &&
                sp.name != "sim.fusion_plan") {
                shares[layerOf(sp.name)] += ratio(sp.durUs / 1e3, replayed_ms);
                attributed += sp.durUs / 1e3;
            }
        shares["service"] = ratio(replayed_ms - attributed, replayed_ms);
        addLayerMetrics(m, rec, lc, s.sched.ms, shares);

        auto med_kind = [&](ReqKind k) { return median(byKind[k]); };
        m.add("service.request_ms.compile_hit",
              med_kind(ReqKind::CompileHit), "ms");
        m.add("service.request_ms.compile_miss",
              med_kind(ReqKind::CompileMiss), "ms");
        m.add("service.request_ms.simulate", med_kind(ReqKind::Simulate),
              "ms");
        m.add("service.cache_hit_frac",
              ratio(static_cast<double>(stats.cache.hits -
                                        before.cache.hits),
                    static_cast<double>(stats.cache.lookups -
                                        before.cache.lookups)),
              "frac");
        m.add("service.cache_evictions",
              static_cast<double>(stats.cache.evictions -
                                  before.cache.evictions),
              "count");
        m.add("service.queue_depth_max", loop.queueDepthMax, "count");
        m.add("service.rejected",
              static_cast<double>(stats.rejected - before.rejected),
              "count");
        m.add("service.reply_bytes",
              ratio(reply_bytes, static_cast<double>(e.ops)), "bytes");
        m.add("service.overhead_ms", median(overhead), "ms");

        // Request spans are assembled after the loop, so the traced
        // phase differs from the untraced ones only by queue-depth
        // sampling, which slows triqd_mixed's generator: fewer requests
        // then wait in the queue, so latency drops while throughput
        // falls. Concurrent requests cannot be paired one to one; the
        // overhead is the phases' difference in measured time per
        // request.
        const auto per_op_ms = [](const TriqdLoop &l) {
            return ratio(l.wallS * 1e3, static_cast<double>(l.measured));
        };
        m.add("trace.overhead_ms", per_op_ms(loop) - per_op_ms(plain), "ms");
        m.add("trace.overhead_frac",
              ratio(per_op_ms(loop), per_op_ms(plain)) - 1.0, "frac");
        m.add("trace.paired_ops", static_cast<double>(plain.measured),
              "count");
        if (!o.traceOut.empty() && !rec.writeChrome(o.traceOut))
            fatal("e2ebench: cannot write ", o.traceOut);
    }

    JsonWriter x;
    x.beginObject();
    x.key("requests").value(attempted);
    x.key("distinct_cells")
        .value(static_cast<long>(checker.cells().size()));
    x.key("clients").value(clients);
    x.key("pinned_cpu").value(pinned_cpu);
    x.key("server_workers").value(s.server->config().workers);
    x.key("cache_hits").value(stats.cache.hits);
    x.key("cache_lookups").value(stats.cache.lookups);
    x.key("sched_calib").value(s.sched.calib);
    x.endObject();
    s.server->drain();
    res.detail = detailJson(e, "\"workload\": " + x.str());
    res.attempted = e.attempted;
    res.failed = e.failed;
    res.metrics = std::move(m.out);
    res.outputsDigest = std::to_string(outputs.value());
    return res;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig07_fullstack", "compile_grid", "fig13_mapper", "triqd_serial",
        "triqd_mixed"};
    return names;
}

Result
runWorkload(const Options &o)
{
    if (o.workload == "triqd_serial" || o.workload == "triqd_mixed")
        return runTriqdWorkload(o, o.workload == "triqd_serial");
    return runSerialWorkload(o);
}

} // namespace e2e
