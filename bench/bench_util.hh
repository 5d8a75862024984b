/**
 * @file
 * Shared plumbing for the figure-reproduction harnesses (device lookup,
 * compile-and-execute helpers, consistent run configuration) and the
 * one harness every micro_* bench runs on: the rotated min-over-reps
 * timer, the JSON report and the mapping from a bench's verdict to its
 * exit code. The benches read their flags through triq::Flags
 * (common/flags.hh) and build their reports with JsonWriter
 * (common/json.hh), the same parser and codec the CLI tools use.
 *
 * Environment knobs:
 *   TRIQ_TRIALS       trials per success-rate measurement (default
 *                     1000; the paper used 8192 / 5000 on hardware)
 *   TRIQ_DAY          calibration day index (default 3)
 *   TRIQ_SIM_THREADS  executor worker threads (default 1). Success
 *                     rates and histograms are bit-identical for any
 *                     value; only wall-clock time changes.
 */

#ifndef TRIQ_BENCH_BENCH_UTIL_HH
#define TRIQ_BENCH_BENCH_UTIL_HH

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/json.hh"
#include "core/compiler.hh"
#include "device/machines.hh"
#include "service/sweep.hh"
#include "sim/executor.hh"

namespace triq
{
namespace bench
{

/** Resolve one of the seven study devices by name. */
Device deviceByName(const std::string &name);

/** Calibration day index (TRIQ_DAY env, default 3). */
int defaultDay();

/**
 * The harness's process-wide compile memo. Every compile issued
 * through compileTriq/runTriq lands here, so a figure that evaluates
 * the same (program, device, day, level) cell twice — or two panels
 * that share cells — compiles it once. TRIQ_CACHE=0 bypasses it
 * (every call compiles cold).
 */
CompileCache &processCompileCache();

/**
 * Compile `program` for `dev` at `level` against day `day`'s
 * calibration, memoized in processCompileCache(). Cache hits are
 * bit-identical to a cold compile (the service-layer determinism
 * contract), so figures may use this freely.
 */
CompileResult compileTriq(const Circuit &program, const Device &dev,
                          OptLevel level, int day);

/**
 * Run `row(name, program)` for every study benchmark that fits on
 * `dev`, and `skip(name)` (when non-null) for each one too large —
 * the figures' shared "X" table convention.
 */
void forEachStudyBenchmark(
    const Device &dev,
    const std::function<void(const std::string &, const Circuit &)> &row,
    const std::function<void(const std::string &)> &skip = nullptr);

/** Improvement-ratio accumulator for the figures' summary lines. */
class Ratios
{
  public:
    /** Record a ratio; non-positive values (failed runs) are dropped. */
    void add(double r);

    /** "geomean: 1.4x  max: 2.8x" over everything recorded. */
    std::string summary() const;

  private:
    std::vector<double> ratios_;
};

/** A compiled-and-executed experiment point. */
struct RunPoint
{
    CompileResult compiled;
    ExecutionResult executed;
};

/**
 * Compile `program` for `dev` at `level` against day `day`'s
 * calibration, then execute it noisily on the same calibration.
 */
RunPoint runTriq(const Circuit &program, const Device &dev, OptLevel level,
                 int day, int trials);

/**
 * Execute an externally compiled result (e.g. a vendor baseline)
 * against day `day`'s calibration.
 */
ExecutionResult runCompiled(const CompileResult &res, const Device &dev,
                            int day, int trials);

/** Success-rate cell: "0.87" or "0.12*" when not modal (paper: failed). */
std::string successCell(const ExecutionResult &ex);

/**
 * The reference trajectory sampler that tests and micro_fusion hold
 * executeNoisy against: serial and per trial, each faulty trial
 * replayed gate by gate from |0...0> with no fusion, checkpoints,
 * pattern dedup or threads. It consumes each chunk's Rng::stream in
 * the sampling contract's per-trial order (sim/executor.hh), so its
 * histogram is executeNoisy's up to floating-point reassociation in
 * the fused kernels (~1e-15 per gate): equal in practice, but an
 * empirical equality, not a bitwise one. simulatedTrajectories counts
 * the faulty trials (each replays on its own); successRate,
 * correctOutcome, correctIsModal, esp and noErrorProb mean what they
 * mean in executeNoisy.
 */
ExecutionResult referenceExecute(const Circuit &hw, const Device &dev,
                                 const Calibration &calib, int trials,
                                 uint64_t seed = 12345);

// ---------------------------------------------------------------------
// The micro-bench harness.

/**
 * The micro benches' one timing protocol. `modes` competing
 * configurations run for `reps` rounds with the order rotated every
 * round (a fixed order biases whichever mode runs after a threaded one
 * wakes the pool workers), and each mode keeps its minimum, so one-time
 * effects (pool spawn, allocator warm-up) and scheduler noise cannot
 * bias a single mode. `timed(mode)` is the timed work; `after(mode,
 * rep)`, when given, runs untimed right after it (result checks).
 * @return Per-mode minimum wall time in milliseconds.
 */
std::vector<double>
rotatedMinMs(int modes, int reps, const std::function<void(int)> &timed,
             const std::function<void(int, int)> &after = nullptr);

/** The two bounds of a "candidate never loses to serial" gate. */
struct LossGate
{
    double tolerance = 0.90;   //!< Minimum baseline/candidate ratio.
    double noiseFloorMs = 1.0; //!< Losses below this are timer noise.
};

/**
 * What a micro bench's checks found, and the exit code it maps to:
 * 0 pass, 1 fatal (a FatalError escaped main), 4 breach, 5 warm
 * recompile, 6 perf-gate failure. When several fire the lowest code
 * wins, so a determinism breach is never reported as a mere perf
 * regression. Every finding prints one line on stderr.
 */
class Verdict
{
  public:
    static constexpr int kPass = 0;
    static constexpr int kFatal = 1;
    static constexpr int kBreach = 4;
    static constexpr int kWarmRecompile = 5;
    static constexpr int kGateFail = 6;

    explicit Verdict(std::string prog) : prog_(std::move(prog)) {}

    /**
     * Exit 4: results diverged between modes, a search proved
     * unsound, or micro_governor's hard admission ceiling broke.
     */
    void breach(const std::string &what) { record(kBreach, "BREACH", what); }

    /** Exit 5: a warm pass over a filled cache compiled something. */
    void
    warmRecompile(const std::string &what)
    {
        record(kWarmRecompile, "WARM", what);
    }

    /** Exit 6: a perf gate failed. */
    void gateFail(const std::string &what) { record(kGateFail, "GATE", what); }

    /**
     * The timing gate: exit 6 when `candidate_ms` loses to
     * `baseline_ms` beyond both bounds of `gate` — the speedup
     * baseline/candidate is below the tolerance AND the absolute loss
     * is above the noise floor. A row with `gated` false (the planner
     * kept it serial, so both timings ran the same code) only reports.
     * @return false when the row failed the gate.
     */
    bool checkLoss(const LossGate &gate, const std::string &row,
                   double baseline_ms, double candidate_ms,
                   bool gated = true);

    bool breached() const { return codes_.count(kBreach) > 0; }
    bool gatePassed() const { return codes_.count(kGateFail) == 0; }
    int exitCode() const { return codes_.empty() ? kPass : *codes_.begin(); }

  private:
    void record(int code, const char *tag, const std::string &what);

    std::string prog_;
    std::set<int> codes_; //!< Exit codes of the findings so far.
};

/**
 * Write a bench's JSON report to stdout and, when `path` is non-empty,
 * to `path` (fatal when it cannot be written).
 */
void writeReport(const std::string &prog, const JsonWriter &report,
                 const std::string &path);

/** `a / b`, or 0 when `b` is not positive (a missing timing). */
double ratio(double a, double b);

} // namespace bench
} // namespace triq

#endif // TRIQ_BENCH_BENCH_UTIL_HH
