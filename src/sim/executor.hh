/**
 * @file
 * The noisy executor: the repo's substitute for launching a compiled
 * program on one of the paper's seven machines (Sec. 5, "Real-System
 * QC Experiments"). Runs many trials of a translated hardware circuit
 * under the stochastic-Pauli noise model and reports the success rate —
 * the fraction of trials returning the benchmark's correct answer.
 *
 * Performance architecture (see DESIGN.md, "Simulator performance
 * architecture"): one trajectory engine, fault-pattern deduplication.
 *  - the circuit is compacted onto its active qubits and trials in
 *    which no error site fires reuse the cached ideal state;
 *  - every trial's randomness is pre-drawn from its chunk's RNG stream
 *    (the sampling contract below), so results are bit-identical for
 *    any thread count (TRIQ_SIM_THREADS; 0 = let the common/sched.hh
 *    cost model decide serial vs. threaded);
 *  - trials are grouped by identical fault pattern and each distinct
 *    pattern is simulated once; all of its trials' measurement
 *    samples come from the shared final state;
 *  - a pattern's replay resumes from the nearest ideal-prefix
 *    checkpoint before its first fired error site, or from a snapshot
 *    of the longest injection prefix it shares with the previous
 *    pattern, instead of from |0...0>;
 *  - gate fusion (sim/fusion.hh) rewrites the compact circuit into
 *    fused kernels so each replay makes fewer passes over the state.
 */

#ifndef TRIQ_SIM_EXECUTOR_HH
#define TRIQ_SIM_EXECUTOR_HH

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/sched.hh"
#include "core/circuit.hh"
#include "device/device.hh"

namespace triq
{

/**
 * The sampling contract. Trials are cut into chunks of
 * kTrialChunkSize; trial t belongs to chunk t / kTrialChunkSize, and
 * chunk ci draws from Rng::stream(trialStreamSeed(seed), ci). Within
 * a chunk, trials draw in trial order, and each trial draws:
 *  1. one Bernoulli per error site, in site order (collectErrorSites
 *     order, relabeled onto the compact register);
 *  2. for each fired site in injection order — ascending (gateIdx,
 *     site index) — its Pauli: nothing for an idle site (always Z),
 *     uniformInt(3) for a 1Q site (0 X, 1 Y, 2 Z), 1 + uniformInt(15)
 *     for a 2Q site (two base-4 digits, the low one on q0, each
 *     0 I, 1 X, 2 Y, 3 Z);
 *  3. one measurement uniform, mapped to a basis index by the
 *     cumulative scan of StateVector::sampleMeasurement over the
 *     trial's final state (the cached ideal state when no site fired);
 *  4. one Bernoulli per measured qubit, in ascending measured order,
 *     each flipping that outcome bit (readout error).
 * Changing either value below changes which random numbers each trial
 * sees.
 */
constexpr int kTrialChunkSize = 64;

/** The stream seed of the chunk streams (see kTrialChunkSize). */
constexpr uint64_t
trialStreamSeed(uint64_t seed)
{
    return seed ^ 0xABCDEF1234567890ull;
}

/** Outcome of a noisy execution campaign. */
struct ExecutionResult
{
    /** Fraction of trials that produced the correct answer. */
    double successRate = 0.0;

    /** Correct answer over the measured qubits (ascending order). */
    uint64_t correctOutcome = 0;

    /** Trials run. */
    int trials = 0;

    /** Analytic ESP prediction for cross-checking. */
    double esp = 0.0;

    /** Probability that a trial contains no fault at all. */
    double noErrorProb = 0.0;

    /**
     * Distinct state-vector trajectories simulated: the number of
     * *distinct non-empty fault patterns* among the trials.
     */
    int simulatedTrajectories = 0;

    /**
     * True when the correct answer dominated the observed output
     * distribution. The paper plots runs where it did not as failures
     * (zero-height bars).
     */
    bool correctIsModal = false;

    /**
     * Observed outcome counts over the measured qubits (ascending
     * hardware order defines key bits). Lets variational workloads
     * (QAOA, VQE-style) evaluate expectation values instead of a
     * single-answer success rate. Unordered for hot-loop speed; use
     * sortedHistogram() wherever counts are printed or summed in a
     * reproducible order.
     */
    std::unordered_map<uint64_t, int> histogram;

    /**
     * The scheduler's plan for the dominant simulation phase (the
     * trajectory fan-out): mode, thread count, items per task, and
     * predicted vs. actual wall clock. Purely observational — results
     * are bit-identical whatever the scheduler chose.
     */
    SchedDecision sched;

    /** Histogram entries sorted by ascending outcome key. */
    std::vector<std::pair<uint64_t, int>> sortedHistogram() const;
};

/**
 * Threading knobs for executeNoisy; the defaults read the env knobs.
 * Neither changes a result, only wall-clock time.
 */
struct ExecOptions
{
    /**
     * Worker threads for the presampling and pattern-group fan-outs.
     * > 0 forces that many workers (1 = true serial path, no pool is
     * constructed); < 0
     * requests adaptive mode (the common/sched.hh cost model decides
     * serial vs. threaded per phase and batches pool tasks to amortize
     * dispatch); 0 reads TRIQ_SIM_THREADS, where 0 likewise means
     * adaptive and unset defaults to 1 (serial). Results are
     * bit-identical for every value — threads only change wall-clock
     * time.
     */
    int threads = 0;

    /**
     * Intra-state kernel threading: how each gate kernel shards its
     * amplitude loops (see StateVector::setKernelThreads). > 0 forces
     * that many workers (1 = true serial kernels); < 0 requests
     * adaptive mode (the cost model decides per pass, so small
     * registers stay serial); 0 reads TRIQ_KERNEL_THREADS, where 0
     * likewise means adaptive and unset defaults to 1.
     *
     * Kernel threading and the trajectory fan-out share the process
     * pool, so they never stack: phases whose trajectory plan is
     * threaded run their kernels serially, and phases that run
     * trajectories serially (including the governor's low-memory
     * degraded plan) shard the kernels instead. Either way the state
     * footprint is unchanged and results are bit-identical.
     */
    int kernelThreads = 0;
};

/**
 * Execute a translated hardware circuit under noise.
 *
 * @param hw Translated circuit over hardware qubits (must measure at
 *           least one qubit; all measurements must be terminal).
 * @param dev The device it was compiled for (topology + durations).
 * @param calib Calibration snapshot to draw error rates from — use the
 *              same "day" the compiler saw for a fair experiment, or a
 *              different one to study staleness.
 * @param trials Number of repetitions (the paper uses 8192 on
 *               superconducting machines, 5000 on UMDTI).
 * @param seed RNG seed; fixed seeds make experiments reproducible.
 * @param opts Threading knobs (trajectory and kernel threads).
 *
 * @note Circuits without a dominant ideal outcome (variational
 *       workloads like QAOA) trigger a one-line advisory per call;
 *       use the histogram field for their figure of merit and
 *       setQuiet(true) to silence the advisory.
 */
ExecutionResult executeNoisy(const Circuit &hw, const Device &dev,
                             const Calibration &calib, int trials,
                             uint64_t seed = 12345,
                             const ExecOptions &opts = {});

/**
 * Default trial count for experiment harnesses: reads the TRIQ_TRIALS
 * environment variable, falling back to `fallback`.
 */
int defaultTrials(int fallback = 1000);

/**
 * Default simulation thread count: reads the TRIQ_SIM_THREADS
 * environment variable, falling back to `fallback` (serial).
 * TRIQ_SIM_THREADS=0 returns 0, meaning "adaptive": the cost model in
 * common/sched.hh picks serial or threaded per job.
 */
int defaultSimThreads(int fallback = 1);

/**
 * Default intra-state kernel thread count: reads the
 * TRIQ_KERNEL_THREADS environment variable, falling back to `fallback`
 * (1 = serial kernels). TRIQ_KERNEL_THREADS=0 returns 0, meaning
 * "adaptive": the common/sched.hh cost model picks serial or threaded
 * per kernel pass.
 */
int defaultKernelThreads(int fallback = 1);

/**
 * Re-order an outcome key from the executor's hardware-measured-qubit
 * order into *program*-qubit order.
 *
 * The executor keys outcomes by ascending measured hardware qubit. To
 * compare against program semantics (e.g. BV's hidden string), bit k of
 * the program outcome must be read from wherever the router left
 * program qubit `prog_measured[k]` — its entry in `final_map`.
 *
 * @param key Outcome from ExecutionResult (hardware order).
 * @param hw The compiled circuit the outcome came from.
 * @param final_map CompileResult::finalMap (program -> hardware).
 * @param prog_measured Measured qubits of the *source* program.
 */
uint64_t outcomeForProgram(uint64_t key, const Circuit &hw,
                           const std::vector<HwQubit> &final_map,
                           const std::vector<ProgQubit> &prog_measured);

} // namespace triq

#endif // TRIQ_SIM_EXECUTOR_HH
