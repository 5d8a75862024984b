#include "sim/executor.hh"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/resource.hh"
#include "common/rng.hh"
#include "common/sched.hh"
#include "common/thread_pool.hh"
#include "core/esp.hh"
#include "sim/compact.hh"
#include "sim/fusion.hh"
#include "sim/noise.hh"
#include "sim/sim_cost.hh"
#include "sim/statevector.hh"

namespace triq
{

namespace
{

/** Milliseconds since `t0`. */
double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Execute `items` indexed work items per the scheduler's plan: the
 * true serial loop when the plan says serial (no pool is touched),
 * otherwise batched ranges on the shared process pool. The RNG
 * chunking is fixed upstream of this choice, so the plan can never
 * change a result — only its wall-clock time.
 */
void
runPerPlan(const SchedDecision &dec, int items,
           const std::function<void(int)> &fn)
{
    if (!dec.threaded) {
        for (int i = 0; i < items; ++i)
            fn(i);
        return;
    }
    ThreadPool &pool = processPool(dec.threads);
    parallelForRanges(pool, items, dec.itemsPerTask,
                      [&fn](int lo, int hi) {
                          for (int i = lo; i < hi; ++i)
                              fn(i);
                      });
}

/** Histograms this narrow are tallied in a flat count vector. */
constexpr size_t kFlatHistogramBits = 12;

/** Snapshot memory budget for automatic checkpoint spacing. */
constexpr uint64_t kCheckpointBudgetBytes = 64ull << 20;

/** Map a sampled basis index to the measured-qubit key. */
uint64_t
outcomeKey(uint64_t basis, const std::vector<ProgQubit> &measured)
{
    uint64_t key = 0;
    for (size_t k = 0; k < measured.size(); ++k)
        key |= ((basis >> measured[k]) & 1) << k;
    return key;
}

/** An ideal-evolution snapshot taken after `gatesApplied` gates. */
struct Checkpoint
{
    int gatesApplied;
    StateVector state;
};

/** Read-only per-call context shared by every chunk and group slice. */
struct TrajectoryContext
{
    const Circuit *circuit; // compact circuit
    const std::vector<ErrorSite> *sites;
    const std::vector<int> *injOrder; // site indices by (gateIdx, index)
    const std::vector<double> *roErr;
    const StateVector *ideal;
    const std::vector<Checkpoint> *checkpoints; // ascending gatesApplied
    const FusedProgram *fused;

    /**
     * LCP snapshot levels per group slice that the run's reservation
     * already covers: 1 under the full plan (predictSimulationBytes
     * charges one snapshot per worker), 0 under the low-memory plan
     * (ideal + one trajectory state). runGroupSlice reserves every
     * deeper level against the governor before allocating it.
     */
    int coveredSnapshotLevels = 1;

    /**
     * Kernel-thread setting for trajectory states (see
     * StateVector::setKernelThreads). Must be 1 whenever the
     * trajectory fan-out itself is threaded: slice workers live on the
     * shared process pool and pool jobs must not submit to it. The
     * fan-out planner sets this per phase.
     */
    int kernelThreads = 1;
};

/**
 * Draw the Pauli choice for a fired site. Idle sites deterministically
 * inject Z (pure dephasing) and consume no randomness; 1Q sites draw a
 * uniform X/Y/Z; 2Q sites draw a uniform non-identity two-qubit Pauli
 * (index 1..15 in base 4). The returned code fits in 5 bits.
 */
int
drawPauliCode(Rng &rng, const ErrorSite &s)
{
    if (s.idle)
        return 0;
    if (s.q1 == -1)
        return rng.uniformInt(3);
    return 1 + rng.uniformInt(15);
}

/** Inject the Pauli a (site, code) pair denotes. */
void
injectPauli(StateVector &sv, const ErrorSite &s, int code)
{
    auto pauli1 = [&](int q, int which) {
        switch (which) {
          case 0:
            sv.applyX(q);
            break;
          case 1:
            sv.applyY(q);
            break;
          default:
            sv.applyZ(q);
            break;
        }
    };
    if (s.idle) {
        sv.applyZ(s.q0);
        return;
    }
    if (s.q1 == -1) {
        pauli1(s.q0, code);
        return;
    }
    int p0 = code & 3, p1 = (code >> 2) & 3;
    if (p0 != 0)
        pauli1(s.q0, p0 - 1);
    if (p1 != 0)
        pauli1(s.q1, p1 - 1);
}

/**
 * Seek the last ideal-prefix checkpoint at or before `first_gate` and
 * load it into `sv` (or reset to |0...0>). The prefix is fault-free, so
 * its evolution is identical to a full replay's.
 * @return Number of gates already applied to `sv`.
 */
int
seekCheckpoint(const TrajectoryContext &ctx, StateVector &sv,
               int first_gate)
{
    const std::vector<Checkpoint> &ckpts = *ctx.checkpoints;
    auto it = std::upper_bound(
        ckpts.begin(), ckpts.end(), first_gate,
        [](int g, const Checkpoint &c) { return g < c.gatesApplied; });
    if (it != ckpts.begin()) {
        const Checkpoint &c = *std::prev(it);
        sv.amps() = c.state.amps();
        return c.gatesApplied;
    }
    sv.reset();
    return 0;
}

/**
 * Flat per-trial randomness the engine pre-draws. The draws are
 * consumed from each trial's RNG position in the sampling contract's
 * order (executor.hh: site Bernoullis, Pauli codes in injection order,
 * one measurement uniform, readout flips), so grouping trials
 * afterwards cannot change any trial's randomness. Fault patterns —
 * fired (site << 5 | code)
 * words in injection order — are stored back to back per chunk, so
 * presampling a trial allocates nothing.
 */
struct PresampledDraws
{
    std::vector<std::vector<uint32_t>> chunkWords; //!< Patterns, per chunk.
    std::vector<int> patternLen;                   //!< Per trial.
    std::vector<int> firstGate; //!< Per trial; INT_MAX = fault-free.
    std::vector<double> u;      //!< Per trial: measurement uniform.
    std::vector<uint64_t> flips; //!< Per trial: readout-flip mask.
};

/** Pre-draw one chunk of trials [lo, lo+n) into `words` and `out`. */
void
presampleChunk(const TrajectoryContext &ctx, Rng rng, int lo, int n,
               std::vector<uint32_t> &words, PresampledDraws &out)
{
    const std::vector<ErrorSite> &sites = *ctx.sites;
    const std::vector<double> &ro_err = *ctx.roErr;
    std::vector<bool> fired(sites.size(), false);
    for (int t = lo; t < lo + n; ++t) {
        bool any = false;
        int first_gate = INT_MAX;
        for (size_t i = 0; i < sites.size(); ++i) {
            fired[i] = rng.bernoulli(sites[i].prob);
            if (fired[i]) {
                any = true;
                first_gate = std::min(first_gate, sites[i].gateIdx);
            }
        }
        int len = 0;
        if (any)
            for (int si : *ctx.injOrder) {
                if (!fired[static_cast<size_t>(si)])
                    continue;
                int code = drawPauliCode(
                    rng, sites[static_cast<size_t>(si)]);
                words.push_back((static_cast<uint32_t>(si) << 5) |
                                static_cast<uint32_t>(code));
                ++len;
            }
        out.patternLen[static_cast<size_t>(t)] = len;
        out.firstGate[static_cast<size_t>(t)] = first_gate;
        out.u[static_cast<size_t>(t)] = rng.uniform();
        uint64_t fl = 0;
        for (size_t k = 0; k < ro_err.size(); ++k)
            if (rng.bernoulli(ro_err[k]))
                fl ^= uint64_t{1} << k;
        out.flips[static_cast<size_t>(t)] = fl;
    }
}

/** FNV-1a over a fault pattern's raw words. */
uint64_t
patternHash(const uint32_t *p, int n)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (int i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/** One distinct fault pattern and the trials that drew it. */
struct PatternGroup
{
    const uint32_t *pattern = nullptr; //!< Into PresampledDraws words.
    int patternLen = 0;
    int firstGate = INT_MAX;
    std::vector<int> trials; // ascending
};

/** Length of the common (site, code) prefix of two fault patterns. */
int
patternLcp(const uint32_t *a, int la, const uint32_t *b, int lb)
{
    int n = std::min(la, lb), k = 0;
    while (k < n && a[k] == b[k])
        ++k;
    return k;
}

/**
 * Sample every member trial's measurement from the group's final state.
 *
 * Sampling stays bit-identical to per-trial sampleMeasurement(u): the
 * member uniforms are sorted and assigned in one cumulative scan whose
 * accumulation order (basis index ascending) matches the per-trial
 * scan, so each uniform maps to exactly the basis index it would have
 * mapped to alone.
 */
void
sampleGroupTrials(const StateVector &state, const PatternGroup &group,
                  const PresampledDraws &draws,
                  std::vector<uint64_t> &basis_of)
{
    std::vector<std::pair<double, int>> us;
    us.reserve(group.trials.size());
    for (int t : group.trials)
        us.emplace_back(draws.u[static_cast<size_t>(t)], t);
    std::sort(us.begin(), us.end());

    const std::vector<Cplx> &amps = state.amps();
    const uint64_t dim = state.dim();
    size_t p = 0;
    double acc = 0.0;
    for (uint64_t i = 0; i < dim && p < us.size(); ++i) {
        acc += std::norm(amps[i]);
        while (p < us.size() && us[p].first < acc)
            basis_of[static_cast<size_t>(us[p++].second)] = i;
    }
    while (p < us.size())
        basis_of[static_cast<size_t>(us[p++].second)] = dim - 1;
}

/**
 * Simulate a contiguous slice of pattern-sorted groups, sharing state
 * between patterns with a common injection prefix.
 *
 * `order` lists group indices sorted lexicographically by pattern
 * content, so patterns that start with the same (site, code) injections
 * sit next to each other. While replaying a pattern the slice snapshots
 * the state after each injection it still shares with the *next*
 * pattern; that pattern then resumes from the deepest shared snapshot
 * instead of replaying the common prefix again. A snapshot is a copy of
 * exactly the state a from-scratch replay would reach (the prefix
 * determines the checkpoint seek, every advance and every injection),
 * so the reuse is bitwise invisible — results do not depend on slice
 * boundaries, thread count or snapshot depth.
 *
 * Snapshot memory: the run's reservation covers
 * ctx.coveredSnapshotLevels levels per worker; every deeper level
 * reserves its own state against the process governor before it is
 * allocated. When the governor refuses one, the depth stays capped for
 * the rest of the slice and patterns resume from the deepest held
 * snapshot.
 */
void
runGroupSlice(const TrajectoryContext &ctx,
              const std::vector<PatternGroup> &groups,
              const std::vector<int> &order, size_t lo, size_t hi,
              const PresampledDraws &draws, std::vector<uint64_t> &basis_of)
{
    const std::vector<ErrorSite> &sites = *ctx.sites;
    const int nq = ctx.circuit->numQubits();
    StateVector traj(nq);
    traj.setKernelThreads(ctx.kernelThreads);
    // Declared before `snaps` so the states are freed before their
    // reservations are returned.
    std::vector<MemReservation> deep_holds; // levels past the covered ones
    std::vector<StateVector> snaps; // state after injection k
    std::vector<int> snapPos;       // gates applied at that point
    int depth_cap = INT_MAX;        // snaps.size() at the first refusal
    int valid_depth = 0;            // prefix of snaps shared with `traj`'s
                                    // last pattern that is still live

    for (size_t p = lo; p < hi; ++p) {
        const PatternGroup &group = groups[static_cast<size_t>(order[p])];
        if (group.patternLen == 0) {
            // Fault-free pattern (sorts first): sample the cached ideal.
            sampleGroupTrials(*ctx.ideal, group, draws, basis_of);
            valid_depth = 0;
            continue;
        }
        int next_lcp = 0;
        if (p + 1 < hi) {
            const PatternGroup &next =
                groups[static_cast<size_t>(order[p + 1])];
            next_lcp = patternLcp(group.pattern, group.patternLen,
                                  next.pattern, next.patternLen);
        }
        const int want = std::min(next_lcp, depth_cap);
        while (static_cast<int>(snaps.size()) < want) {
            if (static_cast<int>(snaps.size()) >=
                ctx.coveredSnapshotLevels) {
                MemReservation hold = MemReservation::tryReserve(
                    processGovernor(), stateVectorBytes(nq));
                if (hold.bytes() == 0) {
                    depth_cap = static_cast<int>(snaps.size());
                    break;
                }
                deep_holds.push_back(std::move(hold));
            }
            snaps.emplace_back(nq);
            snapPos.push_back(0);
        }
        // Levels shared with the next pattern that a snapshot can hold.
        const int keep = std::min(next_lcp, static_cast<int>(snaps.size()));

        int pos;
        int resume = std::min(valid_depth, group.patternLen);
        if (resume > 0) {
            traj.amps() = snaps[static_cast<size_t>(resume - 1)].amps();
            pos = snapPos[static_cast<size_t>(resume - 1)];
        } else {
            pos = seekCheckpoint(ctx, traj, group.firstGate);
        }
        for (int k = resume; k < group.patternLen; ++k) {
            const uint32_t entry = group.pattern[k];
            const ErrorSite &s = sites[entry >> 5];
            ctx.fused->apply(traj, pos, s.gateIdx + 1);
            pos = std::max(pos, s.gateIdx + 1);
            injectPauli(traj, s, static_cast<int>(entry & 31u));
            if (k < keep) {
                snaps[static_cast<size_t>(k)].amps() = traj.amps();
                snapPos[static_cast<size_t>(k)] = pos;
            }
        }
        ctx.fused->apply(traj, pos, ctx.circuit->numGates());
        sampleGroupTrials(traj, group, draws, basis_of);
        valid_depth = keep;
    }
}

/**
 * The executeNoisy body. `planned_bytes` reports the reservation the
 * run held, so the public wrapper can attribute a std::bad_alloc that
 * escapes any allocation in here (including ones rethrown from pool
 * workers) to a sized, structured ResourceError.
 */
ExecutionResult
executeNoisyImpl(const Circuit &hw, const Device &dev,
                 const Calibration &calib, int trials, uint64_t seed,
                 const ExecOptions &opts, uint64_t &planned_bytes)
{
    if (trials < 1)
        fatal("executeNoisy: need at least one trial");
    if (hw.numQubits() != dev.numQubits())
        fatal("executeNoisy: circuit width ", hw.numQubits(),
              " does not match device ", dev.name());

    // Never trust the calibration feed: a NaN or negative rate here
    // would silently poison every Bernoulli draw, and an undersized
    // vector would read out of bounds below.
    Calibration safe = calib;
    {
        Diagnostics cdiags("calibration");
        int repairs =
            safe.validate(dev.topology(), ValidateMode::Sanitize, cdiags);
        cdiags.throwIfErrors("executeNoisy: unusable calibration for " +
                             dev.name());
        if (repairs > 0)
            warn("executeNoisy: sanitized ", repairs,
                 " invalid calibration value(s)");
    }

    // Error sites are enumerated on the full-width circuit (edge lookup
    // needs hardware indices), then relabeled onto the compact register.
    std::vector<ErrorSite> sites =
        collectErrorSites(hw, dev.topology(), safe);
    CompactCircuit cc = compactCircuit(hw);
    for (auto &s : sites) {
        s.q0 = cc.hwToCompact[static_cast<size_t>(s.q0)];
        if (s.q1 != -1)
            s.q1 = cc.hwToCompact[static_cast<size_t>(s.q1)];
    }

    std::vector<ProgQubit> measured = cc.circuit.measuredQubits();
    if (measured.empty())
        fatal("executeNoisy: circuit measures no qubits");
    std::vector<double> ro_err(measured.size());
    for (size_t k = 0; k < measured.size(); ++k) {
        HwQubit hq = cc.compactToHw[static_cast<size_t>(measured[k])];
        ro_err[k] = safe.errRO[static_cast<size_t>(hq)];
    }

    // Thread request: > 0 forces that many workers (1 = true serial
    // path), < 0 is adaptive; 0 defers to TRIQ_SIM_THREADS where 0
    // again means adaptive. After this block, 0 = adaptive.
    int threads_req = opts.threads;
    if (threads_req == 0)
        threads_req = defaultSimThreads(1);
    if (threads_req < 0)
        threads_req = 0;

    // Intra-state kernel threading, same convention. Kernel sharding
    // adds no state copies (workers write disjoint slices of the one
    // state), so it is orthogonal to the memory plan below.
    int kernel_threads = opts.kernelThreads;
    if (kernel_threads == 0)
        kernel_threads = defaultKernelThreads(1);
    if (kernel_threads < 0)
        kernel_threads = 0;

    // Reserve the run's predicted peak memory against the process
    // budget before the first state vector exists. When the full plan
    // does not fit, degrade to the low-memory plan (serial, no
    // checkpoints, ideal + one trajectory state, every LCP snapshot
    // reserved on its own) before giving up; only when even that
    // cannot fit does the reservation throw a structured ResourceError.
    ResourceGovernor &gov = processGovernor();
    const int active_qubits = cc.circuit.numQubits();
    const int planned_workers =
        threads_req > 0 ? threads_req
                        : std::max(schedCalib().hardwareThreads, 1);
    bool low_mem = false;
    planned_bytes = predictSimulationBytes(active_qubits, planned_workers);
    MemReservation reservation;
    try {
        reservation = MemReservation(gov, planned_bytes,
                                     "simulation of " + hw.name());
    } catch (const ResourceError &) {
        planned_bytes = predictLowMemSimulationBytes(active_qubits);
        reservation = MemReservation(
            gov, planned_bytes, "low-memory simulation of " + hw.name());
        low_mem = true;
        threads_req = 1;
        warn("executeNoisy: memory budget ",
             formatBytes(gov.budgetBytes()), " forces the low-memory ",
             "plan for ", hw.name(), " (serial trajectories, no ",
             "checkpoints, snapshots only as the budget allows; kernel ",
             "threading unaffected — it adds no state copies)");
    }

    // Ideal reference evolution, snapshotted every K gates so faulty
    // trajectories can resume mid-circuit. K is chosen so the snapshots
    // stay within a fixed memory budget (the low-memory plan takes
    // none); the final state doubles as the fault-free sampling cache
    // and the benchmark's correct answer. The ideal pass stays gate by
    // gate, so the checkpoints and the fault-free sampling cache do
    // not depend on how the fusion pass groups gates.
    const int num_gates = cc.circuit.numGates();
    StateVector ideal(cc.circuit.numQubits());
    // The ideal evolution runs on the control thread, so it may always
    // shard its kernels; on small registers the adaptive plan (and the
    // serial default) keeps it serial.
    ideal.setKernelThreads(kernel_threads);
    int interval = 0; // 0 = no checkpoints
    if (!low_mem) {
        uint64_t bytes_per = ideal.dim() * sizeof(Cplx);
        int max_ckpts = static_cast<int>(std::clamp<uint64_t>(
            kCheckpointBudgetBytes / std::max<uint64_t>(bytes_per, 1), 1,
            1024));
        interval = std::max(1, (num_gates + max_ckpts - 1) / max_ckpts);
    }
    std::vector<Checkpoint> checkpoints;
    for (int gi = 0; gi < num_gates; ++gi) {
        const Gate &g = cc.circuit.gate(gi);
        if (g.kind != GateKind::Measure)
            ideal.applyGate(g);
        int applied = gi + 1;
        if (interval > 0 && applied % interval == 0 &&
            applied < num_gates)
            checkpoints.push_back({applied, ideal});
    }

    // The benchmark's correct answer: the dominant outcome of the
    // *measured-qubit marginal* (unmeasured ancillas may legitimately
    // end in superposition).
    std::vector<double> marginal(uint64_t{1} << measured.size(), 0.0);
    for (uint64_t b = 0; b < ideal.dim(); ++b) {
        double p = ideal.probability(b);
        if (p > 0.0)
            marginal[outcomeKey(b, measured)] += p;
    }
    uint64_t ideal_key = 0;
    double ideal_prob = -1.0;
    for (uint64_t k = 0; k < marginal.size(); ++k)
        if (marginal[k] > ideal_prob) {
            ideal_prob = marginal[k];
            ideal_key = k;
        }
    ExecutionResult res;
    res.correctOutcome = ideal_key;
    res.trials = trials;
    res.esp = estimatedSuccessProbability(hw, dev.topology(), safe);
    res.noErrorProb = noErrorProbability(sites);
    if (ideal_prob < 0.99)
        warn("executeNoisy: ", hw.name(),
             " has a non-deterministic ideal output (p=", ideal_prob,
             "); success is counted against the dominant outcome");

    // Injection order: site indices sorted by (gateIdx, site index).
    // Fired sites' Pauli codes are drawn and injected in this order.
    std::vector<int> inj_order(sites.size());
    for (size_t i = 0; i < sites.size(); ++i)
        inj_order[i] = static_cast<int>(i);
    std::stable_sort(inj_order.begin(), inj_order.end(),
                     [&](int a, int b) {
                         return sites[static_cast<size_t>(a)].gateIdx <
                                sites[static_cast<size_t>(b)].gateIdx;
                     });

    // Align fused operators to the checkpoint interval so replays
    // resumed from a checkpoint start on an operator boundary instead
    // of falling back to plain gates mid-operator. A per-gate interval
    // would forbid all fusion, so leave operators unaligned there —
    // every boundary is an op boundary anyway once spans stay small.
    FusionOptions fopt;
    fopt.alignBoundary = interval > 1 ? interval : 0;
    const FusedProgram fused_program(cc.circuit, fopt);

    TrajectoryContext ctx;
    ctx.circuit = &cc.circuit;
    ctx.sites = &sites;
    ctx.injOrder = &inj_order;
    ctx.roErr = &ro_err;
    ctx.ideal = &ideal;
    ctx.checkpoints = &checkpoints;
    ctx.fused = &fused_program;
    ctx.coveredSnapshotLevels = low_mem ? 0 : 1;

    // Chunk ci owns the RNG stream (trialStreamSeed(seed), ci), so the
    // result is a pure function of (seed, trials) — never of the
    // thread count.
    const int num_chunks = (trials + kTrialChunkSize - 1) / kTrialChunkSize;
    const uint64_t stream_seed = trialStreamSeed(seed);

    const SchedCalib &scal = schedCalib();
    auto plan = [&](int items, double us_per_item) {
        return threads_req > 0
                   ? planForced(scal, items, us_per_item, threads_req,
                                processPoolStarted())
                   : planParallel(scal, items, us_per_item, 0,
                                  processPoolStarted());
    };

    // Phase A: pre-draw every trial's randomness, chunk-parallel.
    // Chunks write disjoint trial slots and their own word buffers, so
    // scheduling cannot change any draw.
    PresampledDraws draws;
    draws.chunkWords.resize(static_cast<size_t>(num_chunks));
    draws.patternLen.resize(static_cast<size_t>(trials));
    draws.firstGate.resize(static_cast<size_t>(trials));
    draws.u.resize(static_cast<size_t>(trials));
    draws.flips.resize(static_cast<size_t>(trials));
    auto presample = [&](int ci) {
        int lo = ci * kTrialChunkSize;
        int n = std::min(kTrialChunkSize, trials - lo);
        presampleChunk(ctx,
                       Rng::stream(stream_seed, static_cast<uint64_t>(ci)),
                       lo, n, draws.chunkWords[static_cast<size_t>(ci)],
                       draws);
    };
    // Presampling is cheap per chunk (a few Bernoullis per site), so
    // the cost model usually keeps it serial.
    SchedDecision pre_dec =
        plan(num_chunks,
             estimatePresampleUs(scal, static_cast<int>(sites.size()),
                                 kTrialChunkSize));
    runPerPlan(pre_dec, num_chunks, presample);

    // Phase B: group trials by identical fault pattern, in trial order
    // (deterministic first-seen group numbering). The hash only picks
    // a bucket; group identity is pattern equality.
    std::vector<PatternGroup> groups;
    std::unordered_map<uint64_t, std::vector<int>> buckets;
    buckets.reserve(static_cast<size_t>(trials) / 2 + 1);
    for (int ci = 0, t = 0; ci < num_chunks; ++ci) {
        const uint32_t *w = draws.chunkWords[static_cast<size_t>(ci)].data();
        const int n = std::min(kTrialChunkSize, trials - ci * kTrialChunkSize);
        for (int k = 0; k < n; ++k, ++t) {
            const int len = draws.patternLen[static_cast<size_t>(t)];
            std::vector<int> &bucket = buckets[patternHash(w, len)];
            int gidx = -1;
            for (int g : bucket) {
                const PatternGroup &pg = groups[static_cast<size_t>(g)];
                if (pg.patternLen == len &&
                    std::equal(pg.pattern, pg.pattern + len, w)) {
                    gidx = g;
                    break;
                }
            }
            if (gidx < 0) {
                gidx = static_cast<int>(groups.size());
                PatternGroup g;
                g.pattern = w;
                g.patternLen = len;
                g.firstGate = draws.firstGate[static_cast<size_t>(t)];
                groups.push_back(std::move(g));
                bucket.push_back(gidx);
            }
            groups[static_cast<size_t>(gidx)].trials.push_back(t);
            w += len;
        }
    }

    // Phase C: simulate each distinct pattern once. Groups are sorted
    // by pattern content so patterns sharing an injection prefix run
    // back to back and reuse the shared state (see runGroupSlice);
    // each parallel worker takes one contiguous slice of the sorted
    // order. Groups write disjoint basis_of slots and snapshot reuse
    // is bitwise exact, so neither scheduling nor the slice boundaries
    // can change any result.
    std::vector<uint64_t> basis_of(static_cast<size_t>(trials));
    const int num_groups = static_cast<int>(groups.size());
    std::vector<int> order(static_cast<size_t>(num_groups));
    for (int gi = 0; gi < num_groups; ++gi)
        order[static_cast<size_t>(gi)] = gi;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        const PatternGroup &ga = groups[static_cast<size_t>(a)];
        const PatternGroup &gb = groups[static_cast<size_t>(b)];
        return std::lexicographical_compare(
            ga.pattern, ga.pattern + ga.patternLen, gb.pattern,
            gb.pattern + gb.patternLen);
    });
    SchedDecision dec =
        plan(num_groups,
             estimateGroupUs(scal, cc.circuit.numQubits(), num_gates));
    // Kernel threading and the group fan-out share the process pool:
    // when the fan-out is threaded, trajectory kernels must stay
    // serial (pool jobs cannot submit to the pool); when it is serial
    // — always so under the low-memory plan — the kernels get the
    // whole pool. Bit-identical either way.
    ctx.kernelThreads = dec.threaded ? 1 : kernel_threads;
    auto t_run = std::chrono::steady_clock::now();
    if (!dec.threaded) {
        runGroupSlice(ctx, groups, order, 0,
                      static_cast<size_t>(num_groups), draws, basis_of);
    } else {
        // One contiguous slice per worker (not the generic batched
        // ranges): coarse slices keep the LCP state sharing between
        // neighboring patterns maximal, and slicing is bitwise
        // invisible (see runGroupSlice).
        const int slices = std::min(dec.threads, num_groups);
        ThreadPool &pool = processPool(dec.threads);
        parallelFor(pool, slices, [&](int w) {
            size_t lo = static_cast<size_t>(num_groups) *
                        static_cast<size_t>(w) /
                        static_cast<size_t>(slices);
            size_t hi = static_cast<size_t>(num_groups) *
                        static_cast<size_t>(w + 1) /
                        static_cast<size_t>(slices);
            runGroupSlice(ctx, groups, order, lo, hi, draws, basis_of);
        });
        dec.threads = slices;
        dec.tasks = slices;
        dec.itemsPerTask = (num_groups + slices - 1) / slices;
    }
    dec.actualMs = msSince(t_run);
    res.sched = dec;
    for (const PatternGroup &g : groups)
        if (g.patternLen > 0)
            ++res.simulatedTrajectories;

    // Phase D: serial tally in trial order. Narrow outcome registers
    // count into a flat vector first.
    int successes = 0;
    auto key_of = [&](int t) {
        return outcomeKey(basis_of[static_cast<size_t>(t)], measured) ^
               draws.flips[static_cast<size_t>(t)];
    };
    if (measured.size() <= kFlatHistogramBits) {
        std::vector<int> total(uint64_t{1} << measured.size(), 0);
        for (int t = 0; t < trials; ++t) {
            uint64_t key = key_of(t);
            if (key == ideal_key)
                ++successes;
            ++total[key];
        }
        res.histogram.reserve(total.size());
        for (size_t k = 0; k < total.size(); ++k)
            if (total[k] != 0)
                res.histogram.emplace(static_cast<uint64_t>(k), total[k]);
    } else {
        res.histogram.reserve(static_cast<size_t>(trials));
        for (int t = 0; t < trials; ++t) {
            uint64_t key = key_of(t);
            if (key == ideal_key)
                ++successes;
            ++res.histogram[key];
        }
    }
    res.successRate = static_cast<double>(successes) / trials;
    int modal_count = 0;
    for (const auto &[key, count] : res.histogram)
        if (count > modal_count)
            modal_count = count;
    res.correctIsModal = successes == modal_count;
    return res;
}

} // namespace

std::vector<std::pair<uint64_t, int>>
ExecutionResult::sortedHistogram() const
{
    std::vector<std::pair<uint64_t, int>> out(histogram.begin(),
                                              histogram.end());
    std::sort(out.begin(), out.end());
    return out;
}

ExecutionResult
executeNoisy(const Circuit &hw, const Device &dev, const Calibration &calib,
             int trials, uint64_t seed, const ExecOptions &opts)
{
    uint64_t planned_bytes = 0;
    try {
        return executeNoisyImpl(hw, dev, calib, trials, seed, opts,
                                planned_bytes);
    } catch (const std::bad_alloc &) {
        // An allocation the reservation did not cover (or an untracked
        // ancillary one) failed. Surface it as the same structured
        // resource error the reservation path throws, never as an
        // unhandled abort.
        ResourceGovernor &gov = processGovernor();
        std::ostringstream msg;
        msg << "simulation of " << hw.name()
            << " failed to allocate (planned "
            << formatBytes(planned_bytes) << ", budget "
            << formatBytes(gov.budgetBytes()) << ")";
        throw ResourceError(msg.str(), planned_bytes, gov.budgetBytes(),
                            gov.committedBytes());
    }
}

uint64_t
outcomeForProgram(uint64_t key, const Circuit &hw,
                  const std::vector<HwQubit> &final_map,
                  const std::vector<ProgQubit> &prog_measured)
{
    std::vector<ProgQubit> hw_measured = hw.measuredQubits();
    uint64_t out = 0;
    for (size_t k = 0; k < prog_measured.size(); ++k) {
        ProgQubit p = prog_measured[k];
        if (p < 0 || p >= static_cast<int>(final_map.size()))
            fatal("outcomeForProgram: program qubit ", p,
                  " has no final-map entry");
        HwQubit h = final_map[static_cast<size_t>(p)];
        auto it = std::find(hw_measured.begin(), hw_measured.end(), h);
        if (it == hw_measured.end())
            fatal("outcomeForProgram: hardware qubit ", h,
                  " (program qubit ", p, ") is not measured");
        size_t pos = static_cast<size_t>(it - hw_measured.begin());
        out |= ((key >> pos) & 1) << k;
    }
    return out;
}

int
defaultTrials(int fallback)
{
    return envInt("TRIQ_TRIALS", fallback, 1);
}

int
defaultSimThreads(int fallback)
{
    // min 0: TRIQ_SIM_THREADS=0 is valid and means "adaptive".
    return envInt("TRIQ_SIM_THREADS", fallback, 0);
}

int
defaultKernelThreads(int fallback)
{
    // min 0: TRIQ_KERNEL_THREADS=0 is valid and means "adaptive".
    return envInt("TRIQ_KERNEL_THREADS", fallback, 0);
}

} // namespace triq
