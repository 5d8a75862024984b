/**
 * @file
 * Mapper-search microbenchmark: runs the fig13 supremacy grid rows
 * through four mapping engines against the same reliability matrix and
 * emits BENCH_mapper.json so CI can hold the planner-grade search to
 * its contract — the new bound must shrink the proof tree on every
 * row, and warm starts must shrink it further.
 *
 * Engines per row (all max-min objective, readout included):
 *   - greedy:  constructive placement + local search (the anytime
 *     floor; zero search nodes);
 *   - legacy:  branch-and-bound with every planner feature off
 *     (useStrongBound/useSymmetry/useDominance = false) — the
 *     pre-planner search, static suffix potential only;
 *   - new:     the same search with the row-relaxation admissible
 *     bound, equivalence-class symmetry pruning and sibling-dominance
 *     cuts (the shipping defaults);
 *   - warm:    the new engine warm-started from the previous
 *     calibration day's optimum — the incremental-remapping path a
 *     drift invalidation takes in the sweep engine.
 *
 * Node counts are exact and deterministic: the searches run under a
 * node budget only (no wall-clock deadline), so the gates cannot flake
 * on machine load; --reps repetitions exist purely to take a
 * min-over-reps wall time per engine (bench_util's rotatedMinMs, the
 * four engines rotated within each row).
 *
 * The gates (exit 6 on failure):
 *   1. on rows the legacy engine can prove within the budget, the new
 *      engine must prove them with strictly fewer nodes (rows whose
 *      legacy proof is already below --node-floor nodes only need <=:
 *      there is nothing left to prune); on rows where *both* engines
 *      exhaust the budget the node counts saturate at budget+1 by
 *      construction, so the anytime value is compared instead
 *      (new >= legacy);
 *   2. warm_nodes <= new_nodes on every row, strictly fewer in total;
 *   3. at least one row that exhausts the legacy budget (falling back
 *      to the greedy incumbent, unproved) is proved optimal by the new
 *      engine within the same budget.
 * Exit 4 is a determinism/soundness breach: node counts or values
 * changed across reps, an exact engine returned a worse value than its
 * greedy seed, a warm-started search returned a worse value than the
 * cold search (the warm incumbent is never below the cold one, so
 * anytime dominance is a theorem), or two engines both proved
 * optimality at different values. Exit 0 otherwise.
 *
 * Each exact engine also reports `<engine>_ns_per_node` (its min wall
 * time over its node count): the cost of one search node, for reading
 * a per-node speedup at equal node counts. It is informational, not
 * gated: wall time on a shared host swings far more than a gate at
 * that noise floor could tolerate.
 *
 * Usage:
 *   micro_mapper [--budget N] [--reps N] [--node-floor N] [--json FILE]
 */

#include <cmath>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/flags.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/decompose.hh"
#include "core/mapper.hh"
#include "core/reliability.hh"
#include "workloads/supremacy.hh"

using namespace triq;

namespace
{

/** One engine's result on one row: min-over-reps wall time. */
struct EngineStat
{
    long nodes = 0;
    bool optimal = false;
    double value = 0.0; //!< Achieved max-min objective.
    double ms = 0.0;
    long boundPruned = 0;
    long symmetryPruned = 0;
    long dominancePruned = 0;
    bool deterministic = true; //!< Nodes/value identical across reps.

    /** Record repetition `rep`'s mapping. */
    void
    record(const Mapping &m, int rep)
    {
        if (rep == 0) {
            nodes = m.nodesExplored;
            optimal = m.optimal;
            value = m.minReliability;
        } else if (m.nodesExplored != nodes || m.minReliability != value) {
            deterministic = false;
        }
        boundPruned = m.boundPruned;
        symmetryPruned = m.symmetryPruned;
        dominancePruned = m.dominancePruned;
    }
};

/** One fig13 grid row: all four engines on the same matrix. */
struct Row
{
    std::string name;
    int qubits = 0;
    int depth = 0;
    EngineStat greedy, legacy, fresh, warm;
};

void
emitEngine(JsonWriter &json, const std::string &prefix,
           const EngineStat &s, bool with_prunes)
{
    json.key(prefix + "_nodes").value(s.nodes)
        .key(prefix + "_optimal").value(s.optimal)
        .key(prefix + "_value").value(s.value)
        .key(prefix + "_ms").value(s.ms)
        .key(prefix + "_ns_per_node")
        .value(bench::ratio(s.ms * 1e6, static_cast<double>(s.nodes)));
    if (with_prunes)
        json.key(prefix + "_bound_pruned").value(s.boundPruned)
            .key(prefix + "_symmetry_pruned").value(s.symmetryPruned)
            .key(prefix + "_dominance_pruned").value(s.dominancePruned);
}

void
emitRow(JsonWriter &json, const Row &r)
{
    json.beginObject()
        .key("name").value(r.name)
        .key("qubits").value(r.qubits)
        .key("depth").value(r.depth)
        .key("greedy_value").value(r.greedy.value)
        .key("greedy_ms").value(r.greedy.ms);
    emitEngine(json, "legacy", r.legacy, false);
    emitEngine(json, "new", r.fresh, true);
    emitEngine(json, "warm", r.warm, false);
    json.key("node_ratio")
        .value(bench::ratio(static_cast<double>(r.legacy.nodes),
                            static_cast<double>(r.fresh.nodes)))
        .endObject();
}

} // namespace

int
main(int argc, char **argv)
try {
    long budget = 200000; // fig13's per-compile node budget
    int reps = 3;
    long node_floor = 64;
    std::string json_file;
    Flags("micro_mapper")
        .add("--budget", budget)
        .add("--reps", reps)
        .add("--node-floor", node_floor)
        .add("--json", json_file)
        .parse(argc, argv);
    if (budget < 1 || reps < 1)
        fatal("micro_mapper: --budget and --reps must be >= 1");

    // The fig13 scalability ladder: square-ish grids with the IBMQ14
    // noise model, exactly the devices whose compile times the paper's
    // scalability study reports.
    struct Config
    {
        int rows, cols, depth;
    };
    const Config configs[] = {{2, 3, 16}, {3, 4, 24},  {4, 4, 32},
                              {4, 6, 48}, {6, 6, 64},  {6, 9, 96},
                              {6, 12, 128}};
    const NoiseSpec noise = bench::deviceByName("IBMQ14").noiseSpec();

    MappingOptions legacy_opts;
    legacy_opts.kind = MapperKind::BranchAndBound;
    legacy_opts.nodeBudget = budget;
    legacy_opts.useStrongBound = false;
    legacy_opts.useSymmetry = false;
    legacy_opts.useDominance = false;
    MappingOptions new_opts;
    new_opts.kind = MapperKind::BranchAndBound;
    new_opts.nodeBudget = budget;
    MappingOptions greedy_opts;
    greedy_opts.kind = MapperKind::Greedy;

    std::vector<Row> rows;
    for (const auto &cfg : configs) {
        int n = cfg.rows * cfg.cols;
        Device dev("Grid" + std::to_string(n),
                   Topology::grid(cfg.rows, cfg.cols), GateSet::ibm(),
                   noise);
        // The mapper's exact inputs at the noise-aware level: the
        // CNOT-basis interaction graph and the day's reliability
        // matrix (fig13 compiles against day 1).
        Circuit program =
            makeSupremacy(cfg.rows, cfg.cols, cfg.depth, 1);
        Circuit lowered =
            decomposeToCnotBasis(program, dev.gateSet().nativeCphase);
        ProgramInfo info = ProgramInfo::fromCircuit(lowered);
        Calibration today = dev.calibrate(1);
        ReliabilityMatrix rel(dev.topology(), today, dev.vendor());

        Row row;
        row.name = "Supremacy" + std::to_string(n) + "d" +
                   std::to_string(cfg.depth);
        row.qubits = n;
        row.depth = cfg.depth;

        // The drift-remap scenario: "yesterday" is a small
        // deterministic perturbation of today's error rates — the
        // few-percent day-to-day drift TRIQ_SWEEP_DRIFT guards
        // against. Yesterday's optimum (untimed cold solve) seeds
        // today's search, exactly what the sweep engine does when a
        // drift invalidation forces a recompile.
        Calibration prev_calib = today;
        Rng drift(1234 + static_cast<uint64_t>(n));
        for (auto &e : prev_calib.err2q)
            e *= drift.uniform(0.97, 1.03);
        for (auto &e : prev_calib.errRO)
            e *= drift.uniform(0.97, 1.03);
        ReliabilityMatrix rel_prev(dev.topology(), prev_calib,
                                   dev.vendor());
        Mapping prev = mapQubits(info, rel_prev, new_opts);
        MappingOptions warm_opts = new_opts;
        warm_opts.warmStart = prev.progToHw;
        warm_opts.warmStartOrigin = "drift(day 2)";

        const MappingOptions *engine_opts[4] = {
            &greedy_opts, &legacy_opts, &new_opts, &warm_opts};
        EngineStat *stats[4] = {&row.greedy, &row.legacy, &row.fresh,
                                &row.warm};
        Mapping last;
        const std::vector<double> ms = bench::rotatedMinMs(
            4, reps,
            [&](int e) { last = mapQubits(info, rel, *engine_opts[e]); },
            [&](int e, int rep) { stats[e]->record(last, rep); });
        for (int e = 0; e < 4; ++e)
            stats[e]->ms = ms[static_cast<size_t>(e)];

        rows.push_back(std::move(row));
    }

    // --- soundness / determinism checks (exit 4).
    bench::Verdict verdict("micro_mapper");
    const double eps = 1e-12;
    for (const Row &r : rows) {
        auto breach = [&](const std::string &what) {
            verdict.breach(r.name + ": " + what);
        };
        for (const EngineStat *s :
             {&r.greedy, &r.legacy, &r.fresh, &r.warm})
            if (!s->deterministic)
                breach("node count or value changed across reps");
        // Cold exact engines seed from the greedy incumbent and accept
        // only strict improvements, so they can never come back worse.
        if (r.legacy.value + eps < r.greedy.value)
            breach("legacy value below the greedy seed");
        if (r.fresh.value + eps < r.greedy.value)
            breach("new-engine value below the greedy seed");
        // Sound pruning with identical child ordering: at any node
        // budget the new engine has seen every improving leaf the
        // legacy search has, so its anytime value cannot be worse.
        if (r.fresh.value + eps < r.legacy.value)
            breach("new-engine value below the legacy value");
        // Same argument, warm vs. cold: the warm incumbent starts at
        // least as high (the engine keeps the better of the warm and
        // greedy seeds), so the warm anytime value cannot be worse.
        if (r.warm.value + eps < r.fresh.value)
            breach("warm-start value below the cold value");
        // Two proofs of optimality must agree on the optimum.
        if (r.legacy.optimal && r.fresh.optimal &&
            std::abs(r.legacy.value - r.fresh.value) > eps)
            breach("legacy and new both optimal at different values");
        if (r.warm.optimal && r.fresh.optimal &&
            std::abs(r.warm.value - r.fresh.value) > eps)
            breach("warm and cold both optimal at different values");
    }

    // --- the perf gates (exit 6).
    long legacy_total = 0, new_total = 0, warm_total = 0;
    int undegraded = 0;
    for (const Row &r : rows) {
        legacy_total += r.legacy.nodes;
        new_total += r.fresh.nodes;
        warm_total += r.warm.nodes;
        // 1. The stronger bound must shrink the proof tree on every
        //    row; tiny proofs (below the floor) only need to not grow.
        //    When both engines exhaust the budget the node counts
        //    saturate (budget+1 each) and carry no signal — the
        //    anytime-value comparison in the soundness block is the
        //    contract there.
        bool saturated = !r.legacy.optimal && !r.fresh.optimal;
        bool shrank = r.fresh.nodes < r.legacy.nodes ||
                      (r.legacy.nodes <= node_floor &&
                       r.fresh.nodes <= r.legacy.nodes);
        if (!saturated && !shrank)
            verdict.gateFail(r.name + ": new engine explored " +
                             std::to_string(r.fresh.nodes) +
                             " nodes, legacy " +
                             std::to_string(r.legacy.nodes));
        // 2. A warm incumbent can only tighten pruning further.
        if (r.warm.nodes > r.fresh.nodes)
            verdict.gateFail(r.name + ": warm start explored " +
                             std::to_string(r.warm.nodes) +
                             " nodes, cold " +
                             std::to_string(r.fresh.nodes));
        if (!r.legacy.optimal && r.fresh.optimal)
            ++undegraded;
    }
    if (warm_total >= new_total && new_total > 0)
        verdict.gateFail("warm starts explored " +
                         std::to_string(warm_total) +
                         " total nodes, cold " +
                         std::to_string(new_total));
    // 3. The headline claim: a budget the legacy search exhausts
    //    (returning the unproved greedy incumbent) now suffices for a
    //    proof on at least one supremacy row. Only meaningful at the
    //    default fig13 budget and up — the 16-qubit proof takes ~187k
    //    nodes, so a deliberately shrunk --budget cannot satisfy it
    //    and should not read as a regression.
    if (undegraded == 0 && budget >= 200000)
        verdict.gateFail("no row went from legacy-budget-exhausted to "
                         "proved-optimal");

    JsonWriter json;
    json.beginObject()
        .key("budget").value(budget)
        .key("reps").value(reps)
        .key("node_floor").value(node_floor)
        .key("rows").beginArray();
    for (const Row &r : rows)
        emitRow(json, r);
    json.endArray()
        .key("legacy_total_nodes").value(legacy_total)
        .key("new_total_nodes").value(new_total)
        .key("warm_total_nodes").value(warm_total)
        .key("rows_undegraded").value(undegraded)
        .key("sound").value(!verdict.breached())
        .key("gate_pass").value(verdict.gatePassed())
        .endObject();

    bench::writeReport("micro_mapper", json, json_file);
    return verdict.exitCode();
} catch (const FatalError &) {
    return bench::Verdict::kFatal;
}
