/**
 * @file
 * Mapper tests: interaction extraction, engine validity (injectivity),
 * branch-and-bound optimality against exhaustive search on random
 * instances, SMT/B&B agreement, and the max-min objective semantics.
 */

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/decompose.hh"
#include "core/mapper.hh"
#include "device/machines.hh"
#include "workloads/benchmarks.hh"
#include "workloads/supremacy.hh"

namespace triq
{
namespace
{

ReliabilityMatrix
randomMatrix(const Device &dev, uint64_t seed)
{
    Calibration calib = dev.averageCalibration();
    Rng rng(seed);
    for (auto &e : calib.err2q)
        e = rng.uniform(0.01, 0.35);
    for (auto &e : calib.errRO)
        e = rng.uniform(0.01, 0.2);
    return ReliabilityMatrix(dev.topology(), calib, dev.vendor());
}

/** Exhaustive max-min search over all injective placements. */
double
bruteForceBest(const ProgramInfo &info, const ReliabilityMatrix &rel,
               bool include_ro)
{
    std::vector<HwQubit> hw(static_cast<size_t>(rel.numQubits()));
    std::iota(hw.begin(), hw.end(), 0);
    double best = -1.0;
    std::vector<HwQubit> map(static_cast<size_t>(info.numProgQubits));
    // Enumerate placements as permutations of hw prefixes.
    std::sort(hw.begin(), hw.end());
    std::vector<bool> used(hw.size(), false);
    struct Rec
    {
        const ProgramInfo &info;
        const ReliabilityMatrix &rel;
        bool ro;
        std::vector<HwQubit> &map;
        std::vector<bool> &used;
        double &best;
        void
        go(size_t k)
        {
            if (k == map.size()) {
                best = std::max(
                    best, mappingMinReliability(info, rel, map, ro));
                return;
            }
            for (size_t h = 0; h < used.size(); ++h) {
                if (used[h])
                    continue;
                used[h] = true;
                map[k] = static_cast<HwQubit>(h);
                go(k + 1);
                used[h] = false;
            }
        }
    } rec{info, rel, include_ro, map, used, best};
    rec.go(0);
    return best;
}

TEST(ProgramInfoTest, ExtractsPairsAndWeights)
{
    Circuit c(4);
    c.add(Gate::cnot(0, 1));
    c.add(Gate::cnot(1, 0)); // Same unordered pair.
    c.add(Gate::cnot(2, 3));
    c.add(Gate::measure(0));
    c.add(Gate::measure(3));
    ProgramInfo info = ProgramInfo::fromCircuit(c);
    ASSERT_EQ(info.pairs.size(), 2u);
    EXPECT_EQ(info.pairs[0].a, 0);
    EXPECT_EQ(info.pairs[0].b, 1);
    EXPECT_EQ(info.pairs[0].weight, 2);
    EXPECT_EQ(info.pairs[1].weight, 1);
    EXPECT_EQ(info.measured, (std::vector<ProgQubit>{0, 3}));
}

TEST(MapperTest, TrivialIsIdentity)
{
    Device dev = makeIbmQ5();
    ReliabilityMatrix rel = randomMatrix(dev, 1);
    Circuit c = decomposeToCnotBasis(makeBenchmark("BV4"));
    ProgramInfo info = ProgramInfo::fromCircuit(c);
    Mapping m = trivialMapping(info, rel);
    for (size_t p = 0; p < m.progToHw.size(); ++p)
        EXPECT_EQ(m.progToHw[p], static_cast<HwQubit>(p));
}

class MapperEngines
    : public ::testing::TestWithParam<std::pair<MapperKind, uint64_t>>
{
};

TEST_P(MapperEngines, ProducesInjectiveValidMapping)
{
    auto [kind, seed] = GetParam();
    Device dev = makeIbmQ14();
    ReliabilityMatrix rel = randomMatrix(dev, seed);
    Circuit c = decomposeToCnotBasis(makeBenchmark("Adder"));
    ProgramInfo info = ProgramInfo::fromCircuit(c);
    MappingOptions opts;
    opts.kind = kind;
    Mapping m = mapQubits(info, rel, opts);
    ASSERT_EQ(m.progToHw.size(),
              static_cast<size_t>(info.numProgQubits));
    // hwToProg panics on non-injective or out-of-range mappings.
    auto inv = m.hwToProg(dev.numQubits());
    EXPECT_GT(m.minReliability, 0.0);
    EXPECT_NEAR(m.minReliability,
                mappingMinReliability(info, rel, m.progToHw, true),
                1e-12);
}

std::vector<std::pair<MapperKind, uint64_t>>
engineCases()
{
    std::vector<std::pair<MapperKind, uint64_t>> cases;
    for (MapperKind k : {MapperKind::Trivial, MapperKind::Greedy,
                         MapperKind::BranchAndBound, MapperKind::Smt})
        for (uint64_t seed : {1u, 2u, 3u})
            cases.push_back({k, seed});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(AllEngines, MapperEngines,
                         ::testing::ValuesIn(engineCases()));

class BnbOptimality : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(BnbOptimality, MatchesExhaustiveSearch)
{
    // 4 program qubits on the 5-qubit bowtie: 120 placements, checkable.
    Device dev = makeIbmQ5();
    ReliabilityMatrix rel = randomMatrix(dev, GetParam());
    Circuit c = decomposeToCnotBasis(makeBenchmark("Adder"));
    ProgramInfo info = ProgramInfo::fromCircuit(c);
    MappingOptions opts;
    opts.kind = MapperKind::BranchAndBound;
    Mapping m = mapQubits(info, rel, opts);
    EXPECT_TRUE(m.optimal);
    double best = bruteForceBest(info, rel, opts.includeReadout);
    EXPECT_NEAR(m.minReliability, best, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomCalibrations, BnbOptimality,
                         ::testing::Range(uint64_t{10}, uint64_t{30}));

TEST(MapperTest, SmtAgreesWithBnb)
{
    if (!smtMapperAvailable())
        GTEST_SKIP() << "built without Z3";
    Device dev = makeIbmQ14();
    for (uint64_t seed : {5u, 6u}) {
        ReliabilityMatrix rel = randomMatrix(dev, seed);
        Circuit c = decomposeToCnotBasis(makeBenchmark("BV6"));
        ProgramInfo info = ProgramInfo::fromCircuit(c);
        MappingOptions opts;
        opts.kind = MapperKind::BranchAndBound;
        Mapping bnb = mapQubits(info, rel, opts);
        opts.kind = MapperKind::Smt;
        Mapping smt = mapQubits(info, rel, opts);
        ASSERT_TRUE(bnb.optimal);
        EXPECT_NEAR(smt.minReliability, bnb.minReliability, 1e-9);
    }
}

TEST(MapperTest, ReadoutAffectsObjective)
{
    // One qubit measured, no 2Q gates: the mapper must pick the best
    // readout unit when readout is part of the objective.
    Device dev = makeIbmQ5();
    Calibration calib = dev.averageCalibration();
    calib.errRO = {0.3, 0.3, 0.01, 0.3, 0.3};
    ReliabilityMatrix rel(dev.topology(), calib, dev.vendor());
    Circuit c(1);
    c.add(Gate::h(0));
    c.add(Gate::measure(0));
    ProgramInfo info = ProgramInfo::fromCircuit(c);
    MappingOptions opts;
    opts.kind = MapperKind::BranchAndBound;
    Mapping m = mapQubits(info, rel, opts);
    EXPECT_EQ(m.progToHw[0], 2);
    EXPECT_NEAR(m.minReliability, 0.99, 1e-12);

    opts.includeReadout = false;
    Mapping m2 = mapQubits(info, rel, opts);
    EXPECT_NEAR(m2.minReliability, 1.0, 1e-12);
}

TEST(MapperTest, ProgramTooLargeIsFatal)
{
    Device dev = makeIbmQ5();
    ReliabilityMatrix rel = randomMatrix(dev, 9);
    Circuit c = decomposeToCnotBasis(makeBV(6));
    ProgramInfo info = ProgramInfo::fromCircuit(c);
    EXPECT_THROW(mapQubits(info, rel, MappingOptions{}), FatalError);
}

/** Exhaustive best weighted log-product over all injective placements. */
double
bruteForceBestProduct(const ProgramInfo &info,
                      const ReliabilityMatrix &rel, bool include_ro)
{
    double best = -1e300;
    std::vector<HwQubit> map(static_cast<size_t>(info.numProgQubits));
    std::vector<bool> used(static_cast<size_t>(rel.numQubits()), false);
    struct Rec
    {
        const ProgramInfo &info;
        const ReliabilityMatrix &rel;
        bool ro;
        std::vector<HwQubit> &map;
        std::vector<bool> &used;
        double &best;
        void
        go(size_t k)
        {
            if (k == map.size()) {
                best = std::max(
                    best, mappingLogProduct(info, rel, map, ro));
                return;
            }
            for (size_t h = 0; h < used.size(); ++h) {
                if (used[h])
                    continue;
                used[h] = true;
                map[k] = static_cast<HwQubit>(h);
                go(k + 1);
                used[h] = false;
            }
        }
    } rec{info, rel, include_ro, map, used, best};
    rec.go(0);
    return best;
}

class ProductOptimality : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(ProductOptimality, BnbMatchesExhaustiveSearch)
{
    Device dev = makeIbmQ5();
    ReliabilityMatrix rel = randomMatrix(dev, GetParam());
    Circuit c = decomposeToCnotBasis(makeBenchmark("Adder"));
    ProgramInfo info = ProgramInfo::fromCircuit(c);
    MappingOptions opts;
    opts.kind = MapperKind::BranchAndBound;
    opts.objective = MappingObjective::Product;
    Mapping m = mapQubits(info, rel, opts);
    EXPECT_TRUE(m.optimal);
    double best = bruteForceBestProduct(info, rel, opts.includeReadout);
    EXPECT_NEAR(m.logProduct, best, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomCalibrations, ProductOptimality,
                         ::testing::Range(uint64_t{40}, uint64_t{52}));

TEST(MapperTest, MaxMinPrunesBetterThanProduct)
{
    // The paper's scalability argument: for the same instance, the
    // max-min search explores far fewer nodes than the product search.
    Device dev = makeIbmQ16();
    ReliabilityMatrix rel = randomMatrix(dev, 77);
    Circuit c = decomposeToCnotBasis(makeBenchmark("BV8"));
    ProgramInfo info = ProgramInfo::fromCircuit(c);
    MappingOptions opts;
    opts.kind = MapperKind::BranchAndBound;
    opts.nodeBudget = 5000000;
    opts.objective = MappingObjective::MaxMin;
    Mapping mm = mapQubits(info, rel, opts);
    opts.objective = MappingObjective::Product;
    Mapping pr = mapQubits(info, rel, opts);
    EXPECT_LT(mm.nodesExplored, pr.nodesExplored);
}

TEST(MapperTest, MalformedPairPanics)
{
    // The searches index their score table unchecked, so mapQubits
    // must refuse a pair that names no qubit or the same qubit twice.
    Device dev = makeIbmQ5();
    ReliabilityMatrix rel = randomMatrix(dev, 5);
    for (ProgramInfo::Pair bad : {ProgramInfo::Pair{1, 1, 1},
                                  ProgramInfo::Pair{0, 3, 1},
                                  ProgramInfo::Pair{-1, 0, 1}}) {
        ProgramInfo info;
        info.numProgQubits = 3;
        info.pairs = {{0, 1, 2}, bad};
        for (MapperKind kind : {MapperKind::Greedy,
                                MapperKind::BranchAndBound}) {
            MappingOptions opts;
            opts.kind = kind;
            EXPECT_THROW(mapQubits(info, rel, opts), PanicError);
        }
    }
}

TEST(MapperTest, KindParsing)
{
    EXPECT_EQ(mapperKindFromString("trivial"), MapperKind::Trivial);
    EXPECT_EQ(mapperKindFromString("greedy"), MapperKind::Greedy);
    EXPECT_EQ(mapperKindFromString("bnb"), MapperKind::BranchAndBound);
    EXPECT_EQ(mapperKindFromString("smt"), MapperKind::Smt);
    EXPECT_THROW(mapperKindFromString("qiskit"), FatalError);
}

TEST(MapperTest, GreedyNeverBeatenBadlyByTrivial)
{
    // Sanity: greedy should never be worse than the identity layout.
    Device dev = makeIbmQ16();
    for (uint64_t seed = 50; seed < 60; ++seed) {
        ReliabilityMatrix rel = randomMatrix(dev, seed);
        Circuit c = decomposeToCnotBasis(makeBenchmark("BV8"));
        ProgramInfo info = ProgramInfo::fromCircuit(c);
        MappingOptions opts;
        opts.kind = MapperKind::Greedy;
        Mapping greedy = mapQubits(info, rel, opts);
        Mapping trivial = trivialMapping(info, rel);
        EXPECT_GE(greedy.minReliability,
                  trivial.minReliability - 1e-12);
    }
}

// ---------------------------------------------------------------------
// Planner-grade search: every pruning feature must be sound (same
// optimum as exhaustive search) in isolation and in combination, the
// warm-start path must honor its never-worse contract, and the runtime
// vetoes must actually veto.

MappingOptions
plannerOpts(bool bound, bool symmetry, bool dominance)
{
    MappingOptions opts;
    opts.kind = MapperKind::BranchAndBound;
    opts.useStrongBound = bound;
    opts.useSymmetry = symmetry;
    opts.useDominance = dominance;
    return opts;
}

/** The symmetric pair score the search uses (mapper-internal). */
double
symScore(const ReliabilityMatrix &rel, HwQubit a, HwQubit b)
{
    return std::max(rel.pairReliability(a, b),
                    rel.pairReliability(b, a));
}

class ToggleOptimality
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>>
{
};

TEST_P(ToggleOptimality, MaxMinMatchesExhaustiveSearch)
{
    auto [seed, combo] = GetParam();
    Device dev = makeIbmQ5();
    ReliabilityMatrix rel = randomMatrix(dev, seed);
    Circuit c = decomposeToCnotBasis(makeBenchmark("Adder"));
    ProgramInfo info = ProgramInfo::fromCircuit(c);
    MappingOptions opts =
        plannerOpts(combo & 1, combo & 2, combo & 4);
    Mapping m = mapQubits(info, rel, opts);
    EXPECT_TRUE(m.optimal);
    EXPECT_EQ(m.boundType, (combo & 1) ? "row-relax" : "legacy");
    double best = bruteForceBest(info, rel, opts.includeReadout);
    EXPECT_NEAR(m.minReliability, best, 1e-9);
}

TEST_P(ToggleOptimality, ProductMatchesExhaustiveSearch)
{
    auto [seed, combo] = GetParam();
    Device dev = makeIbmQ5();
    ReliabilityMatrix rel = randomMatrix(dev, seed + 1000);
    Circuit c = decomposeToCnotBasis(makeBenchmark("Adder"));
    ProgramInfo info = ProgramInfo::fromCircuit(c);
    MappingOptions opts =
        plannerOpts(combo & 1, combo & 2, combo & 4);
    opts.objective = MappingObjective::Product;
    Mapping m = mapQubits(info, rel, opts);
    EXPECT_TRUE(m.optimal);
    double best = bruteForceBestProduct(info, rel, opts.includeReadout);
    EXPECT_NEAR(m.logProduct, best, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllToggleCombos, ToggleOptimality,
    ::testing::Combine(::testing::Range(uint64_t{10}, uint64_t{14}),
                       ::testing::Range(0, 8)));

TEST(PlannerSearch, UniformCalibrationKeepsOptimalityWithSymmetry)
{
    // The average calibration is uniform per gate type, so the bowtie's
    // graph automorphisms become real equivalence classes — the case
    // where symmetry pruning actually collapses subtrees. The optimum
    // must survive.
    Device dev = makeIbmQ5();
    ReliabilityMatrix rel(dev.topology(), dev.averageCalibration(),
                          dev.vendor());
    std::vector<int> cls = rel.equivalenceClasses();
    ASSERT_EQ(cls.size(), static_cast<size_t>(rel.numQubits()));
    int num_classes = 0;
    for (size_t h = 0; h < cls.size(); ++h) {
        ASSERT_GE(cls[h], 0);
        ASSERT_LT(cls[h], rel.numQubits());
        num_classes = std::max(num_classes, cls[h] + 1);
        // Same class => identical scoring signature.
        for (size_t h2 = 0; h2 < h; ++h2) {
            if (cls[h2] != cls[h])
                continue;
            EXPECT_EQ(rel.readoutReliability(static_cast<HwQubit>(h2)),
                      rel.readoutReliability(static_cast<HwQubit>(h)));
            for (HwQubit x = 0; x < rel.numQubits(); ++x) {
                if (x == static_cast<HwQubit>(h) ||
                    x == static_cast<HwQubit>(h2))
                    continue;
                EXPECT_EQ(symScore(rel, static_cast<HwQubit>(h), x),
                          symScore(rel, static_cast<HwQubit>(h2), x));
            }
        }
    }
    Circuit c = decomposeToCnotBasis(makeBenchmark("Adder"));
    ProgramInfo info = ProgramInfo::fromCircuit(c);
    Mapping m = mapQubits(info, rel, plannerOpts(true, true, true));
    EXPECT_TRUE(m.optimal);
    EXPECT_NEAR(m.minReliability, bruteForceBest(info, rel, true),
                1e-9);
    if (num_classes < rel.numQubits()) {
        EXPECT_GT(m.symmetryPruned, 0);
    }
}

TEST(PlannerSearch, StrongBoundNeverExpandsMoreNodes)
{
    // Anytime dominance: the stronger bound prunes a superset of the
    // subtrees the bare incumbent cut prunes, so at any budget the new
    // engine explores no more nodes and returns no worse a value.
    Device dev = makeIbmQ14();
    Circuit c = decomposeToCnotBasis(makeBenchmark("Adder"));
    ProgramInfo info = ProgramInfo::fromCircuit(c);
    for (uint64_t seed : {21u, 22u, 23u}) {
        ReliabilityMatrix rel = randomMatrix(dev, seed);
        Mapping legacy =
            mapQubits(info, rel, plannerOpts(false, false, false));
        Mapping fresh =
            mapQubits(info, rel, plannerOpts(true, true, true));
        EXPECT_LE(fresh.nodesExplored, legacy.nodesExplored);
        EXPECT_GE(fresh.minReliability, legacy.minReliability - 1e-12);
        EXPECT_GT(fresh.boundPruned, 0);
    }
}

TEST(WarmStart, MatchesColdSearchValue)
{
    // A warm start changes where the incumbent comes from, never what
    // the search proves: value identity with the cold search (the maps
    // themselves may differ between equal-valued optima).
    Device dev = makeIbmQ14();
    Circuit c = decomposeToCnotBasis(makeBenchmark("Adder"));
    ProgramInfo info = ProgramInfo::fromCircuit(c);
    for (uint64_t seed : {61u, 62u, 63u}) {
        ReliabilityMatrix rel = randomMatrix(dev, seed);
        MappingOptions cold_opts;
        Mapping cold = mapQubits(info, rel, cold_opts);
        ASSERT_TRUE(cold.optimal);
        MappingOptions warm_opts;
        warm_opts.warmStart.resize(
            static_cast<size_t>(info.numProgQubits));
        std::iota(warm_opts.warmStart.begin(),
                  warm_opts.warmStart.end(), 0);
        warm_opts.warmStartOrigin = "test(identity)";
        Mapping warm = mapQubits(info, rel, warm_opts);
        EXPECT_TRUE(warm.optimal);
        EXPECT_TRUE(warm.warmStarted);
        EXPECT_EQ(warm.warmStartOrigin, "test(identity)");
        EXPECT_NEAR(warm.minReliability, cold.minReliability, 1e-12);
    }
}

TEST(WarmStart, StaleOptimumShrinksProofTree)
{
    // The drift scenario: seeding from the (already optimal) cold map
    // can only tighten the root incumbent, so the proof tree shrinks
    // and the value is unchanged.
    Device dev = makeIbmQ14();
    ReliabilityMatrix rel = randomMatrix(dev, 71);
    Circuit c = decomposeToCnotBasis(makeBenchmark("Adder"));
    ProgramInfo info = ProgramInfo::fromCircuit(c);
    Mapping cold = mapQubits(info, rel, MappingOptions{});
    ASSERT_TRUE(cold.optimal);
    MappingOptions warm_opts;
    warm_opts.warmStart = cold.progToHw;
    warm_opts.warmStartOrigin = "drift(test)";
    Mapping warm = mapQubits(info, rel, warm_opts);
    EXPECT_TRUE(warm.optimal);
    EXPECT_TRUE(warm.warmStarted);
    EXPECT_LE(warm.nodesExplored, cold.nodesExplored);
    EXPECT_NEAR(warm.minReliability, cold.minReliability, 1e-12);
}

TEST(WarmStart, NeverWorseThanColdUnderExhaustedBudget)
{
    // A deliberately terrible warm seed plus a node budget too small
    // to search: the engine must still return at least the cold
    // (greedy-seeded) value, because it keeps the better of the warm
    // and constructive seeds as its incumbent.
    Device dev = makeIbmQ14();
    ReliabilityMatrix rel = randomMatrix(dev, 81);
    Circuit c = decomposeToCnotBasis(makeBenchmark("Adder"));
    ProgramInfo info = ProgramInfo::fromCircuit(c);
    MappingOptions greedy_opts;
    greedy_opts.kind = MapperKind::Greedy;
    Mapping greedy = mapQubits(info, rel, greedy_opts);
    MappingOptions warm_opts;
    warm_opts.nodeBudget = 1;
    warm_opts.warmStart.resize(
        static_cast<size_t>(info.numProgQubits));
    for (int p = 0; p < info.numProgQubits; ++p)
        warm_opts.warmStart[static_cast<size_t>(p)] =
            dev.numQubits() - 1 - p;
    Mapping warm = mapQubits(info, rel, warm_opts);
    EXPECT_FALSE(warm.optimal);
    EXPECT_GE(warm.minReliability, greedy.minReliability - 1e-12);
}

TEST(WarmStart, InvalidPlacementDegradesToGreedySeed)
{
    Device dev = makeIbmQ5();
    ReliabilityMatrix rel = randomMatrix(dev, 91);
    Circuit c = decomposeToCnotBasis(makeBenchmark("Adder"));
    ProgramInfo info = ProgramInfo::fromCircuit(c);
    MappingOptions opts;
    opts.warmStart.assign(static_cast<size_t>(info.numProgQubits), 0);
    opts.warmStartOrigin = "test(bogus)";
    Mapping m = mapQubits(info, rel, opts);
    EXPECT_FALSE(m.warmStarted);
    EXPECT_TRUE(m.warmStartOrigin.empty());
    EXPECT_TRUE(m.optimal);
    bool noted = false;
    for (const std::string &n : m.notes)
        noted = noted || n.find("invalid warm-start") != std::string::npos;
    EXPECT_TRUE(noted);
    EXPECT_NEAR(m.minReliability, bruteForceBest(info, rel, true),
                1e-9);
}

TEST(WarmStart, AnytimeUnderExpiredDeadline)
{
    // Deadline already fired: the engine must return the warm seed
    // verbatim (no search, no polish), marked timed out — the anytime
    // floor of the drift-remap path.
    Device dev = makeIbmQ14();
    ReliabilityMatrix rel = randomMatrix(dev, 95);
    Circuit c = decomposeToCnotBasis(makeBenchmark("Adder"));
    ProgramInfo info = ProgramInfo::fromCircuit(c);
    MappingOptions opts;
    opts.budget = CompileBudget::withDeadlineMs(0.0);
    opts.warmStart.resize(static_cast<size_t>(info.numProgQubits));
    std::iota(opts.warmStart.begin(), opts.warmStart.end(), 0);
    opts.warmStartOrigin = "drift(test)";
    Mapping m = mapQubits(info, rel, opts);
    EXPECT_EQ(m.engine, "warm");
    EXPECT_TRUE(m.timedOut);
    EXPECT_TRUE(m.warmStarted);
    EXPECT_FALSE(m.optimal);
    EXPECT_EQ(m.progToHw, opts.warmStart);
}

/**
 * Search identity. The exact searches are deterministic, so a change
 * that only makes a node cheaper must expand the same nodes in the same
 * order: the node count, each pruning counter, the placement and the
 * objective bits below were recorded once and are pinned exactly. The
 * supremacy rows are the fig13 ladder (grids on IBMQ14 noise, day 1,
 * fig13's 200000-node budget); the smaller budgets stop the product and
 * legacy-bound searches mid-tree, which pins their order as well.
 */
struct PinnedSearch
{
    const char *name;
    int rows, cols, depth; // supremacy grid (rows == 0: `bench`)
    uint64_t seed;
    const char *bench;  // benchmark program on the study device `device`
    const char *device;
    int day; // calibration day; -1: the average calibration
    MapperKind kind;
    MappingObjective objective;
    long nodeBudget;
    bool planner; // strong bound + symmetry + dominance
    bool warm;    // warm start from the identity placement
    // Recorded results.
    long nodes, boundPruned, symmetryPruned, dominancePruned;
    const char *progToHw;
    uint64_t minBits, logBits;
};

constexpr auto kMaxMin = MappingObjective::MaxMin;
constexpr auto kProduct = MappingObjective::Product;
constexpr auto kBnb = MapperKind::BranchAndBound;
constexpr auto kGreedy = MapperKind::Greedy;

// clang-format off
const PinnedSearch kPinned[] = {
    {"Sup3x4d24", 3, 4, 24, 11, "", "", 1, kBnb, kMaxMin, 200000, true, false,
     7654, 38688, 0, 0, "5,1,2,7,0,4,6,3,8,9,10,11",
     0x3fe9c97fde6b6d70, 0xc01cae24994ef3ee},
    {"Sup4x4d32", 4, 4, 32, 12, "", "", 1, kBnb, kMaxMin, 200000, true, false,
     187006, 1194160, 0, 0, "12,8,4,0,13,9,5,1,14,10,6,2,15,11,3,7",
     0x3fe9fb4672b2ab22, 0xc024f4afb79af7e4},
    {"Sup4x5d40", 4, 5, 40, 13, "", "", 1, kBnb, kMaxMin, 200000, true, false,
     183475, 1013481, 0, 0, "0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19",
     0x3fe9aa61d0404cf6, 0xc0315aacbb228b2a},
    {"Sup4x4d32.legacy", 4, 4, 32, 12, "", "", 1, kBnb, kMaxMin, 60000, false, false,
     60001, 286295, 0, 0, "12,8,4,0,13,9,5,1,14,10,6,2,15,11,3,7",
     0x3fe9fb4672b2ab22, 0xc024f4afb79af7e4},
    {"Sup4x4d32.warm", 4, 4, 32, 12, "", "", 1, kBnb, kMaxMin, 200000, true, true,
     170552, 1131963, 0, 0, "0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15",
     0x3fe9fb4672b2ab22, 0xc021d776af90dcbb},
    {"Sup3x4d24.product", 3, 4, 24, 11, "", "", 1, kBnb, kProduct, 60000, true, false,
     60001, 216927, 0, 0, "10,11,7,3,9,6,5,2,8,4,0,1",
     0x3fe8501d07d1cfd7, 0xc01cae28c84dc489},
    {"Sup4x5d40.product", 4, 5, 40, 13, "", "", 1, kBnb, kProduct, 60000, true, false,
     60001, 484420, 0, 0, "10,15,16,17,18,0,5,11,12,13,1,6,7,8,14,2,3,4,9,19",
     0x3fe1cc0e351167bf, 0xc03c8d4027cbfd73},
    {"Sup3x4d24.product.legacy", 3, 4, 24, 11, "", "", 1, kBnb, kProduct, 60000, false, false,
     60001, 212635, 0, 0, "10,11,7,3,9,6,5,2,8,4,0,1",
     0x3fe8501d07d1cfd7, 0xc01cae28c84dc489},
    {"Adder.product", 0, 0, 0, 0, "Adder", "IBMQ14", 1, kBnb, kProduct, 2000000, true, false,
     62, 683, 0, 0, "4,10,3,2",
     0x3fea90d045805102, 0xbffcbe1b70060305},
    {"BV8.product", 0, 0, 0, 0, "BV8", "IBMQ14", 1, kBnb, kProduct, 2000000, true, false,
     145863, 1012775, 0, 0, "2,4,11,5,10,12,1,3",
     0x3fe869dd837ab5c2, 0xbffb9ef867cebedc},
    {"Sup4x5d40.greedy", 4, 5, 40, 13, "", "", 1, kGreedy, kMaxMin, 0, true, false,
     0, 0, 0, 0, "15,10,11,13,19,17,6,1,3,14,16,5,0,2,4,18,12,7,8,9",
     0x3fde8347648988b2, 0xc045c06b9ec1e8a0},
    {"Sup4x4d32.greedy.product", 4, 4, 32, 12, "", "", 1, kGreedy, kProduct, 0, true, false,
     0, 0, 0, 0, "3,2,6,14,1,5,10,15,0,8,9,11,4,12,13,7",
     0x3fe73f7a156d85a6, 0xc02a437c976f2f6d},
    {"Sup4x4d32.greedy.warm", 4, 4, 32, 12, "", "", 1, kGreedy, kMaxMin, 0, true, true,
     0, 0, 0, 0, "0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15",
     0x3fe9fb4672b2ab22, 0xc021d776af90dcbb},
    {"BV8.avg.product", 0, 0, 0, 0, "BV8", "IBMQ14", -1, kBnb, kProduct, 2000000, true, false,
     62588, 442136, 0, 1267, "2,4,11,1,5,10,12,3",
     0x3fe5e675b53151e6, 0xc00375e78515f8ea},
    {"QFT.avg", 0, 0, 0, 0, "QFT", "IBMQ5", -1, kBnb, kMaxMin, 2000000, true, false,
     2, 4, 4, 0, "0,1,2,3",
     0x3fea1e5bc40f0a1f, 0xc0054ab5e61c6ac4},
    {"QFT.avg.product", 0, 0, 0, 0, "QFT", "IBMQ5", -1, kBnb, kProduct, 2000000, true, false,
     24, 24, 18, 0, "0,1,2,3",
     0x3fea1e5bc40f0a1f, 0xc0054ab5e61c6ac4},
};
// clang-format on

Device
studyDevice(const std::string &name)
{
    for (Device &dev : allStudyDevices())
        if (dev.name() == name)
            return dev;
    fatal("no study device named ", name);
}

std::string
joinMap(const std::vector<HwQubit> &map)
{
    std::string s;
    for (HwQubit h : map) {
        if (!s.empty())
            s += ',';
        s += std::to_string(h);
    }
    return s;
}

TEST(SearchIdentity, PinnedNodesPlacementsAndValues)
{
    for (const PinnedSearch &pc : kPinned) {
        SCOPED_TRACE(pc.name);
        Device dev = pc.rows == 0
                         ? studyDevice(pc.device)
                         : Device("Grid" + std::to_string(pc.rows * pc.cols),
                                  Topology::grid(pc.rows, pc.cols),
                                  GateSet::ibm(), makeIbmQ14().noiseSpec());
        Calibration calib =
            pc.day < 0 ? dev.averageCalibration() : dev.calibrate(pc.day);
        ReliabilityMatrix rel(dev.topology(), calib, dev.vendor());
        Circuit c = decomposeToCnotBasis(
            pc.rows == 0 ? makeBenchmark(pc.bench)
                         : makeSupremacy(pc.rows, pc.cols, pc.depth,
                                         pc.seed));
        ProgramInfo info = ProgramInfo::fromCircuit(c);
        MappingOptions opts = plannerOpts(pc.planner, pc.planner,
                                          pc.planner);
        opts.kind = pc.kind;
        opts.objective = pc.objective;
        if (pc.nodeBudget > 0)
            opts.nodeBudget = pc.nodeBudget;
        if (pc.warm) {
            opts.warmStart.resize(static_cast<size_t>(info.numProgQubits));
            std::iota(opts.warmStart.begin(), opts.warmStart.end(), 0);
        }
        Mapping m = mapQubits(info, rel, opts);
        const uint64_t min_bits = std::bit_cast<uint64_t>(m.minReliability);
        const uint64_t log_bits = std::bit_cast<uint64_t>(m.logProduct);
        // On a mismatch, print the row as recorded now, so a deliberate
        // search change can re-record it.
        char row[96];
        std::snprintf(row, sizeof(row), "%ld, %ld, %ld, %ld, ",
                      m.nodesExplored, m.boundPruned, m.symmetryPruned,
                      m.dominancePruned);
        char bits[64];
        std::snprintf(bits, sizeof(bits), "0x%llx, 0x%llx",
                      static_cast<unsigned long long>(min_bits),
                      static_cast<unsigned long long>(log_bits));
        SCOPED_TRACE(std::string("now: ") + row + "\"" +
                     joinMap(m.progToHw) + "\", " + bits);
        EXPECT_EQ(m.nodesExplored, pc.nodes);
        EXPECT_EQ(m.boundPruned, pc.boundPruned);
        EXPECT_EQ(m.symmetryPruned, pc.symmetryPruned);
        EXPECT_EQ(m.dominancePruned, pc.dominancePruned);
        EXPECT_EQ(joinMap(m.progToHw), pc.progToHw);
        EXPECT_EQ(min_bits, pc.minBits);
        EXPECT_EQ(log_bits, pc.logBits);
    }
}

} // namespace
} // namespace triq
