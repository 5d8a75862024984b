/**
 * @file
 * Noise-model and executor tests: error-site enumeration, analytic
 * cross-checks of measured success rates, determinism, the modal
 * outcome flag, and both memory plans against the per-trial reference
 * (bench_util's referenceExecute).
 */

#include <cmath>

#include <gtest/gtest.h>

#include "common/logging.hh"

#include "core/compiler.hh"
#include "device/machines.hh"
#include "sim/executor.hh"
#include "sim/noise.hh"
#include "workloads/benchmarks.hh"

#include "bench_util.hh"
#include "budget_guard.hh"

namespace triq
{
namespace
{

/** A 2-qubit line device with fully controllable error rates. */
Device
probe(double e1, double e2, double ro, double t2 = 1e18)
{
    Topology t = Topology::line(2);
    NoiseSpec spec{e1, e2, ro, t2, 0.0, 0.0, {0.1, 0.4, 3.0}};
    return Device("Probe2", std::move(t), GateSet::rigetti(), spec);
}

TEST(Noise, SiteEnumeration)
{
    Device dev = probe(0.01, 0.05, 0.1);
    Calibration c = dev.averageCalibration();
    Circuit circ(2);
    circ.add(Gate::rx(0, kPi / 2)); // 1 pulse -> one site (p=0.01)
    circ.add(Gate::rz(0, 1.0));     // virtual -> no site
    circ.add(Gate::cz(0, 1));       // -> one site (p=0.05)
    circ.add(Gate::measure(0));     // readout handled classically
    auto sites = collectErrorSites(circ, dev.topology(), c);
    ASSERT_EQ(sites.size(), 2u);
    EXPECT_DOUBLE_EQ(sites[0].prob, 0.01);
    EXPECT_EQ(sites[0].q1, -1);
    EXPECT_DOUBLE_EQ(sites[1].prob, 0.05);
    EXPECT_EQ(sites[1].q1, 1);
    EXPECT_NEAR(noErrorProbability(sites), 0.99 * 0.95, 1e-12);
}

TEST(Noise, IdleSitesFromCoherence)
{
    Device dev = probe(0.0, 0.0, 0.0, 10.0);
    Calibration c = dev.averageCalibration();
    Circuit circ(2);
    circ.add(Gate::rx(1, kPi / 2));
    for (int i = 0; i < 5; ++i)
        circ.add(Gate::rx(0, kPi / 2)); // q1 idles 0.4us.
    circ.add(Gate::cz(0, 1));
    auto sites = collectErrorSites(circ, dev.topology(), c);
    ASSERT_EQ(sites.size(), 1u);
    EXPECT_TRUE(sites[0].idle);
    EXPECT_EQ(sites[0].q0, 1);
    EXPECT_NEAR(sites[0].prob, 1.0 - std::exp(-0.4 / 10.0), 1e-9);
}

TEST(Executor, ReadoutOnlyErrorsMatchAnalytic)
{
    // Only readout errors: success = (1-ro)^2 exactly (in expectation).
    Device dev = probe(0.0, 0.0, 0.08);
    Calibration c = dev.averageCalibration();
    Circuit circ(2, "ro");
    circ.add(Gate::x(0));
    circ.add(Gate::measure(0));
    circ.add(Gate::measure(1));
    ExecutionResult r = executeNoisy(circ, dev, c, 40000, 7);
    EXPECT_EQ(r.correctOutcome, 1u);
    EXPECT_NEAR(r.successRate, 0.92 * 0.92, 0.01);
    EXPECT_EQ(r.simulatedTrajectories, 0);
    EXPECT_DOUBLE_EQ(r.noErrorProb, 1.0);
}

TEST(Executor, TwoQubitErrorsReduceSuccess)
{
    Device dev = probe(0.0, 0.10, 0.0);
    Calibration c = dev.averageCalibration();
    Circuit circ(2, "chain");
    for (int i = 0; i < 5; ++i)
        circ.add(Gate::cz(0, 1));
    circ.add(Gate::measure(0));
    circ.add(Gate::measure(1));
    ExecutionResult r = executeNoisy(circ, dev, c, 20000, 11);
    // ESP = 0.9^5 ~ 0.59; many sampled Paulis (Z-type) still leave the
    // |00> outcome intact, so success exceeds ESP but stays below 1.
    EXPECT_NEAR(r.esp, std::pow(0.9, 5), 1e-9);
    EXPECT_GT(r.successRate, r.esp - 0.02);
    EXPECT_LT(r.successRate, 1.0);
    EXPECT_GT(r.simulatedTrajectories, 0);
}

TEST(Executor, XErrorAlwaysFlipsOutcome)
{
    // A single 1Q error site with p=1: the injected Pauli is X, Y or Z
    // uniformly; X/Y flip the measured bit, so success ~ 1/3.
    Device dev = probe(1.0, 0.0, 0.0);
    Calibration c = dev.averageCalibration();
    c.err1q = {1.0, 0.0};
    Circuit circ(2, "flip");
    circ.add(Gate::rx(0, 2 * kPi)); // Identity rotation, but one pulse.
    circ.add(Gate::measure(0));
    ExecutionResult r = executeNoisy(circ, dev, c, 30000, 13);
    EXPECT_NEAR(r.successRate, 1.0 / 3.0, 0.01);
}

TEST(Executor, DeterministicForFixedSeed)
{
    Device dev = makeIbmQ5();
    Calibration c = dev.calibrate(2);
    Circuit program = makeBenchmark("Peres");
    CompileOptions opts;
    CompileResult res = compileForDevice(program, dev, c, opts);
    ExecutionResult a = executeNoisy(res.hwCircuit, dev, c, 2000, 99);
    ExecutionResult b = executeNoisy(res.hwCircuit, dev, c, 2000, 99);
    EXPECT_DOUBLE_EQ(a.successRate, b.successRate);
    ExecutionResult d = executeNoisy(res.hwCircuit, dev, c, 2000, 100);
    EXPECT_NE(a.successRate, d.successRate);
}

TEST(Executor, ModalFlagDropsUnderHeavyNoise)
{
    // With near-certain bit flips the correct answer cannot dominate.
    Device dev = probe(0.0, 0.0, 0.95);
    Calibration c = dev.averageCalibration();
    Circuit circ(2, "hopeless");
    circ.add(Gate::x(0));
    circ.add(Gate::measure(0));
    circ.add(Gate::measure(1));
    ExecutionResult r = executeNoisy(circ, dev, c, 5000, 3);
    EXPECT_FALSE(r.correctIsModal);
    EXPECT_LT(r.successRate, 0.2);

    Device good = probe(0.0, 0.0, 0.01);
    ExecutionResult g =
        executeNoisy(circ, good, good.averageCalibration(), 5000, 3);
    EXPECT_TRUE(g.correctIsModal);
}

TEST(Executor, OutcomeForProgramUnscramblesRouting)
{
    Device dev = makeIbmQ14();
    Calibration c = dev.calibrate(4);
    Circuit program = makeBV(6, 0b10110);
    CompileOptions opts;
    CompileResult res = compileForDevice(program, dev, c, opts);
    ExecutionResult r = executeNoisy(res.hwCircuit, dev, c, 100, 5);
    uint64_t recovered = outcomeForProgram(
        r.correctOutcome, res.hwCircuit, res.finalMap,
        program.measuredQubits());
    EXPECT_EQ(recovered, 0b10110u);
}

TEST(Executor, TrialsValidation)
{
    Device dev = probe(0.0, 0.0, 0.0);
    Circuit circ(2, "v");
    circ.add(Gate::measure(0));
    EXPECT_THROW(
        executeNoisy(circ, dev, dev.averageCalibration(), 0),
        FatalError);
    Circuit nomeas(2, "nm");
    nomeas.add(Gate::x(0));
    EXPECT_THROW(
        executeNoisy(nomeas, dev, dev.averageCalibration(), 10),
        FatalError);
}

TEST(Noise, CrosstalkScalesSimultaneousAdjacent2q)
{
    // Line of 4 with two parallel CZs on (0,1) and (2,3): edges are
    // spatially adjacent (qubits 1 and 2 are neighbors) and the gates
    // overlap in time, so both sites scale by (1 + factor).
    Topology t = Topology::line(4);
    NoiseSpec spec{0.0, 0.05, 0.0, 1e18, 0.0, 0.0, {0.1, 0.4, 3.0}};
    spec.crosstalkFactor = 1.0;
    Device dev("XTalk", std::move(t), GateSet::rigetti(), spec);
    Calibration c = dev.averageCalibration();
    EXPECT_DOUBLE_EQ(c.crosstalkFactor, 1.0);

    Circuit parallel(4);
    parallel.add(Gate::cz(0, 1));
    parallel.add(Gate::cz(2, 3));
    auto sites = collectErrorSites(parallel, dev.topology(), c);
    ASSERT_EQ(sites.size(), 2u);
    EXPECT_DOUBLE_EQ(sites[0].prob, 0.10);
    EXPECT_DOUBLE_EQ(sites[1].prob, 0.10);

    // Serialized via a barrier: no temporal overlap, no scaling.
    Circuit serial(4);
    serial.add(Gate::cz(0, 1));
    serial.add(Gate::barrier());
    serial.add(Gate::cz(2, 3));
    auto serial_sites = collectErrorSites(serial, dev.topology(), c);
    ASSERT_EQ(serial_sites.size(), 2u);
    EXPECT_DOUBLE_EQ(serial_sites[0].prob, 0.05);
    EXPECT_DOUBLE_EQ(serial_sites[1].prob, 0.05);
}

TEST(Noise, CrosstalkRequiresSpatialAdjacency)
{
    // Line of 5: CZs on (0,1) and (3,4) are simultaneous but separated
    // by an uninvolved qubit, so no scaling applies.
    Topology t = Topology::line(5);
    NoiseSpec spec{0.0, 0.05, 0.0, 1e18, 0.0, 0.0, {0.1, 0.4, 3.0}};
    spec.crosstalkFactor = 1.0;
    Device dev("XTalk5", std::move(t), GateSet::rigetti(), spec);
    Calibration c = dev.averageCalibration();
    Circuit circ(5);
    circ.add(Gate::cz(0, 1));
    circ.add(Gate::cz(3, 4));
    auto sites = collectErrorSites(circ, dev.topology(), c);
    ASSERT_EQ(sites.size(), 2u);
    EXPECT_DOUBLE_EQ(sites[0].prob, 0.05);
    EXPECT_DOUBLE_EQ(sites[1].prob, 0.05);
}

TEST(Executor, BitIdenticalAcrossThreadCounts)
{
    Device dev = makeIbmQ5();
    Calibration c = dev.calibrate(2);
    Circuit program = makeBenchmark("Peres");
    CompileOptions opts;
    CompileResult res = compileForDevice(program, dev, c, opts);
    ExecOptions serial;
    serial.threads = 1;
    ExecutionResult base =
        executeNoisy(res.hwCircuit, dev, c, 1500, 99, serial);
    EXPECT_GT(base.simulatedTrajectories, 0);
    for (int threads : {2, 8}) {
        ExecOptions t;
        t.threads = threads;
        ExecutionResult r =
            executeNoisy(res.hwCircuit, dev, c, 1500, 99, t);
        EXPECT_DOUBLE_EQ(r.successRate, base.successRate);
        EXPECT_EQ(r.simulatedTrajectories, base.simulatedTrajectories);
        EXPECT_EQ(r.correctOutcome, base.correctOutcome);
        EXPECT_EQ(r.histogram, base.histogram);
    }
    // sortedHistogram: ascending keys, counts summing to trials.
    auto sorted = base.sortedHistogram();
    long total = 0;
    for (size_t i = 0; i < sorted.size(); ++i) {
        if (i > 0) {
            EXPECT_LT(sorted[i - 1].first, sorted[i].first);
        }
        total += sorted[i].second;
    }
    EXPECT_EQ(total, base.trials);
}

/**
 * The engine under both memory plans against the per-trial reference:
 * the default plan (checkpoints, fused operators aligned to them), the
 * low-memory plan (forced by a budget below the full plan; no
 * checkpoints) and bench::referenceExecute (gate by gate from |0...0>
 * per faulty trial) must agree on every outcome count.
 */
void
expectPlansMatchReference(const Circuit &circ, const Device &dev,
                          const Calibration &c, int trials, uint64_t seed,
                          uint64_t low_mem_budget)
{
    ExecutionResult ref =
        bench::referenceExecute(circ, dev, c, trials, seed);
    ExecutionResult full = executeNoisy(circ, dev, c, trials, seed);
    ExecutionResult low;
    {
        BudgetGuard guard(low_mem_budget);
        low = executeNoisy(circ, dev, c, trials, seed);
    }
    for (const ExecutionResult *r : {&full, &low}) {
        EXPECT_DOUBLE_EQ(r->successRate, ref.successRate);
        EXPECT_EQ(r->correctOutcome, ref.correctOutcome);
        EXPECT_EQ(r->histogram, ref.histogram);
        EXPECT_LE(r->simulatedTrajectories, ref.simulatedTrajectories);
    }
    EXPECT_EQ(low.simulatedTrajectories, full.simulatedTrajectories);
}

TEST(Executor, CheckpointedReplayMatchesFullReplay)
{
    // Certain 1Q error sites force every trial onto the trajectory
    // path, so checkpoint resumes (one per gate on this small
    // register), the checkpoint-free low-memory plan and the
    // reference's full replays are all fully exercised.
    Device dev = probe(1.0, 0.3, 0.02);
    Calibration c = dev.averageCalibration();
    c.err1q = {1.0, 1.0};
    Circuit circ(2, "forced");
    for (int i = 0; i < 6; ++i) {
        circ.add(Gate::rx(0, kPi / 3));
        circ.add(Gate::rx(1, kPi / 5));
        circ.add(Gate::cz(0, 1));
    }
    circ.add(Gate::measure(0));
    circ.add(Gate::measure(1));
    EXPECT_EQ(bench::referenceExecute(circ, dev, c, 800, 21)
                  .simulatedTrajectories,
              800);
    expectPlansMatchReference(circ, dev, c, 800, 21, 1ull << 20);
}

TEST(Executor, WideCircuitAlignsFusionToCheckpoints)
{
    // 16 active qubits (1 MiB per state) and 126 gates: the 64 MiB
    // checkpoint budget holds 64 snapshots, so the automatic interval
    // is 2 and fused operators are cut at every second gate. The
    // circuit undoes itself (ideal answer 0) and measures all 16
    // qubits, which takes the sparse histogram path.
    const int n = 16;
    Topology t = Topology::line(n);
    NoiseSpec spec{0.002, 0.01, 0.02, 1e18, 0.0, 0.0, {0.1, 0.4, 3.0}};
    Device dev("Probe16", std::move(t), GateSet::rigetti(), spec);
    Calibration c = dev.averageCalibration();
    Circuit circ(n, "wide");
    auto rx_layer = [&](double theta) {
        for (int q = 0; q < n; ++q)
            circ.add(Gate::rx(q, theta));
    };
    auto cz_block = [&] {
        for (int layer = 0; layer < 3; ++layer)
            for (int q = layer % 2; q + 1 < n; q += 2)
                circ.add(Gate::cz(q, q + 1));
    };
    rx_layer(kPi / 2);
    cz_block();
    rx_layer(kPi / 3);
    rx_layer(-kPi / 3);
    cz_block();
    rx_layer(-kPi / 2);
    for (int q = 0; q < n; ++q)
        circ.add(Gate::measure(q));
    ASSERT_EQ(circ.numGates(), 126);
    // Budget: the low-memory plan (2 states) plus room for a few
    // snapshots, well below the full plan's 64 MiB checkpoint
    // allowance.
    expectPlansMatchReference(circ, dev, c, 120, 5, 8ull << 20);
}

TEST(Executor, DefaultSimThreadsEnv)
{
    unsetenv("TRIQ_SIM_THREADS");
    EXPECT_EQ(defaultSimThreads(), 1);
    setenv("TRIQ_SIM_THREADS", "6", 1);
    EXPECT_EQ(defaultSimThreads(), 6);
    setenv("TRIQ_SIM_THREADS", "zero?", 1);
    EXPECT_EQ(defaultSimThreads(), 1);
    unsetenv("TRIQ_SIM_THREADS");
}

TEST(Executor, DefaultTrialsEnv)
{
    unsetenv("TRIQ_TRIALS");
    EXPECT_EQ(defaultTrials(1234), 1234);
    setenv("TRIQ_TRIALS", "77", 1);
    EXPECT_EQ(defaultTrials(1234), 77);
    setenv("TRIQ_TRIALS", "bogus", 1);
    EXPECT_EQ(defaultTrials(1234), 1234);
    unsetenv("TRIQ_TRIALS");
}

} // namespace
} // namespace triq
