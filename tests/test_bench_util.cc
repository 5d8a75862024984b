/**
 * @file
 * Micro-bench harness tests (bench/bench_util): the verdict-to-exit-code
 * mapping every perf gate relies on, including the timing gate's two
 * bounds, plus the flag parser and the rotated timer. These prove the
 * gates can fail without timing anything, so they carry no "perf"
 * label and run in every build.
 */

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.hh"
#include "common/logging.hh"

namespace triq
{
namespace
{

using bench::LossGate;
using bench::Verdict;

TEST(BenchVerdict, CleanRunPasses)
{
    Verdict v("test");
    EXPECT_EQ(v.exitCode(), 0);
    EXPECT_FALSE(v.breached());
    EXPECT_TRUE(v.gatePassed());
}

TEST(BenchVerdict, DivergenceExitsFour)
{
    Verdict v("test");
    v.breach("BV8: results differ across configs");
    EXPECT_EQ(v.exitCode(), 4);
    EXPECT_TRUE(v.breached());
}

TEST(BenchVerdict, WarmRecompileExitsFive)
{
    Verdict v("test");
    v.warmRecompile("the warm sweep compiled 3 cells");
    EXPECT_EQ(v.exitCode(), 5);
}

TEST(BenchVerdict, LossBeyondToleranceAndNoiseFloorExitsSix)
{
    Verdict v("test");
    LossGate gate; // tolerance 0.90, noise floor 1 ms
    // 10 ms serial vs 20 ms adaptive: speedup 0.5, loss 10 ms.
    EXPECT_FALSE(v.checkLoss(gate, "row", 10.0, 20.0));
    EXPECT_EQ(v.exitCode(), 6);
    EXPECT_FALSE(v.gatePassed());
}

TEST(BenchVerdict, LossInsideNoiseFloorPasses)
{
    Verdict v("test");
    LossGate gate;
    // Speedup 0.2 is far below tolerance, but the 0.4 ms loss is timer
    // noise on a sub-millisecond row.
    EXPECT_TRUE(v.checkLoss(gate, "row", 0.1, 0.5));
    // Past the floor but within tolerance: 20 ms vs 21.5 ms.
    EXPECT_TRUE(v.checkLoss(gate, "row", 20.0, 21.5));
    EXPECT_EQ(v.exitCode(), 0);
}

TEST(BenchVerdict, SerialPlannedRowIsExempt)
{
    Verdict v("test");
    LossGate gate;
    // The planner kept the row serial: both timings ran the same code,
    // so even a large loss is noise.
    EXPECT_TRUE(v.checkLoss(gate, "row", 10.0, 40.0, false));
    EXPECT_EQ(v.exitCode(), 0);
}

TEST(BenchVerdict, ToleranceAndFloorComeFromTheGate)
{
    Verdict v("test");
    LossGate loose{0.25, 50.0};
    EXPECT_TRUE(v.checkLoss(loose, "row", 10.0, 20.0));
    LossGate strict{1.0, 0.0};
    EXPECT_FALSE(v.checkLoss(strict, "row", 10.0, 10.5));
    EXPECT_EQ(v.exitCode(), 6);
}

TEST(BenchVerdict, BreachOutranksWarmRecompileOutranksGate)
{
    Verdict v("test");
    v.gateFail("nodes grew");
    EXPECT_EQ(v.exitCode(), 6);
    v.warmRecompile("1 cell");
    EXPECT_EQ(v.exitCode(), 5);
    v.breach("values differ");
    EXPECT_EQ(v.exitCode(), 4);
}

TEST(BenchTimer, RotatesTheOrderAndKeepsEveryMode)
{
    std::vector<std::pair<int, int>> calls; // (mode, rep) via after()
    std::vector<int> timed_order;
    std::vector<double> ms = bench::rotatedMinMs(
        3, 2, [&](int m) { timed_order.push_back(m); },
        [&](int m, int rep) { calls.emplace_back(m, rep); });
    EXPECT_EQ(timed_order, (std::vector<int>{0, 1, 2, 1, 2, 0}));
    EXPECT_EQ(calls, (std::vector<std::pair<int, int>>{
                         {0, 0}, {1, 0}, {2, 0}, {1, 1}, {2, 1}, {0, 1}}));
    ASSERT_EQ(ms.size(), 3u);
    for (double t : ms)
        EXPECT_GE(t, 0.0);
}

} // namespace
} // namespace triq
