/**
 * @file
 * Sweep-engine microbenchmark: runs a fig12-style grid (every study
 * benchmark x every study machine x the C and CN levels x a few
 * calibration days) through four configurations —
 *
 *   cold_serial   cache off, one thread (the pre-engine baseline:
 *                 every cell compiles from scratch);
 *   engine_cold   fresh cache, pooled workers (first sweep: the cache
 *                 fills, within-run dedup already saves work);
 *   warm          the same sweep again on the filled cache (every cell
 *                 must be an exact-fingerprint hit);
 *   drift_replay  fresh cache with a drift threshold: new days reuse
 *                 stale CN artifacts within the threshold and
 *                 recompile past it —
 *
 * and emits BENCH_sweep.json with wall clocks, the warm-vs-cold-serial
 * speedup, hit rates and drift counters.
 *
 * The run doubles as the acceptance check for the determinism
 * contract: every warm cache hit's canonical artifact text
 * (core/fingerprint.hh) must be byte-identical to the cold serial
 * compile of the same cell, and the engine-cold pass (parallel,
 * deduped) must match cold serial cell for cell. The process exits 4
 * on any mismatch and 5 when the warm sweep compiled anything.
 *
 * Usage:
 *   micro_sweep [--days N] [--threads N] [--drift T] [--reps N]
 *               [--json FILE]
 */

#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/flags.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "core/fingerprint.hh"
#include "service/sweep.hh"
#include "workloads/benchmarks.hh"

using namespace triq;

namespace
{

const char *
levelToken(OptLevel level)
{
    return level == OptLevel::OneQOptC ? "c" : "cn";
}

} // namespace

int
main(int argc, char **argv)
try {
    int days = 2;
    int threads = std::max(2, ThreadPool::hardwareThreads());
    int reps = 3;
    double drift = 0.05;
    std::string json_file;
    Flags("micro_sweep")
        .add("--days", days)
        .add("--threads", threads)
        .add("--drift", drift)
        .add("--reps", reps)
        .add("--json", json_file)
        .parse(argc, argv);
    if (days < 1 || threads < 1 || reps < 1)
        fatal("micro_sweep: --days, --threads and --reps must be >= 1");

    // The fig12 grid: every study benchmark on every study machine at
    // the communication-optimized and noise-adaptive levels.
    SweepConfig cfg;
    for (const std::string &name : benchmarkNames())
        cfg.programs.push_back({name, makeBenchmark(name)});
    cfg.devices = allStudyDevices();
    for (int d = 0; d < days; ++d)
        cfg.days.push_back(d);
    cfg.levels = {OptLevel::OneQOptC, OptLevel::OneQOptCN};
    cfg.options.emitAssembly = false;
    cfg.threads = threads;
    cfg.driftThreshold = -1.0;

    // Time `n` sweeps of `c` (min over them); the first one's result
    // lands in `first`.
    auto sweepMs = [](const SweepConfig &c, CompileCache *cache, int n,
                      SweepResult &first) {
        SweepResult last;
        return bench::rotatedMinMs(
            1, n, [&](int) { last = runSweep(c, cache); },
            [&](int, int rep) {
                if (rep == 0)
                    first = std::move(last);
            })[0];
    };

    // --- cold serial: the pre-engine baseline and the identity oracle.
    SweepConfig serial = cfg;
    serial.useCache = false;
    serial.threads = 1;
    SweepResult cold;
    double cold_serial_ms = sweepMs(serial, nullptr, reps, cold);
    std::vector<std::string> oracle(cold.cells.size());
    for (size_t i = 0; i < cold.cells.size(); ++i)
        if (cold.cells[i].result)
            oracle[i] = canonicalCompileResultText(*cold.cells[i].result);

    // --- engine cold + warm on one cache.
    CompileCache cache;
    SweepResult engine_cold, warm;
    double engine_cold_ms = sweepMs(cfg, &cache, 1, engine_cold);
    double warm_ms = sweepMs(cfg, &cache, reps, warm);

    // Identity: parallel/deduped/warm artifacts must match cold serial
    // byte for byte, cell for cell.
    bench::Verdict verdict("micro_sweep");
    auto checkIdentity = [&](const SweepResult &res, const char *pass) {
        for (size_t i = 0; i < res.cells.size(); ++i) {
            const SweepCell &c = res.cells[i];
            if (c.source == CellSource::Skipped)
                continue;
            if (canonicalCompileResultText(*c.result) != oracle[i])
                verdict.breach(
                    std::string(pass) + " cell " +
                    cfg.programs[c.programIndex].name + "/" +
                    cfg.devices[c.deviceIndex].name() + "/day" +
                    std::to_string(c.day) + "/" + levelToken(c.level) +
                    " differs from cold serial");
        }
    };
    checkIdentity(engine_cold, "engine_cold");
    checkIdentity(warm, "warm");
    int warm_compiles = warm.stats.compiles;
    if (warm_compiles > 0)
        verdict.warmRecompile("the warm sweep compiled " +
                              std::to_string(warm_compiles) + " cells");

    // --- drift replay: fresh cache, day-by-day with a threshold.
    SweepConfig driftCfg = cfg;
    driftCfg.driftThreshold = drift;
    CompileCache drift_cache;
    SweepResult replay;
    double drift_ms = sweepMs(driftCfg, &drift_cache, 1, replay);
    CompileCache::Stats ds = drift_cache.stats();

    JsonWriter json;
    json.beginObject()
        .key("grid").beginObject()
        .key("programs").value(static_cast<long>(cfg.programs.size()))
        .key("devices").value(static_cast<long>(cfg.devices.size()))
        .key("days").value(days)
        .key("levels").value(2)
        .key("cells").value(cold.stats.cells)
        .key("skipped").value(cold.stats.skipped)
        .endObject()
        .key("threads").value(threads)
        .key("reps").value(reps)
        .key("cold_serial_ms").value(cold_serial_ms)
        .key("engine_cold_ms").value(engine_cold_ms)
        .key("warm_ms").value(warm_ms)
        .key("drift_replay_ms").value(drift_ms)
        .key("engine_cold_compiles").value(engine_cold.stats.compiles)
        .key("engine_cold_cache_hits").value(engine_cold.stats.cacheHits)
        .key("warm_compiles").value(warm_compiles)
        .key("warm_hit_rate")
        .value(bench::ratio(warm.stats.cacheHits, warm.stats.cells))
        .key("speedup_warm_vs_cold_serial")
        .value(bench::ratio(cold_serial_ms, warm_ms))
        .key("speedup_engine_cold_vs_cold_serial")
        .value(bench::ratio(cold_serial_ms, engine_cold_ms))
        .key("drift").beginObject()
        .key("threshold").value(drift)
        .key("compiles").value(replay.stats.compiles)
        .key("reuses").value(replay.stats.driftReuses)
        .key("recompiles").value(replay.stats.driftRecompiles)
        .key("checks").value(ds.driftChecks)
        .key("invalidations").value(ds.driftInvalidations)
        .endObject()
        .key("identical").value(!verdict.breached())
        .endObject();

    bench::writeReport("micro_sweep", json, json_file);
    return verdict.exitCode();
} catch (const FatalError &) {
    return bench::Verdict::kFatal;
}
