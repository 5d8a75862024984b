#include "bench_util.hh"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "workloads/benchmarks.hh"

namespace triq
{
namespace bench
{

Device
deviceByName(const std::string &name)
{
    for (auto &d : allStudyDevices())
        if (d.name() == name)
            return d;
    fatal("bench: unknown device '", name, "'");
}

int
defaultDay()
{
    return envInt("TRIQ_DAY", 3, 0);
}

CompileCache &
processCompileCache()
{
    static CompileCache cache;
    return cache;
}

CompileResult
compileTriq(const Circuit &program, const Device &dev, OptLevel level,
            int day)
{
    Calibration calib = dev.calibrate(day);
    CompileOptions opts;
    opts.level = level;
    opts.emitAssembly = false;
    if (!cacheEnabledFromEnv())
        return compileForDevice(program, dev, calib, opts);
    CachedCompile cc = compileThroughCache(&processCompileCache(),
                                           program, dev, day, calib, opts);
    return *cc.result;
}

void
forEachStudyBenchmark(
    const Device &dev,
    const std::function<void(const std::string &, const Circuit &)> &row,
    const std::function<void(const std::string &)> &skip)
{
    for (const std::string &name : benchmarkNames()) {
        Circuit program = makeBenchmark(name);
        if (program.numQubits() > dev.numQubits()) {
            if (skip)
                skip(name);
            continue;
        }
        row(name, program);
    }
}

void
Ratios::add(double r)
{
    if (r > 0)
        ratios_.push_back(r);
}

std::string
Ratios::summary() const
{
    return "geomean: " + fmtFactor(geomean(ratios_)) +
           "  max: " + fmtFactor(maxOf(ratios_));
}

RunPoint
runTriq(const Circuit &program, const Device &dev, OptLevel level, int day,
        int trials)
{
    Calibration calib = dev.calibrate(day);
    RunPoint pt;
    pt.compiled = compileTriq(program, dev, level, day);
    pt.executed = executeNoisy(pt.compiled.hwCircuit, dev, calib, trials,
                               0x5EED0000 + static_cast<uint64_t>(day));
    return pt;
}

ExecutionResult
runCompiled(const CompileResult &res, const Device &dev, int day,
            int trials)
{
    Calibration calib = dev.calibrate(day);
    return executeNoisy(res.hwCircuit, dev, calib, trials,
                        0x5EED0000 + static_cast<uint64_t>(day));
}

std::string
successCell(const ExecutionResult &ex)
{
    std::string s = fmtF(ex.successRate, 3);
    if (!ex.correctIsModal)
        s += "*";
    return s;
}

namespace
{

/** Parse all of `text` as a number of type T, or fail. */
template <typename T>
T
parseNumber(const std::string &prog, const std::string &flag,
            const std::string &text)
{
    T v{};
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || text.empty())
        fatal(prog, ": ", flag, " needs a number, got '", text, "'");
    return v;
}

} // namespace

void
Flags::parse(int argc, char **argv) const
{
    for (int i = 1; i < argc; ++i) {
        auto spec = std::find_if(specs_.begin(), specs_.end(),
                                 [&](const Spec &s) {
                                     return s.name == argv[i];
                                 });
        if (spec == specs_.end())
            fatal(prog_, ": unknown argument '", argv[i], "'");
        if (bool *const *sw = std::get_if<bool *>(&spec->dst)) {
            **sw = true;
            continue;
        }
        if (i + 1 >= argc)
            fatal(prog_, ": ", spec->name, " needs a value");
        const std::string v = argv[++i];
        std::visit(
            [&](auto *dst) {
                using T = std::remove_pointer_t<decltype(dst)>;
                if constexpr (std::is_same_v<T, std::vector<int>>) {
                    dst->clear();
                    std::stringstream ss(v);
                    std::string tok;
                    while (std::getline(ss, tok, ','))
                        dst->push_back(
                            parseNumber<int>(prog_, spec->name, tok));
                } else if constexpr (std::is_same_v<
                                         T, std::vector<std::string>>) {
                    dst->push_back(v);
                } else if constexpr (std::is_same_v<T, std::string>) {
                    *dst = v;
                } else if constexpr (!std::is_same_v<T, bool>) {
                    *dst = parseNumber<T>(prog_, spec->name, v);
                }
            },
            spec->dst);
    }
}

std::vector<double>
rotatedMinMs(int modes, int reps, const std::function<void(int)> &timed,
             const std::function<void(int, int)> &after)
{
    using Clock = std::chrono::steady_clock;
    std::vector<double> best(static_cast<size_t>(modes), 0.0);
    for (int rep = 0; rep < reps; ++rep)
        for (int k = 0; k < modes; ++k) {
            const int m = (rep + k) % modes;
            const auto t0 = Clock::now();
            timed(m);
            const double ms = std::chrono::duration<double, std::milli>(
                                  Clock::now() - t0)
                                  .count();
            double &slot = best[static_cast<size_t>(m)];
            if (rep == 0 || ms < slot)
                slot = ms;
            if (after)
                after(m, rep);
        }
    return best;
}

void
Verdict::record(int code, const char *tag, const std::string &what)
{
    codes_.insert(code);
    std::cerr << prog_ << ": " << tag << " " << what << "\n";
}

bool
Verdict::checkLoss(const LossGate &gate, const std::string &row,
                   double baseline_ms, double candidate_ms, bool gated)
{
    const double speedup = ratio(baseline_ms, candidate_ms);
    if (!gated || speedup >= gate.tolerance ||
        candidate_ms - baseline_ms <= gate.noiseFloorMs)
        return true;
    std::ostringstream msg;
    msg << row << ": adaptive_speedup " << speedup << " < tolerance "
        << gate.tolerance << " and the loss exceeds the noise floor "
        << "(serial " << baseline_ms << " ms, adaptive " << candidate_ms
        << " ms)";
    gateFail(msg.str());
    return false;
}

void
writeReport(const std::string &prog, const JsonWriter &report,
            const std::string &path)
{
    std::cout << report.str() << "\n";
    if (path.empty())
        return;
    std::ofstream out(path);
    if (!out)
        fatal(prog, ": cannot write '", path, "'");
    out << report.str() << "\n";
}

double
ratio(double a, double b)
{
    return b > 0.0 ? a / b : 0.0;
}

} // namespace bench
} // namespace triq
