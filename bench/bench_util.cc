#include "bench_util.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "core/esp.hh"
#include "sim/compact.hh"
#include "sim/noise.hh"
#include "sim/statevector.hh"
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

/** Inject Pauli `code` (sampling-contract encoding) at site `s`. */
void
injectReferencePauli(StateVector &sv, const ErrorSite &s, int code)
{
    auto pauli = [&](int q, int which) { // 1 X, 2 Y, 3 Z
        if (which == 1)
            sv.applyX(q);
        else if (which == 2)
            sv.applyY(q);
        else if (which == 3)
            sv.applyZ(q);
    };
    if (s.idle)
        pauli(s.q0, 3);
    else if (s.q1 == -1)
        pauli(s.q0, code + 1);
    else {
        pauli(s.q0, code & 3);
        pauli(s.q1, (code >> 2) & 3);
    }
}

} // namespace

ExecutionResult
referenceExecute(const Circuit &hw, const Device &dev,
                 const Calibration &calib, int trials, uint64_t seed)
{
    if (trials < 1)
        fatal("referenceExecute: need at least one trial");
    Calibration safe = calib;
    Diagnostics diags("calibration");
    safe.validate(dev.topology(), ValidateMode::Sanitize, diags);
    diags.throwIfErrors("referenceExecute: unusable calibration");

    // Error sites live on the full-width circuit; relabel them onto the
    // compact register the simulation runs on.
    std::vector<ErrorSite> sites =
        collectErrorSites(hw, dev.topology(), safe);
    const CompactCircuit cc = compactCircuit(hw);
    for (ErrorSite &s : sites) {
        s.q0 = cc.hwToCompact[static_cast<size_t>(s.q0)];
        if (s.q1 != -1)
            s.q1 = cc.hwToCompact[static_cast<size_t>(s.q1)];
    }
    const Circuit &circ = cc.circuit;
    const std::vector<ProgQubit> measured = circ.measuredQubits();
    if (measured.empty())
        fatal("referenceExecute: circuit measures no qubits");
    std::vector<double> ro_err;
    for (ProgQubit q : measured)
        ro_err.push_back(
            safe.errRO[static_cast<size_t>(
                cc.compactToHw[static_cast<size_t>(q)])]);
    auto outcome_key = [&](uint64_t basis) {
        uint64_t key = 0;
        for (size_t k = 0; k < measured.size(); ++k)
            key |= ((basis >> measured[k]) & 1) << k;
        return key;
    };

    // Injection order: ascending (gateIdx, site index).
    std::vector<int> inj_order(sites.size());
    for (size_t i = 0; i < sites.size(); ++i)
        inj_order[i] = static_cast<int>(i);
    std::stable_sort(inj_order.begin(), inj_order.end(),
                     [&](int a, int b) {
                         return sites[static_cast<size_t>(a)].gateIdx <
                                sites[static_cast<size_t>(b)].gateIdx;
                     });

    // Gate by gate from |0...0>, each (site, code) injected right after
    // its site's gate; `injections` is in injection order.
    auto replay = [&](StateVector &sv,
                      const std::vector<std::pair<int, int>> &injections) {
        sv.reset();
        size_t next = 0;
        for (int gi = 0; gi < circ.numGates(); ++gi) {
            const Gate &g = circ.gate(gi);
            if (g.kind != GateKind::Measure)
                sv.applyGate(g);
            for (; next < injections.size() &&
                   sites[static_cast<size_t>(injections[next].first)]
                           .gateIdx == gi;
                 ++next)
                injectReferencePauli(
                    sv, sites[static_cast<size_t>(injections[next].first)],
                    injections[next].second);
        }
    };

    StateVector ideal(circ.numQubits());
    replay(ideal, {});
    std::vector<double> marginal(uint64_t{1} << measured.size(), 0.0);
    for (uint64_t b = 0; b < ideal.dim(); ++b)
        marginal[outcome_key(b)] += ideal.probability(b);

    ExecutionResult res;
    res.trials = trials;
    res.correctOutcome = static_cast<uint64_t>(
        std::max_element(marginal.begin(), marginal.end()) -
        marginal.begin());
    res.esp = estimatedSuccessProbability(hw, dev.topology(), safe);
    res.noErrorProb = noErrorProbability(sites);

    StateVector traj(circ.numQubits());
    std::vector<bool> fired(sites.size());
    std::vector<std::pair<int, int>> injections;
    int successes = 0;
    for (int lo = 0; lo < trials; lo += kTrialChunkSize) {
        Rng rng = Rng::stream(trialStreamSeed(seed),
                              static_cast<uint64_t>(lo / kTrialChunkSize));
        for (int t = lo; t < std::min(trials, lo + kTrialChunkSize); ++t) {
            for (size_t i = 0; i < sites.size(); ++i)
                fired[i] = rng.bernoulli(sites[i].prob);
            injections.clear();
            for (int si : inj_order) {
                const ErrorSite &s = sites[static_cast<size_t>(si)];
                if (!fired[static_cast<size_t>(si)])
                    continue;
                int code = s.idle        ? 0
                           : s.q1 == -1 ? rng.uniformInt(3)
                                         : 1 + rng.uniformInt(15);
                injections.emplace_back(si, code);
            }
            uint64_t basis;
            if (injections.empty()) {
                basis = ideal.sampleMeasurement(rng);
            } else {
                ++res.simulatedTrajectories;
                replay(traj, injections);
                basis = traj.sampleMeasurement(rng);
            }
            uint64_t key = outcome_key(basis);
            for (size_t k = 0; k < measured.size(); ++k)
                if (rng.bernoulli(ro_err[k]))
                    key ^= uint64_t{1} << k;
            if (key == res.correctOutcome)
                ++successes;
            ++res.histogram[key];
        }
    }
    res.successRate = static_cast<double>(successes) / trials;
    int modal_count = 0;
    for (const auto &[key, count] : res.histogram)
        modal_count = std::max(modal_count, count);
    res.correctIsModal = successes == modal_count;
    return res;
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
