#include "device/calibration.hh"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/fault_injector.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/text.hh"
#include "device/topology.hh"

namespace triq
{

namespace
{

/** Keep synthesized error rates physical and nonzero. */
double
clampError(double e)
{
    return std::clamp(e, 1e-5, 0.5);
}

/**
 * Log-normal sample whose *mean* is `target_mean` given total sigma.
 * (Log-normal mean = median * exp(sigma^2 / 2).)
 */
double
meanPreservingMedian(double target_mean, double sigma)
{
    return target_mean * std::exp(-0.5 * sigma * sigma);
}

} // namespace

double
Calibration::avg1q() const
{
    double s = 0.0;
    for (double e : err1q)
        s += e;
    return err1q.empty() ? 0.0 : s / static_cast<double>(err1q.size());
}

double
Calibration::avg2q() const
{
    double s = 0.0;
    for (double e : err2q)
        s += e;
    return err2q.empty() ? 0.0 : s / static_cast<double>(err2q.size());
}

double
Calibration::avgRO() const
{
    double s = 0.0;
    for (double e : errRO)
        s += e;
    return errRO.empty() ? 0.0 : s / static_cast<double>(errRO.size());
}

void
Calibration::save(std::ostream &os) const
{
    // Full round-trip precision: error rates feed reliability products
    // where tiny differences change mapper decisions. The text is built
    // by common/text, so neither the stream's nor the global locale can
    // group digits or change the decimal point.
    std::string out = "calibration v2\nqubits ";
    appendInt(out, numQubits);
    out += "\nedges ";
    appendInt(out, static_cast<long>(err2q.size()));
    out += "\ndurations ";
    appendExact(out, durations.oneQ);
    out += ' ';
    appendExact(out, durations.twoQ);
    out += ' ';
    appendExact(out, durations.readout);
    out += "\ncrosstalk ";
    appendExact(out, crosstalkFactor);
    auto list = [&](const char *key, const std::vector<double> &values) {
        out += '\n';
        out += key;
        for (double v : values) {
            out += ' ';
            appendExact(out, v);
        }
    };
    list("err1q", err1q);
    list("errRO", errRO);
    list("t2us", t2Us);
    list("err2q", err2q);
    out += '\n';
    os << out;
}

Calibration
Calibration::load(std::istream &is)
{
    Calibration c;
    std::string word, version;
    if (!(is >> word >> version) || word != "calibration" ||
        (version != "v1" && version != "v2"))
        fatal("Calibration::load: bad header");
    size_t nedges = 0;
    auto expect = [&](const char *key) {
        if (!(is >> word) || word != key)
            fatal("Calibration::load: expected '", key, "', got '", word,
                  "'");
    };
    expect("qubits");
    if (!(is >> c.numQubits) || c.numQubits < 0)
        fatal("Calibration::load: bad qubit count");
    // Plausibility caps: a corrupt count must produce a diagnostic, not
    // a multi-gigabyte resize.
    if (c.numQubits > 1000000)
        fatal("Calibration::load: implausible qubit count ", c.numQubits);
    expect("edges");
    if (!(is >> nedges) || nedges > 10000000)
        fatal("Calibration::load: bad edge count");
    expect("durations");
    if (!(is >> c.durations.oneQ >> c.durations.twoQ >> c.durations.readout))
        fatal("Calibration::load: bad durations");
    if (version == "v2") {
        expect("crosstalk");
        if (!(is >> c.crosstalkFactor))
            fatal("Calibration::load: bad crosstalk factor");
    }
    auto read_vec = [&](const char *key, std::vector<double> &v, size_t n) {
        expect(key);
        v.resize(n);
        for (size_t i = 0; i < n; ++i)
            if (!(is >> v[i]))
                fatal("Calibration::load: truncated ", key);
    };
    size_t nq = static_cast<size_t>(c.numQubits);
    read_vec("err1q", c.err1q, nq);
    read_vec("errRO", c.errRO, nq);
    read_vec("t2us", c.t2Us, nq);
    read_vec("err2q", c.err2q, nedges);
    return c;
}

namespace
{

/** Error rates clamp into [0, kMaxErrRate]: strictly below 1 so every
 *  reliability stays positive and -log costs stay finite downstream. */
constexpr double kMaxErrRate = 0.999999;

/** Pessimistic-but-valid replacements for unrepairable garbage. */
constexpr double kFallbackErrRate = 0.5;
constexpr double kFallbackT2Us = 1.0;

/** Index of a scalar field: valueName() prints no subscript. */
constexpr size_t kScalar = static_cast<size_t>(-1);

/** "field[index]", or "field" for a scalar. Built only once a value is
 *  bad: every compile validates its calibration. */
std::string
valueName(const char *field, size_t index)
{
    std::string name(field);
    if (index != kScalar)
        name += "[" + std::to_string(index) + "]";
    return name;
}

/** One value-level check/repair; returns true when `v` was bad. */
bool
checkRate(double &v, ValidateMode mode, Diagnostics &diags,
          const char *field, size_t index)
{
    if (!std::isfinite(v)) {
        std::string where = valueName(field, index);
        if (mode == ValidateMode::Sanitize) {
            diags.warning("calib.nan-error-rate",
                          where + " is not finite; clamped to " +
                              std::to_string(kFallbackErrRate));
            v = kFallbackErrRate;
        } else {
            diags.error("calib.nan-error-rate", where + " is not finite");
        }
        return true;
    }
    if (v < 0.0 || v > kMaxErrRate) {
        std::string where = valueName(field, index);
        double clamped = std::clamp(v, 0.0, kMaxErrRate);
        if (mode == ValidateMode::Sanitize) {
            diags.warning("calib.error-rate-out-of-range",
                          where + " = " + std::to_string(v) +
                              " outside [0, 1); clamped to " +
                              std::to_string(clamped));
            v = clamped;
        } else {
            diags.error("calib.error-rate-out-of-range",
                        where + " = " + std::to_string(v) +
                            " outside [0, 1)");
        }
        return true;
    }
    return false;
}

/** Positive-finite check for durations and coherence times. */
bool
checkPositive(double &v, double fallback, ValidateMode mode,
              Diagnostics &diags, const char *field, size_t index = kScalar)
{
    if (std::isfinite(v) && v > 0.0)
        return false;
    std::string where = valueName(field, index);
    if (mode == ValidateMode::Sanitize) {
        diags.warning("calib.nonpositive-duration",
                      where + " = " + std::to_string(v) +
                          " must be positive; replaced with " +
                          std::to_string(fallback));
        v = fallback;
    } else {
        diags.error("calib.nonpositive-duration",
                    where + " = " + std::to_string(v) +
                        " must be positive");
    }
    return true;
}

/** Per-qubit vector sized to n? Sanitize resizes with `fill`. */
bool
checkSize(std::vector<double> &v, size_t n, double fill, ValidateMode mode,
          Diagnostics &diags, const char *field)
{
    if (v.size() == n)
        return false;
    if (mode == ValidateMode::Sanitize) {
        diags.warning("calib.size-mismatch",
                      std::string(field) + " has " +
                          std::to_string(v.size()) + " entries, expected " +
                          std::to_string(n) + "; resized");
        v.resize(n, fill);
    } else {
        diags.error("calib.size-mismatch",
                    std::string(field) + " has " +
                        std::to_string(v.size()) + " entries, expected " +
                        std::to_string(n));
    }
    return true;
}

} // namespace

int
Calibration::validate(ValidateMode mode, Diagnostics &diags)
{
    int repairs = 0;
    auto count = [&](bool bad) {
        if (bad && mode == ValidateMode::Sanitize)
            ++repairs;
    };

    if (numQubits < 0) {
        // No clamp makes a negative qubit count meaningful.
        diags.error("calib.negative-qubit-count",
                    "qubit count " + std::to_string(numQubits) +
                        " is negative");
        return repairs;
    }

    size_t nq = static_cast<size_t>(numQubits);
    count(checkSize(err1q, nq, kFallbackErrRate, mode, diags, "err1q"));
    count(checkSize(errRO, nq, kFallbackErrRate, mode, diags, "errRO"));
    count(checkSize(t2Us, nq, kFallbackT2Us, mode, diags, "t2us"));

    for (size_t i = 0; i < err1q.size(); ++i)
        count(checkRate(err1q[i], mode, diags, "err1q", i));
    for (size_t i = 0; i < errRO.size(); ++i)
        count(checkRate(errRO[i], mode, diags, "errRO", i));
    for (size_t i = 0; i < err2q.size(); ++i)
        count(checkRate(err2q[i], mode, diags, "err2q", i));
    for (size_t i = 0; i < t2Us.size(); ++i)
        count(checkPositive(t2Us[i], kFallbackT2Us, mode, diags, "t2us", i));

    count(checkPositive(durations.oneQ, 0.05, mode, diags,
                        "durations.oneQ"));
    count(checkPositive(durations.twoQ, 0.3, mode, diags,
                        "durations.twoQ"));
    count(checkPositive(durations.readout, 1.0, mode, diags,
                        "durations.readout"));

    if (!std::isfinite(crosstalkFactor) || crosstalkFactor < 0.0) {
        if (mode == ValidateMode::Sanitize) {
            diags.warning("calib.bad-crosstalk",
                          "crosstalk factor " +
                              std::to_string(crosstalkFactor) +
                              " invalid; reset to 0");
            crosstalkFactor = 0.0;
            ++repairs;
        } else {
            diags.error("calib.bad-crosstalk",
                        "crosstalk factor " +
                            std::to_string(crosstalkFactor) +
                            " must be finite and non-negative");
        }
    }
    return repairs;
}

int
Calibration::validate(const Topology &topo, ValidateMode mode,
                      Diagnostics &diags)
{
    if (numQubits != topo.numQubits()) {
        diags.error("calib.qubit-count-mismatch",
                    "calibration covers " + std::to_string(numQubits) +
                        " qubits but the topology has " +
                        std::to_string(topo.numQubits()));
        return 0;
    }
    if (!topo.connected())
        diags.error("topo.disconnected",
                    "device topology is not connected; no SWAP chain can "
                    "join its components");

    int repairs = 0;
    size_t ne = static_cast<size_t>(topo.numEdges());
    if (err2q.size() != ne) {
        if (mode == ValidateMode::Sanitize) {
            diags.warning("calib.missing-edges",
                          "err2q covers " + std::to_string(err2q.size()) +
                              " edges, topology has " + std::to_string(ne) +
                              "; missing entries filled pessimistically");
            err2q.resize(ne, kFallbackErrRate);
            ++repairs;
        } else {
            diags.error("calib.missing-edges",
                        "err2q covers " + std::to_string(err2q.size()) +
                            " edges, topology has " + std::to_string(ne));
        }
    }
    return repairs + validate(mode, diags);
}

int
injectCalibrationFaults(Calibration &calib, FaultInjector &inj)
{
    if (!inj.armsCalibration())
        return 0;
    int hits = 0;
    hits += inj.corruptValues(calib.err1q);
    hits += inj.corruptValues(calib.errRO);
    hits += inj.corruptValues(calib.err2q);
    hits += inj.corruptValues(calib.t2Us);
    if (inj.corruptScalar(calib.durations.twoQ))
        ++hits;
    return hits;
}

Calibration
synthesizeCalibration(const Topology &topo, const NoiseSpec &spec,
                      const std::string &device_name, int day)
{
    Calibration c;
    c.numQubits = topo.numQubits();
    c.durations = spec.durations;
    c.crosstalkFactor = spec.crosstalkFactor;

    // Spatial structure: which qubits/edges are good or bad. Chronic
    // (day-independent) for superconducting devices; reshuffled per
    // calibration cycle for drift-dominated (trapped-ion) devices.
    Rng spatial(spec.chronicSpatial
                    ? device_name + "/spatial"
                    : device_name + "/spatial/day" + std::to_string(day));
    // Daily drift multipliers.
    Rng daily(device_name + "/day" + std::to_string(day));

    const double ss = spec.spatialSigma;
    const double ts = spec.temporalSigma;

    c.err1q.resize(c.numQubits);
    c.errRO.resize(c.numQubits);
    c.t2Us.resize(c.numQubits);
    for (int q = 0; q < c.numQubits; ++q) {
        // 1Q errors vary less than 2Q errors on real hardware; halve the
        // spreads for them.
        double base1 =
            spatial.logNormal(meanPreservingMedian(spec.mean1q, 0.5 * ss),
                              0.5 * ss);
        double basero =
            spatial.logNormal(meanPreservingMedian(spec.meanRO, 0.5 * ss),
                              0.5 * ss);
        double baset2 = spatial.logNormal(spec.coherenceUs, 0.15);
        c.err1q[q] = clampError(base1 * daily.logNormal(1.0, 0.5 * ts));
        c.errRO[q] = clampError(basero * daily.logNormal(1.0, 0.5 * ts));
        c.t2Us[q] = baset2 * daily.logNormal(1.0, 0.1);
    }

    c.err2q.resize(topo.numEdges());
    for (int e = 0; e < topo.numEdges(); ++e) {
        double base =
            spatial.logNormal(meanPreservingMedian(spec.mean2q, ss), ss);
        c.err2q[e] = clampError(base * daily.logNormal(1.0, ts));
    }

    // The synthetic feed honors the same contract a real vendor feed
    // must pass: every snapshot leaves here sanitized. A nonsensical
    // NoiseSpec (NaN means, zero durations) degrades to clamped values
    // with warnings instead of poisoning the mapper.
    Diagnostics diags(device_name + "/day" + std::to_string(day));
    if (c.validate(topo, ValidateMode::Sanitize, diags) > 0)
        warn("synthesizeCalibration: repaired snapshot:\n", diags.text());
    return c;
}

Calibration
averageCalibration(const Topology &topo, const NoiseSpec &spec)
{
    Calibration c;
    c.numQubits = topo.numQubits();
    c.durations = spec.durations;
    c.crosstalkFactor = spec.crosstalkFactor;
    c.err1q.assign(c.numQubits, spec.mean1q);
    c.errRO.assign(c.numQubits, spec.meanRO);
    c.t2Us.assign(c.numQubits, spec.coherenceUs);
    c.err2q.assign(topo.numEdges(), spec.mean2q);

    Diagnostics diags("average-calibration");
    if (c.validate(topo, ValidateMode::Sanitize, diags) > 0)
        warn("averageCalibration: repaired snapshot:\n", diags.text());
    return c;
}

} // namespace triq
