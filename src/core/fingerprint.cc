#include "core/fingerprint.hh"

#include <charconv>
#include <cstdio>
#include <cstring>

#include "common/logging.hh"
#include "common/text.hh"
#include "device/device.hh"

namespace triq
{

namespace
{

constexpr uint64_t kFnvPrime = 1099511628211ULL;

/** Domain-separation tags so structurally similar inputs can't alias. */
enum : uint64_t
{
    kTagCircuit = 0xC1,
    kTagTopology = 0x70,
    kTagGateSet = 0x65,
    kTagCalibration = 0xCA,
    kTagOptions = 0x0F,
    kTagSanitize = 0x5A,
};

} // namespace

Fnv1a &
Fnv1a::bytes(const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h_ ^= p[i];
        h_ *= kFnvPrime;
    }
    return *this;
}

Fnv1a &
Fnv1a::u64(uint64_t v)
{
    return bytes(&v, sizeof(v));
}

Fnv1a &
Fnv1a::f64(double v)
{
    if (v == 0.0)
        v = 0.0; // collapse -0.0 and +0.0 to one bit pattern
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return u64(bits);
}

Fnv1a &
Fnv1a::str(const std::string &s)
{
    u64(s.size());
    return bytes(s.data(), s.size());
}

uint64_t
circuitFingerprint(const Circuit &c)
{
    Fnv1a h;
    h.u64(kTagCircuit).i64(c.numQubits()).i64(c.numGates());
    for (const Gate &g : c.gates()) {
        h.u64(static_cast<uint64_t>(g.kind));
        for (int i = 0; i < 3; ++i)
            h.i64(g.qubits[i]);
        for (int i = 0; i < 3; ++i)
            h.f64(g.params[i]);
    }
    return h.value();
}

uint64_t
topologyFingerprint(const Topology &topo)
{
    Fnv1a h;
    h.u64(kTagTopology).i64(topo.numQubits()).i64(topo.numEdges());
    for (const Coupling &e : topo.edges())
        h.i64(e.a).i64(e.b).b(e.directed);
    return h.value();
}

uint64_t
gateSetFingerprint(const GateSet &gs)
{
    Fnv1a h;
    h.u64(kTagGateSet)
        .u64(static_cast<uint64_t>(gs.vendor))
        .u64(static_cast<uint64_t>(gs.twoQ))
        .u64(static_cast<uint64_t>(gs.oneQ))
        .b(gs.virtualZ)
        .b(gs.nativeCphase);
    return h.value();
}

uint64_t
calibrationSignature(const Calibration &calib)
{
    Fnv1a h;
    h.u64(kTagCalibration).i64(calib.numQubits);
    auto vec = [&](const std::vector<double> &v) {
        h.u64(v.size());
        for (double x : v)
            h.f64(x);
    };
    vec(calib.err1q);
    vec(calib.errRO);
    vec(calib.t2Us);
    vec(calib.err2q);
    h.f64(calib.durations.oneQ)
        .f64(calib.durations.twoQ)
        .f64(calib.durations.readout)
        .f64(calib.crosstalkFactor);
    return h.value();
}

uint64_t
compileOptionsFingerprint(const CompileOptions &opts)
{
    Fnv1a h;
    h.u64(kTagOptions)
        .u64(static_cast<uint64_t>(opts.level))
        .u64(static_cast<uint64_t>(opts.mapping.kind))
        .u64(static_cast<uint64_t>(opts.mapping.objective))
        .i64(opts.mapping.nodeBudget)
        .b(opts.mapping.includeReadout)
        .u64(opts.mapping.smtTimeoutMs)
        .b(opts.peephole)
        .b(opts.emitAssembly)
        .b(opts.strictCalibration);
    return h.value();
}

uint64_t
CompileFingerprint::combined() const
{
    Fnv1a h;
    h.u64(program).u64(device).u64(calibration).u64(options);
    return h.value();
}

uint64_t
CompileFingerprint::stableKey() const
{
    Fnv1a h;
    h.u64(program).u64(device).u64(options);
    return h.value();
}

std::string
CompileFingerprint::str() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(combined()));
    return buf;
}

uint64_t
calibrationSanitizeDigest(const Calibration &calib, const Topology &topo)
{
    Calibration copy = calib;
    Diagnostics diags("calibration");
    int repairs = 0;
    // A structurally broken snapshot (errors even in Sanitize mode)
    // digests over its error diagnostics; compileForDevice will reject
    // it anyway, so the digest only needs to be *distinct*, not useful.
    try {
        repairs = copy.validate(topo, ValidateMode::Sanitize, diags);
    } catch (const FatalError &) {
        repairs = -1;
    }
    Fnv1a h;
    h.u64(kTagSanitize).i64(repairs);
    for (const Diagnostic &d : diags.all())
        h.u64(static_cast<uint64_t>(d.severity))
            .str(d.code)
            .str(d.message)
            .str(d.origin);
    return h.value();
}

CompileFingerprint
fingerprintCompile(const Circuit &lowered, const Device &dev,
                   const Calibration &day_calib,
                   const CompileOptions &opts)
{
    CompileFingerprint fp;
    fp.program = circuitFingerprint(lowered);
    {
        // The average-calibration signature is a per-device constant;
        // folding it in keeps structural twins (Aspen1 vs Aspen3 share
        // a topology and gate set) from aliasing in the
        // calibration-independent stableKey the drift path searches.
        Fnv1a h;
        h.u64(topologyFingerprint(dev.topology()))
            .u64(gateSetFingerprint(dev.gateSet()))
            .u64(calibrationSignature(dev.averageCalibration()));
        fp.device = h.value();
    }
    fp.options = compileOptionsFingerprint(opts);
    if (opts.level == OptLevel::OneQOptCN) {
        // Noise-aware: the mapping reads the day's snapshot.
        fp.calibration = calibrationSignature(day_calib);
    } else {
        // Noise-unaware levels map against the device average; the day
        // snapshot only shapes the report through the sanitize pass.
        Fnv1a h;
        h.u64(calibrationSignature(dev.averageCalibration()))
            .u64(calibrationSanitizeDigest(day_calib, dev.topology()));
        fp.calibration = h.value();
    }
    return fp;
}

std::string
canonicalCompileResultText(const CompileResult &res, bool include_timings)
{
    // Built with common/text rather than a stream, so the global locale
    // cannot group digits ("q1'2") and move the digest.
    std::string out = "circuit ";
    auto line = [&out](const char *key, long v) {
        out += key;
        out += ' ';
        appendInt(out, v);
        out += '\n';
    };
    appendInt(out, res.hwCircuit.numQubits());
    out += ' ';
    appendInt(out, res.hwCircuit.numGates());
    out += '\n';
    for (const Gate &g : res.hwCircuit.gates()) {
        out += gateName(g.kind);
        for (int i = 0; i < g.arity(); ++i) {
            out += " q";
            appendInt(out, g.qubit(i));
        }
        int np = gateNumParams(g.kind);
        for (int i = 0; i < np; ++i) {
            out += ' ';
            appendExact(out, g.params[i]);
        }
        out += '\n';
    }
    auto map = [&out](const char *label, const std::vector<HwQubit> &m) {
        out += label;
        for (HwQubit q : m) {
            out += ' ';
            appendInt(out, q);
        }
        out += '\n';
    };
    map("initial_map", res.initialMap);
    map("final_map", res.finalMap);
    line("swaps", res.swapCount);
    line("pulses1q", res.stats.pulses1q);
    line("virtualZ", res.stats.virtualZ);
    line("twoQ", res.stats.twoQ);
    out += "mapper_objective ";
    appendExact(out, res.mapperObjective);
    out += '\n';
    line("assembly_bytes", static_cast<long>(res.assembly.size()));
    out += res.assembly;
    const CompileReport &r = res.report;
    out += "report.requested_mapper " + r.requestedMapper + "\n";
    out += "report.engine " + r.mapperEngine + "\n";
    line("report.nodes", r.mapperNodes);
    line("report.optimal", r.mapperOptimal);
    line("report.degraded", r.degraded);
    line("report.deadline_hit", r.deadlineHit);
    line("report.calibration_repairs", r.calibrationRepairs);
    for (const auto &d : r.degradations)
        out += "report.degradation " + d + "\n";
    // Timings keep an ostream's default "%g" form (6 significant
    // digits); they are for human diffing only.
    auto timing = [&out](double ms) {
        char buf[32];
        auto end = std::to_chars(buf, buf + sizeof buf, ms,
                                 std::chars_format::general, 6);
        out += ' ';
        out.append(buf, end.ptr);
    };
    for (const auto &p : r.passes) {
        out += "report.pass " + p.pass;
        if (include_timings)
            timing(p.ms);
        out += '\n';
    }
    for (const Diagnostic &d : r.calibrationDiags.all())
        out += "report.diag " + d.str() + "\n";
    if (include_timings) {
        out += "compile_ms";
        timing(res.compileMs);
        out += '\n';
    }
    return out;
}

uint64_t
compileResultDigest(const CompileResult &res)
{
    Fnv1a h;
    h.str(canonicalCompileResultText(res, false));
    return h.value();
}

} // namespace triq
