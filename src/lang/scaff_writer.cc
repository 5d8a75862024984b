#include "lang/scaff_writer.hh"

#include <cctype>
#include <sstream>

#include "common/logging.hh"
#include "common/text.hh"

namespace triq
{

namespace
{

std::string
angle(double v)
{
    // Recognizable multiples of pi read better and parse exactly.
    struct Special
    {
        double value;
        const char *text;
    };
    static const Special specials[] = {
        {kPi, "pi"},           {-kPi, "-pi"},
        {kPi / 2, "pi/2"},     {-kPi / 2, "-pi/2"},
        {kPi / 4, "pi/4"},     {-kPi / 4, "-pi/4"},
        {kPi / 8, "pi/8"},     {-kPi / 8, "-pi/8"},
        {kPi / 16, "pi/16"},   {-kPi / 16, "-pi/16"},
        {3 * kPi / 4, "3*pi/4"},
        {2 * kPi, "2*pi"},
    };
    for (const auto &s : specials)
        if (std::abs(v - s.value) < 1e-12)
            return s.text;
    return exactText(v);
}

std::string
sanitize(const std::string &name)
{
    std::string out;
    for (char ch : name)
        if (std::isalnum(static_cast<unsigned char>(ch)) || ch == '_')
            out += ch;
    if (out.empty() ||
        std::isdigit(static_cast<unsigned char>(out.front())))
        out = "m_" + out;
    return out;
}

} // namespace

std::string
toScaffLite(const Circuit &c, std::string module_name)
{
    if (module_name.empty())
        module_name = c.name().empty() ? "main" : sanitize(c.name());
    std::ostringstream os;
    os << "// Generated by triq's ScaffLite writer.\n";
    os << "module " << module_name << " {\n";
    os << "    qreg q[" << c.numQubits() << "];\n";
    auto op = [&](const Gate &g, const char *name, int nparams) {
        os << "    " << name;
        if (nparams > 0) {
            os << "(";
            for (int i = 0; i < nparams; ++i)
                os << (i ? ", " : "")
                   << angle(g.params[static_cast<size_t>(i)]);
            os << ")";
        }
        for (int i = 0; i < g.arity(); ++i)
            os << (i ? ", q[" : " q[") << g.qubit(i) << "]";
        os << ";\n";
    };
    for (const auto &g : c.gates()) {
        switch (g.kind) {
          case GateKind::I:
            break; // No-op.
          case GateKind::X:
          case GateKind::Y:
          case GateKind::Z:
          case GateKind::H:
          case GateKind::S:
          case GateKind::Sdg:
          case GateKind::T:
          case GateKind::Tdg:
            op(g, gateName(g.kind).c_str(), 0);
            break;
          case GateKind::Rx:
          case GateKind::Ry:
          case GateKind::Rz:
            op(g, gateName(g.kind).c_str(), 1);
            break;
          case GateKind::U1: {
            Gate rz = g;
            rz.kind = GateKind::Rz;
            op(rz, "rz", 1); // Same action up to global phase.
            break;
          }
          case GateKind::Cnot:
            op(g, "cnot", 0);
            break;
          case GateKind::Cz:
            op(g, "cz", 0);
            break;
          case GateKind::Cphase:
            op(g, "cphase", 1);
            break;
          case GateKind::Swap:
            op(g, "swap", 0);
            break;
          case GateKind::Ccx:
            op(g, "toffoli", 0);
            break;
          case GateKind::Ccz:
            op(g, "ccz", 0);
            break;
          case GateKind::Cswap:
            op(g, "fredkin", 0);
            break;
          case GateKind::Measure:
            op(g, "measure", 0);
            break;
          case GateKind::Barrier:
            os << "    barrier;\n";
            break;
          default:
            fatal("toScaffLite: device-level gate ", g.str(),
                  " cannot be exported as a program");
        }
    }
    os << "}\n";
    return os.str();
}

} // namespace triq
