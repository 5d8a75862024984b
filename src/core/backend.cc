#include "core/backend.hh"

#include <string_view>

#include "common/logging.hh"
#include "common/text.hh"

namespace triq
{

namespace
{

// Each emitter appends into one string through put(): angles with the
// shared %.17g formatter (17 significant digits, so every angle parses
// back to the same bits), qubit indices in plain decimal. Neither reads
// the global locale, unlike an ostream.
void
put(std::string &s, std::string_view text)
{
    s += text;
}

void
put(std::string &s, char ch)
{
    s += ch;
}

void
put(std::string &s, int n)
{
    appendInt(s, n);
}

void
put(std::string &s, double v)
{
    appendExact(s, v);
}

template <typename... Parts>
void
line(std::string &s, const Parts &...parts)
{
    (put(s, parts), ...);
}

/** An output string with room for `c`'s header and typical gate lines. */
std::string
startText(const Circuit &c)
{
    std::string s;
    s.reserve(96 + c.name().size() + 32 * c.gates().size());
    return s;
}

std::string_view
title(const Circuit &c)
{
    return c.name().empty() ? std::string_view("triq output")
                            : std::string_view(c.name());
}

} // namespace

std::string
toOpenQasm(const Circuit &c)
{
    std::string out = startText(c);
    line(out, "OPENQASM 2.0;\n");
    line(out, "include \"qelib1.inc\";\n");
    line(out, "// ", title(c), '\n');
    line(out, "qreg q[", c.numQubits(), "];\n");
    line(out, "creg c[", c.numQubits(), "];\n");
    for (const auto &g : c.gates()) {
        switch (g.kind) {
          case GateKind::U1:
          case GateKind::Rz:
            line(out, "u1(", g.params[0], ") q[", g.qubit(0), "];\n");
            break;
          case GateKind::U2:
            line(out, "u2(", g.params[0], ',', g.params[1], ") q[",
                 g.qubit(0), "];\n");
            break;
          case GateKind::U3:
            line(out, "u3(", g.params[0], ',', g.params[1], ',',
                 g.params[2], ") q[", g.qubit(0), "];\n");
            break;
          case GateKind::Cnot:
            line(out, "cx q[", g.qubit(0), "],q[", g.qubit(1), "];\n");
            break;
          case GateKind::Measure:
            line(out, "measure q[", g.qubit(0), "] -> c[", g.qubit(0),
                 "];\n");
            break;
          case GateKind::Barrier:
            line(out, "barrier q;\n");
            break;
          default:
            fatal("toOpenQasm: gate ", g.str(),
                  " is not in the IBM software-visible set");
        }
    }
    return out;
}

std::string
toQuil(const Circuit &c)
{
    std::string out = startText(c);
    line(out, "# ", title(c), '\n');
    line(out, "DECLARE ro BIT[", c.numQubits(), "]\n");
    for (const auto &g : c.gates()) {
        switch (g.kind) {
          case GateKind::Rz:
          case GateKind::U1:
            line(out, "RZ(", g.params[0], ") ", g.qubit(0), '\n');
            break;
          case GateKind::Rx:
            line(out, "RX(", g.params[0], ") ", g.qubit(0), '\n');
            break;
          case GateKind::Cz:
            line(out, "CZ ", g.qubit(0), ' ', g.qubit(1), '\n');
            break;
          case GateKind::Cphase:
            line(out, "CPHASE(", g.params[0], ") ", g.qubit(0), ' ',
                 g.qubit(1), '\n');
            break;
          case GateKind::Measure:
            line(out, "MEASURE ", g.qubit(0), " ro[", g.qubit(0), "]\n");
            break;
          case GateKind::Barrier:
            break; // Quil has no explicit barrier; ordering suffices.
          default:
            fatal("toQuil: gate ", g.str(),
                  " is not in the Rigetti software-visible set");
        }
    }
    return out;
}

std::string
toUmdAsm(const Circuit &c)
{
    std::string out = startText(c);
    line(out, "; TriQ UMD-TI assembly: ", title(c), '\n');
    line(out, "ions ", c.numQubits(), '\n');
    for (const auto &g : c.gates()) {
        switch (g.kind) {
          case GateKind::Rz:
          case GateKind::U1:
            line(out, "rz ", g.qubit(0), ' ', g.params[0], '\n');
            break;
          case GateKind::Rxy:
            line(out, "rxy ", g.qubit(0), ' ', g.params[0], ' ',
                 g.params[1], '\n');
            break;
          case GateKind::Xx:
            line(out, "ms ", g.qubit(0), ' ', g.qubit(1), ' ', g.params[0],
                 '\n');
            break;
          case GateKind::Measure:
            line(out, "detect ", g.qubit(0), '\n');
            break;
          case GateKind::Barrier:
            line(out, "sync\n");
            break;
          default:
            fatal("toUmdAsm: gate ", g.str(),
                  " is not in the UMD software-visible set");
        }
    }
    return out;
}

std::string
emitAssembly(const Circuit &c, Vendor vendor)
{
    switch (vendor) {
      case Vendor::IBM:
        return toOpenQasm(c);
      case Vendor::Rigetti:
        return toQuil(c);
      case Vendor::UMD:
        return toUmdAsm(c);
    }
    panic("emitAssembly: unknown vendor");
}

} // namespace triq
