/**
 * @file
 * Executable-format backends (Sec. 4.6). All analysis and optimization
 * lives upstream; these writers only serialize a translated circuit
 * into the syntax each platform accepts:
 *   IBM     -> OpenQASM 2.0
 *   Rigetti -> Quil
 *   UMD     -> the trapped-ion machine's low-level assembly
 *
 * Angles are written with the bytes of C-locale printf("%.17g") and
 * qubit indices in plain decimal (common/text.hh), whatever the global
 * locale, so the text parses back to the same circuit bit for bit.
 */

#ifndef TRIQ_CORE_BACKEND_HH
#define TRIQ_CORE_BACKEND_HH

#include <string>

#include "core/circuit.hh"
#include "device/gateset.hh"

namespace triq
{

/**
 * Serialize an IBM-translated circuit ({U1,U2,U3,Rz,Cnot,Measure,
 * Barrier}) as OpenQASM 2.0.
 */
std::string toOpenQasm(const Circuit &c);

/** Serialize a Rigetti-translated circuit ({Rz,Rx,Cz,Measure}) as Quil. */
std::string toQuil(const Circuit &c);

/**
 * Serialize a UMD-translated circuit ({Rz,Rxy,Xx,Measure}) in the
 * trapped-ion machine's assembly syntax.
 */
std::string toUmdAsm(const Circuit &c);

/** Dispatch on vendor. */
std::string emitAssembly(const Circuit &c, Vendor vendor);

} // namespace triq

#endif // TRIQ_CORE_BACKEND_HH
