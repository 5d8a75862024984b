/**
 * @file
 * The one number-to-text rule for everything TriQ writes: assembly
 * angles, JSON numbers, ScaffLite constants and the canonical artifact
 * text behind compile digests.
 *
 * A double is written as printf("%.17g") writes it in the C locale:
 * 17 significant digits, so every value parses back to the same bits
 * (this is not the shortest round-trip form; 0.1 is
 * "0.10000000000000001"). Integers are plain decimal. Neither depends
 * on the C or C++ global locale, so an application that installs a
 * grouping or comma-decimal locale still gets valid QASM, Quil and
 * JSON.
 */

#ifndef TRIQ_COMMON_TEXT_HH
#define TRIQ_COMMON_TEXT_HH

#include <string>

namespace triq
{

/** Append `v` to `out` with the bytes of printf("%.17g", v). */
void appendExact(std::string &out, double v);

/** Append `v` to `out` in plain decimal ("-12", no grouping). */
void appendInt(std::string &out, long v);

/** appendInt for unsigned 64-bit values (seeds, hashes). */
void appendUint(std::string &out, unsigned long long v);

/** `v` as appendExact writes it. */
std::string exactText(double v);

} // namespace triq

#endif // TRIQ_COMMON_TEXT_HH
