/**
 * @file
 * The triqd wire format is newline-delimited JSON; its codec is the
 * project's one JSON codec in common/json.hh. This header stays so
 * existing includes keep working.
 */

#ifndef TRIQ_SERVICE_WIRE_HH
#define TRIQ_SERVICE_WIRE_HH

#include "common/json.hh"

#endif // TRIQ_SERVICE_WIRE_HH
