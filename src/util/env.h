// Centralized environment-variable toggles: the one place src/ reads the
// process environment.
//
// Raw getenv calls sprinkled through match code made it impossible to see
// which knobs exist or what an unset / empty / "0" value means, and every
// site re-invented the parse. All lookups now go through the helpers
// below; grep for EnvFlag/EnvString to enumerate every toggle.
//
// Known variables (all optional; defaults in parentheses):
//
//   CUPID_TRACE  (off)  enable the stderr JSONL span sink for every traced
//                       phase (see obs/trace.h).
//
// Parsing contract: a flag is ON when the variable is set to anything
// except "" / "0" / "false" / "off" / "no" (ASCII case-insensitive). The
// historical sites treated "set at all" as on; the explicit off-values let
// an inherited environment disable a flag without unsetting it.

#ifndef CUPID_UTIL_ENV_H_
#define CUPID_UTIL_ENV_H_

#include <string>
#include <string_view>

namespace cupid {

/// \brief Boolean environment toggle. Unset returns `default_value`; set
/// returns true unless the value is one of the off-spellings above.
bool EnvFlag(const char* name, bool default_value = false);

/// \brief String environment lookup; unset (but not empty) returns
/// `default_value`.
std::string EnvString(const char* name, std::string_view default_value = "");

}  // namespace cupid

#endif  // CUPID_UTIL_ENV_H_
