// Small string helpers shared by the data loaders, the table printers and
// the serving line protocols.

#ifndef STWA_COMMON_STRING_UTIL_H_
#define STWA_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace stwa {

/// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> Split(const std::string& s, char delim);

/// Strips ASCII whitespace from both ends.
std::string Trim(const std::string& s);

/// Formats a float with `decimals` fractional digits (fixed notation).
std::string FormatFloat(double value, int decimals = 2);

/// Parses a whole token as a finite float. Rejects empty tokens, trailing
/// characters, "nan"/"inf" spellings and values outside the float range
/// (which strtof would turn into inf).
bool ParseFloatToken(const std::string& token, float* out);

/// Parses a whole token as a base-10 integer.
bool ParseIntToken(const std::string& token, int64_t* out);

/// Formats a microsecond count with one fractional digit ("12.3").
std::string FormatMicros(double micros);

/// Reads an environment variable, returning `fallback` when unset/empty.
std::string GetEnvOr(const std::string& name, const std::string& fallback);

/// Reads an integer environment variable, returning `fallback` when
/// unset/empty or unparsable.
int64_t GetEnvIntOr(const std::string& name, int64_t fallback);

}  // namespace stwa

#endif  // STWA_COMMON_STRING_UTIL_H_
