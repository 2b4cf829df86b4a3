#include "common/string_util.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace stwa {

std::vector<std::string> Split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::string field;
  std::istringstream iss(s);
  while (std::getline(iss, field, delim)) out.push_back(field);
  if (!s.empty() && s.back() == delim) out.push_back("");
  return out;
}

std::string Trim(const std::string& s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string FormatFloat(double value, int decimals) {
  std::ostringstream oss;
  oss.setf(std::ios::fixed);
  oss.precision(decimals);
  oss << value;
  return oss.str();
}

bool ParseFloatToken(const std::string& token, float* out) {
  char* end = nullptr;
  *out = std::strtof(token.c_str(), &end);
  return !token.empty() && *end == '\0' && std::isfinite(*out);
}

bool ParseIntToken(const std::string& token, int64_t* out) {
  char* end = nullptr;
  *out = std::strtoll(token.c_str(), &end, 10);
  return !token.empty() && *end == '\0';
}

std::string FormatMicros(double micros) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", micros);
  return buf;
}

std::string GetEnvOr(const std::string& name, const std::string& fallback) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr || *value == '\0') return fallback;
  return value;
}

int64_t GetEnvIntOr(const std::string& name, int64_t fallback) {
  std::string value = GetEnvOr(name, "");
  if (value.empty()) return fallback;
  char* end = nullptr;
  long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') return fallback;
  return static_cast<int64_t>(parsed);
}

}  // namespace stwa
