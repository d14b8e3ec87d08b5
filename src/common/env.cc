#include "common/env.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/logging.h"

namespace ultrawiki {

std::optional<int> ParseIntStrict(std::string_view text) {
  if (text.empty()) return std::nullopt;
  size_t i = 0;
  bool negative = false;
  if (text[0] == '+' || text[0] == '-') {
    negative = text[0] == '-';
    i = 1;
  }
  if (i == text.size()) return std::nullopt;
  long long value = 0;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + (c - '0');
    if (value > static_cast<long long>(std::numeric_limits<int>::max()) + 1) {
      return std::nullopt;
    }
  }
  if (negative) value = -value;
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return std::nullopt;
  }
  return static_cast<int>(value);
}

std::optional<double> ParseDoubleStrict(std::string_view text) {
  // from_chars takes no '+' sign; accept one, but not "+-".
  if (!text.empty() && text[0] == '+') {
    text.remove_prefix(1);
    if (!text.empty() && text[0] == '-') return std::nullopt;
  }
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end ||
      !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

std::optional<int> ParsePort(std::string_view text) {
  const std::optional<int> port = ParseIntStrict(text);
  if (!port.has_value() || *port < 0 || *port > 65535) return std::nullopt;
  return port;
}

int EnvInt(const char* name, int fallback, int min_value) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const std::optional<int> parsed = ParseIntStrict(env);
  if (!parsed.has_value()) {
    UW_LOG(Warning) << name << "=" << env
                    << " is not an integer; using " << fallback;
    return fallback;
  }
  if (*parsed < min_value) {
    UW_LOG(Warning) << name << "=" << env << " out of range; using "
                    << fallback;
    return fallback;
  }
  return *parsed;
}

}  // namespace ultrawiki
