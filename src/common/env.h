#ifndef ULTRAWIKI_COMMON_ENV_H_
#define ULTRAWIKI_COMMON_ENV_H_

#include <optional>
#include <string_view>

namespace ultrawiki {

/// Strictly parses `text` as a base-10 integer: optional sign, digits,
/// nothing else. Trailing garbage ("64k"), empty strings, and values
/// outside int range all return nullopt — where the C library's lenient
/// parsers silently truncate "64k" to 64 and map garbage to 0.
std::optional<int> ParseIntStrict(std::string_view text);

/// Strictly parses `text` as a finite decimal floating-point number
/// ("0.05", "-1e3"). Trailing garbage ("0.05x"), empty strings, inf, nan,
/// and values outside double range all return nullopt — where atof
/// silently truncates "0.05x" to 0.05.
std::optional<double> ParseDoubleStrict(std::string_view text);

/// Strictly parses a TCP port: an integer in [0, 65535], 0 meaning an
/// ephemeral port. Anything else returns nullopt.
std::optional<int> ParsePort(std::string_view text);

/// Resolves an integer knob from the environment. Returns `fallback`
/// when `name` is unset; warns and returns `fallback` when the value
/// does not parse strictly or is below `min_value`, so a typo like
/// UW_SERVE_QUEUE=64k is loud instead of silently becoming 64.
int EnvInt(const char* name, int fallback, int min_value);

}  // namespace ultrawiki

#endif  // ULTRAWIKI_COMMON_ENV_H_
