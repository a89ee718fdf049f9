// Minimal JSON helpers for the observability layer: string escaping for
// the writers (registry export, event journal) and a flat-object parser
// for reading journal lines back (tests, the shell's \journal command).
// Deliberately not a general JSON library — the journal and the metric
// exporters only ever produce one-level objects with scalar values.
#ifndef SNAPQ_OBS_JSON_H_
#define SNAPQ_OBS_JSON_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace snapq::obs {

/// Escapes `s` for inclusion in a JSON string literal (quotes excluded).
std::string JsonEscape(std::string_view s);

/// Formats a double the way our writers emit numbers: shortest form that
/// round-trips integers exactly ("4" not "4.000000").
std::string JsonNumber(double value);

/// One scalar value of a parsed flat JSON object.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;

  int64_t AsInt() const { return static_cast<int64_t>(number); }
};

/// Parses a one-level JSON object ({"key": scalar, ...}) with string,
/// number, bool and null values, under the same grammar ValidateJson
/// checks. Returns nullopt on malformed input or nested containers.
std::optional<std::map<std::string, JsonValue>> ParseFlatJsonObject(
    std::string_view text);

/// Validates that `text` is one complete JSON value under the full grammar
/// (objects, arrays, strings, numbers, booleans, null) with only trailing
/// whitespace after it. A syntax check only — no DOM is built. Used to
/// sanity-check nested documents our flat parser cannot read (the Perfetto
/// export, metric sidecars). Nesting deeper than 64 levels is rejected.
bool ValidateJson(std::string_view text);

}  // namespace snapq::obs

#endif  // SNAPQ_OBS_JSON_H_
