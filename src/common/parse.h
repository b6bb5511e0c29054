// What text is a number, for every text input: flags, catalog CSV fields,
// distribution specs, vodctl's list specs (--mix, --faults, --flash), trace
// JSONL and postmortem bundles. A number is one whole base-10 token: no
// surrounding whitespace, no hexadecimal, finite and in its type's range.
// An error message is a predicate ("expects a decimal number, got '0x1p4'")
// that the caller prefixes with its subject: the flag, the line, the field.

#ifndef VOD_COMMON_PARSE_H_
#define VOD_COMMON_PARSE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace vod {

/// A finite double written in decimal ("120", "-1.5", "+2", ".5", "1e3").
/// Refuses hexadecimal, "nan" and "inf", and values whose magnitude
/// overflows or underflows a double.
Result<double> ParseDouble(std::string_view text);

/// A base-10 integer in int64 range, with an optional sign ("-17", "007").
Result<int64_t> ParseInt64(std::string_view text);

/// A base-10 integer in uint64 range, without a sign.
Result<uint64_t> ParseUint64(std::string_view text);

/// `text` read by `parse` (one of the above), with the caller's `subject`
/// put before a refusal's reason: ParseNamed("--faults mtbf", ParseDouble,
/// "inf") is "--faults mtbf must be finite, got 'inf'".
template <typename T>
Result<T> ParseNamed(const std::string& subject,
                     Result<T> (*parse)(std::string_view),
                     std::string_view text) {
  Result<T> v = parse(text);
  if (v.ok()) return v;
  return Status::InvalidArgument(subject + " " + v.status().message());
}

/// Splits `text` at every `separator` outside parentheses and trims the
/// whitespace around each field: "gamma(2, 4), 0.5" gives "gamma(2, 4)"
/// and "0.5". An empty `text` is one empty field.
std::vector<std::string> SplitFields(std::string_view text, char separator);

}  // namespace vod

#endif  // VOD_COMMON_PARSE_H_
