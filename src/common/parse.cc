#include "common/parse.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace vod {

namespace {

bool IsSpace(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

// The strto* functions skip leading whitespace; a token that starts with a
// space (or is empty) is a quoting accident, not a number.
bool StartsLikeNumber(std::string_view text) {
  return !text.empty() && !IsSpace(text.front());
}

// Reads all of `text` with `read` (a strto* call) when `starts_ok`; text
// left after the number makes the whole token no number.
template <typename T, typename Read>
Result<T> ReadWhole(std::string_view text, bool starts_ok, Read read,
                    const char* shape, const char* type) {
  const std::string token(text);
  char* end = nullptr;
  errno = 0;
  const T v = starts_ok ? static_cast<T>(read(token.c_str(), &end)) : T{};
  if (end != token.c_str() + token.size()) {
    return Status::InvalidArgument(std::string("expects ") + shape +
                                   ", got '" + token + "'");
  }
  if (errno == ERANGE) {
    return Status::InvalidArgument(std::string("is out of ") + type +
                                   " range: '" + token + "'");
  }
  return v;
}

}  // namespace

Result<double> ParseDouble(std::string_view text) {
  // Hexadecimal floats ("0x1p4") parse cleanly but are never what a text
  // input means; reject them before strtod can accept them.
  const bool starts_ok = StartsLikeNumber(text) &&
                         text.find_first_of("xX") == std::string_view::npos;
  Result<double> v = ReadWhole<double>(
      text, starts_ok,
      [](const char* s, char** end) { return std::strtod(s, end); },
      "a decimal number", "double");
  if (v.ok() && !std::isfinite(*v)) {
    return Status::InvalidArgument("must be finite, got '" +
                                   std::string(text) + "'");
  }
  return v;
}

Result<int64_t> ParseInt64(std::string_view text) {
  return ReadWhole<int64_t>(
      text, StartsLikeNumber(text),
      [](const char* s, char** end) { return std::strtoll(s, end, 10); },
      "a base-10 integer", "int64");
}

Result<uint64_t> ParseUint64(std::string_view text) {
  // strtoull would read "-1" as 2^64 - 1; only a digit may start the token.
  const bool starts_ok =
      !text.empty() && std::isdigit(static_cast<unsigned char>(text[0]));
  return ReadWhole<uint64_t>(
      text, starts_ok,
      [](const char* s, char** end) { return std::strtoull(s, end, 10); },
      "an unsigned base-10 integer", "uint64");
}

std::vector<std::string> SplitFields(std::string_view text, char separator) {
  std::vector<std::string> fields;
  const auto push_trimmed = [&fields](std::string_view field) {
    while (!field.empty() && IsSpace(field.front())) field.remove_prefix(1);
    while (!field.empty() && IsSpace(field.back())) field.remove_suffix(1);
    fields.emplace_back(field);
  };
  int depth = 0;
  size_t start = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')') --depth;
    if (text[i] == separator && depth == 0) {
      push_trimmed(text.substr(start, i - start));
      start = i + 1;
    }
  }
  push_trimmed(text.substr(start));
  return fields;
}

}  // namespace vod
