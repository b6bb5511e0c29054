// Minimal command-line flag parsing for bench and example binaries.
//
// Supports --name=value and --name value forms plus --help. This is
// deliberately tiny: the binaries take a handful of numeric knobs (seed,
// replication count, CSV toggles) and must not drag in a dependency.
// Numeric values follow common/parse.h, the rules of every text input.

#ifndef VOD_COMMON_FLAGS_H_
#define VOD_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace vod {

/// \brief Declarative flag set: register flags, then Parse(argc, argv).
///
/// Usage:
///   FlagSet flags("vodctl server");
///   flags.AddInt64("seed", 42, "base RNG seed");
///   flags.AddBool("csv", false, "emit CSV instead of an aligned table");
///   VOD_CHECK_OK(flags.Parse(argc, argv));
///   uint64_t seed = flags.GetInt64("seed");
class FlagSet {
 public:
  /// `program` is used in the --help banner.
  explicit FlagSet(std::string program);

  void AddInt64(const std::string& name, int64_t default_value,
                const std::string& help);
  void AddDouble(const std::string& name, double default_value,
                 const std::string& help);
  void AddBool(const std::string& name, bool default_value,
               const std::string& help);
  void AddString(const std::string& name, const std::string& default_value,
                 const std::string& help);

  /// Parses argv. Unknown flags or malformed values produce InvalidArgument
  /// naming the flag ("flag --seed expects a base-10 integer, got '1e3'").
  /// `--help` prints usage to stdout and, if `exit_on_help` is set (default),
  /// exits the process with code 0.
  Status Parse(int argc, char** argv, bool exit_on_help = true);

  int64_t GetInt64(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;
  const std::string& GetString(const std::string& name) const;

  /// True if a flag with this name was registered (any type).
  bool Has(const std::string& name) const;

  /// Registered flag names, in registration order.
  const std::vector<std::string>& names() const { return order_; }

  /// The flag's parsed value as text that tells every two values apart:
  /// doubles print with 17 significant digits (round-trip exact), bools as
  /// true/false, strings verbatim.
  std::string ValueText(const std::string& name) const;

  /// Renders the --help text.
  std::string Usage() const;

 private:
  enum class Type { kInt64, kDouble, kBool, kString };
  struct Flag {
    Type type;
    std::string help;
    std::string default_text;
    int64_t int_value = 0;
    double double_value = 0;
    bool bool_value = false;
    std::string string_value;
  };

  const Flag& Find(const std::string& name, Type type) const;
  /// Registers `flag` under `name`; re-registering a name aborts (a
  /// duplicate registration is always a programming error and would
  /// silently shadow the first flag's default and help text).
  void Register(const std::string& name, Flag flag);
  Status SetFromText(const std::string& name, const std::string& text);

  std::string program_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;  // registration order for --help
};

}  // namespace vod

#endif  // VOD_COMMON_FLAGS_H_
