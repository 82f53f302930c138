// Declarative command-line parsing for the harnesses and examples.
//
// Every tool used to hand-roll its own argv loop; the copies disagreed on
// error handling (silently ignored unknown flags, accepted garbage numbers
// via unchecked strtoul) and none generated --help from the actual flag
// set. CliParser is a small registry: register typed flags and positionals
// up front, then parse. Unknown flags, missing values, and malformed
// numbers all raise UsageError; --help is generated from the registry.
//
//   util::CliParser cli("bench_foo", "What this harness measures.");
//   cli.add_uint64("--seed", &seed, "traffic seed");
//   cli.add_flag("--list-arch", &list_arch, "list architectures and exit");
//   cli.parse_or_exit(argc, argv);   // exits 2 on bad usage, 0 on --help
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/error.h"

namespace specnoc::util {

/// Bad command-line input (unknown flag, malformed value, ...). A subclass
/// of ConfigError so library-level parse helpers can throw it too.
class UsageError : public ConfigError {
 public:
  explicit UsageError(const std::string& what) : ConfigError(what) {}
};

/// Strict full-string numeric parsers: reject empty input, trailing
/// garbage, sign errors, and out-of-range values. `what` names the flag in
/// the error message.
std::uint64_t parse_u64(const std::string& text, const std::string& what);
std::int64_t parse_i64(const std::string& text, const std::string& what);
double parse_f64(const std::string& text, const std::string& what);

class CliParser {
 public:
  CliParser(std::string program, std::string summary);

  /// Typed flags. Targets must outlive parse(); their current values are
  /// the defaults shown in --help.
  void add_flag(const std::string& name, bool* target,
                const std::string& help);
  void add_uint64(const std::string& name, std::uint64_t* target,
                  const std::string& help);
  void add_uint32(const std::string& name, std::uint32_t* target,
                  const std::string& help);
  void add_unsigned(const std::string& name, unsigned* target,
                    const std::string& help);
  void add_int64(const std::string& name, std::int64_t* target,
                 const std::string& help);
  void add_double(const std::string& name, double* target,
                  const std::string& help);
  void add_string(const std::string& name, std::string* target,
                  const std::string& help);

  /// A value-taking flag with a custom parser (e.g. --shard i/K). The
  /// callback should throw UsageError/ConfigError to reject the value.
  void add_custom(const std::string& name, const std::string& value_name,
                  const std::string& help,
                  std::function<void(const std::string&)> parse);

  /// A value-less flag with a side effect (e.g. --list printing names).
  void add_action(const std::string& name, const std::string& help,
                  std::function<void()> action);

  /// Optional positional argument, consumed in registration order.
  void add_positional_uint32(const std::string& name, std::uint32_t* target,
                             const std::string& help);

  /// Trailing variadic positionals (e.g. sweep_merge's shard files): every
  /// non-flag argument left after the fixed positionals is appended here.
  void add_positional_list(const std::string& name,
                           std::vector<std::string>* target,
                           const std::string& help);

  /// Parses argv. Throws UsageError on any problem; --help prints usage to
  /// stdout and returns false (callers should exit 0).
  [[nodiscard]] bool parse(int argc, char** argv);

  /// parse() with the standard tool behavior: --help exits 0, UsageError
  /// prints the message plus usage to stderr and exits 2.
  void parse_or_exit(int argc, char** argv);

  std::string usage() const;

 private:
  struct Flag {
    std::string name;
    std::string value_name;  ///< empty for boolean/action flags
    std::string help;
    std::function<void(const std::string&)> parse;  ///< value flags
    std::function<void()> action;                   ///< value-less flags
  };
  struct Positional {
    std::string name;
    std::string help;
    std::function<void(const std::string&)> parse;
  };

  const Flag* find(const std::string& name) const;
  void add(Flag flag);

  std::string program_;
  std::string summary_;
  std::vector<Flag> flags_;
  std::vector<Positional> positionals_;
  Positional rest_;  ///< trailing list; empty name = not registered
};

}  // namespace specnoc::util
