#pragma once
/// \file cli.hpp
/// Tiny command-line option parser for examples and benchmark binaries.
/// Supports --name=value, --name value, and boolean --flag forms.

#include <map>
#include <string>
#include <vector>

namespace bd::util {

/// Declarative option registry + parser.
///
///   ArgParser args("bench_table1", "Reproduces Table I");
///   args.add_int("particles", 100000, "number of macro-particles");
///   args.add_flag("full", "run the paper-scale sweep");
///   if (!args.parse(argc, argv)) return 0;  // --help; exits 2 on an error
///   int n = args.get_int("particles");
///
/// Every parser also registers a built-in `--trace=<out.json>` option: when
/// given, telemetry span capture (util/telemetry) starts and the chrome-
/// trace JSON plus a per-span summary are emitted when the process exits —
/// the CLI spelling of the `BD_TRACE=<out.json>` environment variable.
/// It is the only built-in option. A binary with more flags registers
/// them itself: examples/quickstart adds the checkpoint/restart options
/// (`--checkpoint`, `--checkpoint-every`, `--resume`; see
/// docs/ROBUSTNESS.md).
class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  void add_int(const std::string& name, std::int64_t default_value,
               const std::string& help);
  void add_double(const std::string& name, double default_value,
                  const std::string& help);
  void add_string(const std::string& name, const std::string& default_value,
                  const std::string& help);
  void add_flag(const std::string& name, const std::string& help);

  /// Parse argv. Returns false after printing usage to stdout on --help,
  /// so callers write `if (!args.parse(...)) return 0;`. On an unknown
  /// option, a missing value, a stray argument, or an int or double value
  /// that is not wholly a base-10 number in range, it prints the error and
  /// the usage to stderr and exits the process with status 2.
  bool parse(int argc, const char* const* argv);

  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  const std::string& get_string(const std::string& name) const;
  bool get_flag(const std::string& name) const;

  /// Usage text (also printed on --help).
  std::string usage() const;

 private:
  enum class Kind { kInt, kDouble, kString, kFlag };
  struct Option {
    Kind kind;
    std::string help;
    std::string value;     // current (default or parsed) textual value
    std::string default_value;
  };
  const Option& find(const std::string& name, Kind kind) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Option> options_;
};

}  // namespace bd::util
