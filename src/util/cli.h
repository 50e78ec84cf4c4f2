// Minimal command-line flag parsing for examples and bench harnesses.
//
// Supports --name=value and --name value forms plus boolean switches
// (--flag). CliArgs collects whatever it is given so callers can reject or
// ignore it; StrictCliArgs checks the command line against an allow-list.
// No external dependencies, no global state.
//
//   CliArgs args(argc, argv);
//   const int flows = args.get_int("flows", 4);
//   const double secs = args.get_double("seconds", 30.0);
//   const std::string csv = args.get_string("csv", "");
//   if (args.has("help")) { ... }
//
// Binaries whose typo could overwrite an artifact or run the wrong
// experiment read flags first, then reject the whole command line:
//
//   const StrictCliArgs cli(argc, argv, {"smoke"}, {"json", "label"});
//   const bool smoke = cli.has("smoke");
//   const std::string json_path = cli.get_string("json", "BENCH_x.json");
//   if (cli.reject("x", kUsage)) return 2;
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pels {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  /// True if --name was present (with or without a value).
  bool has(const std::string& name) const;

  /// Value accessors with defaults; malformed numbers fall back to the
  /// default (and are reported via parse_errors()).
  std::string get_string(const std::string& name, const std::string& def) const;
  long long get_int(const std::string& name, long long def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags that were parsed (for unknown-flag checks by the caller).
  std::vector<std::string> flag_names() const;

  /// Human-readable descriptions of values that failed to parse.
  const std::vector<std::string>& parse_errors() const { return errors_; }

 private:
  std::map<std::string, std::string> flags_;  // name -> value ("" for switches)
  std::vector<std::string> positional_;
  mutable std::vector<std::string> errors_;
};

/// CliArgs restricted to an allow-list: switches (--smoke), flags that need a
/// value (--json PATH) and at most `max_positional` positional arguments.
class StrictCliArgs : public CliArgs {
 public:
  StrictCliArgs(int argc, const char* const* argv, std::vector<std::string> switches,
                std::vector<std::string> valued, std::size_t max_positional = 0);

  /// get_int that also rejects a well-formed value below `min`.
  long long get_int_at_least(const std::string& name, long long def, long long min) const;

  /// Everything wrong with the command line: surplus positional arguments,
  /// unknown flags, switches given a value, value flags given none, and the
  /// values the caller's get_* reads could not parse. Read the flags first.
  std::vector<std::string> errors() const;

  /// Prints every error and the usage text to stderr; true if there were any.
  bool reject(const std::string& program, const std::string& usage) const;

 private:
  std::vector<std::string> switches_;
  std::vector<std::string> valued_;
  std::size_t max_positional_;
  mutable std::vector<std::string> range_errors_;
};

}  // namespace pels
