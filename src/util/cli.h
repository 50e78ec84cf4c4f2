// Strict command-line parsing for examples and bench harnesses.
//
// Supports --name=value and --name value forms plus switches (--flag),
// checked against an allow-list. Binaries whose typo could overwrite an
// artifact or run the wrong experiment read every value first, then reject
// the whole command line. No external dependencies, no global state.
//
//   const StrictCliArgs cli(argc, argv, {"smoke"}, {"json", "count"});
//   const bool smoke = cli.has("smoke");
//   const std::string json_path = cli.get_string("json", "BENCH_x.json");
//   const long long count = cli.get_int("count", 4, /*min=*/1);
//   if (cli.reject("x", kUsage)) return 2;
#pragma once

#include <climits>
#include <cstddef>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace pels {

class StrictCliArgs {
 public:
  /// Allows the switches (--smoke), the flags that need a value (--json
  /// PATH) and at most `max_positional` positional arguments.
  StrictCliArgs(int argc, const char* const* argv, std::vector<std::string> switches,
                std::vector<std::string> valued, std::size_t max_positional = 0);

  /// True if --name was present (with or without a value).
  bool has(const std::string& name) const;

  /// Value reads with defaults. A malformed number, one past the type's
  /// range, a NaN or infinite double, or a value outside [min, max] is
  /// recorded for errors() and the read returns the default.
  std::string get_string(const std::string& name, const std::string& def) const;
  long long get_int(const std::string& name, long long def, long long min = LLONG_MIN,
                    long long max = LLONG_MAX) const;
  double get_double(const std::string& name, double def,
                    double min = std::numeric_limits<double>::lowest(),
                    double max = std::numeric_limits<double>::max()) const;

  /// Positional arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }
  /// Positional argument `index` read like a flag value; `name` labels it in
  /// errors. Absent arguments read as `def`.
  long long positional_int(std::size_t index, const std::string& name, long long def,
                           long long min = LLONG_MIN, long long max = LLONG_MAX) const;
  double positional_double(std::size_t index, const std::string& name, double def,
                           double min = std::numeric_limits<double>::lowest(),
                           double max = std::numeric_limits<double>::max()) const;

  /// Everything wrong with the command line: surplus positional arguments,
  /// unknown flags, switches given a value, value flags given none, then the
  /// values the caller's reads rejected, in read order. Read the values first.
  std::vector<std::string> errors() const;

  /// Prints every error and the usage text to stderr; true if there were any.
  bool reject(const std::string& program, const std::string& usage) const;

 private:
  long long parse_int(const std::string& label, const std::string& text, long long def,
                      long long min, long long max) const;
  double parse_double(const std::string& label, const std::string& text, double def,
                      double min, double max) const;

  std::map<std::string, std::string> flags_;  // name -> value ("" for switches)
  std::vector<std::string> positional_;
  std::vector<std::string> switches_;
  std::vector<std::string> valued_;
  std::size_t max_positional_;
  mutable std::vector<std::string> value_errors_;
};

}  // namespace pels
