// Strict command lines for the gated bench binaries (micro_pipeline,
// many_flows, chaos_sweep, fairness_matrix).
//
// Each of them writes its JSON to a default BENCH_*.json in the working
// directory, so a mistyped flag that is silently ignored can overwrite a
// committed artifact or run the wrong size. Every mistake is therefore a
// usage error with exit status 2:
//
//   const BenchCli cli(argc, argv, {"smoke"}, {"json", "label"});
//   const bool smoke = cli.has("smoke");
//   const std::string json_path = cli.get_string("json", "BENCH_x.json");
//   if (cli.reject("x", kUsage)) return 2;
#pragma once

#include <algorithm>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "util/cli.h"

namespace pels {

/// CliArgs restricted to an allow-list: switches (--smoke) and flags that
/// need a value (--json PATH).
class BenchCli : public CliArgs {
 public:
  BenchCli(int argc, const char* const* argv, std::vector<std::string> switches,
           std::vector<std::string> valued)
      : CliArgs(argc, argv), switches_(std::move(switches)), valued_(std::move(valued)) {}

  /// get_int that also rejects a well-formed value below `min`.
  long long get_int_at_least(const std::string& name, long long def, long long min) const {
    const std::size_t malformed = parse_errors().size();
    const long long v = get_int(name, def);
    if (has(name) && parse_errors().size() == malformed && v < min)
      errors_.push_back("--" + name + " must be at least " + std::to_string(min));
    return v;
  }

  /// Everything wrong with the command line: positional arguments, unknown
  /// flags, switches given a value, value flags given none, and the values
  /// the caller's get_* reads could not parse. Read the flags first.
  std::vector<std::string> errors() const {
    std::vector<std::string> out;
    for (const std::string& p : positional()) out.push_back("unexpected argument '" + p + "'");
    for (const std::string& name : flag_names()) {
      const bool has_value = !get_string(name, "").empty();
      if (listed(valued_, name)) {
        if (!has_value) out.push_back("--" + name + " needs a value");
      } else if (!listed(switches_, name)) {
        out.push_back("unknown flag --" + name);
      } else if (has_value) {
        out.push_back("--" + name + " takes no value");
      }
    }
    out.insert(out.end(), parse_errors().begin(), parse_errors().end());
    out.insert(out.end(), errors_.begin(), errors_.end());
    return out;
  }

  /// Prints every error and the usage line to stderr; true if there were any.
  bool reject(const std::string& program, const std::string& usage) const {
    const std::vector<std::string> errs = errors();
    for (const std::string& e : errs) std::cerr << program << ": " << e << "\n";
    if (!errs.empty()) std::cerr << usage << "\n";
    return !errs.empty();
  }

 private:
  static bool listed(const std::vector<std::string>& names, const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  }

  std::vector<std::string> switches_;
  std::vector<std::string> valued_;
  mutable std::vector<std::string> errors_;
};

}  // namespace pels
