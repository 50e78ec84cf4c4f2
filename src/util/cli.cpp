#include "util/cli.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <utility>

namespace pels {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--name value" if the next token is not itself a flag; else a switch.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "";
    }
  }
}

bool CliArgs::has(const std::string& name) const { return flags_.count(name) != 0; }

std::string CliArgs::get_string(const std::string& name, const std::string& def) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

long long CliArgs::get_int(const std::string& name, long long def) const {
  auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return def;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    errors_.push_back("--" + name + ": not an integer: " + it->second);
    return def;
  }
  return v;
}

double CliArgs::get_double(const std::string& name, double def) const {
  auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return def;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    errors_.push_back("--" + name + ": not a number: " + it->second);
    return def;
  }
  return v;
}

bool CliArgs::get_bool(const std::string& name, bool def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const std::string& v = it->second;
  if (v.empty() || v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  errors_.push_back("--" + name + ": not a boolean: " + v);
  return def;
}

std::vector<std::string> CliArgs::flag_names() const {
  std::vector<std::string> names;
  names.reserve(flags_.size());
  for (const auto& [name, value] : flags_) names.push_back(name);
  return names;
}

namespace {

bool listed(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

}  // namespace

StrictCliArgs::StrictCliArgs(int argc, const char* const* argv, std::vector<std::string> switches,
                             std::vector<std::string> valued, std::size_t max_positional)
    : CliArgs(argc, argv),
      switches_(std::move(switches)),
      valued_(std::move(valued)),
      max_positional_(max_positional) {}

long long StrictCliArgs::get_int_at_least(const std::string& name, long long def,
                                          long long min) const {
  const std::size_t malformed = parse_errors().size();
  const long long v = get_int(name, def);
  if (has(name) && parse_errors().size() == malformed && v < min)
    range_errors_.push_back("--" + name + " must be at least " + std::to_string(min));
  return v;
}

std::vector<std::string> StrictCliArgs::errors() const {
  std::vector<std::string> out;
  for (std::size_t i = max_positional_; i < positional().size(); ++i)
    out.push_back("unexpected argument '" + positional()[i] + "'");
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
  out.insert(out.end(), range_errors_.begin(), range_errors_.end());
  return out;
}

bool StrictCliArgs::reject(const std::string& program, const std::string& usage) const {
  const std::vector<std::string> errs = errors();
  for (const std::string& e : errs) std::cerr << program << ": " << e << "\n";
  if (!errs.empty()) std::cerr << usage << "\n";
  return !errs.empty();
}

}  // namespace pels
