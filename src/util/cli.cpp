#include "util/cli.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <utility>

namespace pels {

namespace {

bool listed(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

/// "<label> must be at least 1", "... at most 9" or "... in [1, 9]".
template <typename T>
std::string range_error(const std::string& label, T min, T max, T lowest, T highest) {
  std::ostringstream os;
  os << label << " must be ";
  if (max == highest) {
    os << "at least " << min;
  } else if (min == lowest) {
    os << "at most " << max;
  } else {
    os << "in [" << min << ", " << max << "]";
  }
  return os.str();
}

}  // namespace

StrictCliArgs::StrictCliArgs(int argc, const char* const* argv, std::vector<std::string> switches,
                             std::vector<std::string> valued, std::size_t max_positional)
    : switches_(std::move(switches)),
      valued_(std::move(valued)),
      max_positional_(max_positional) {
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

bool StrictCliArgs::has(const std::string& name) const { return flags_.count(name) != 0; }

std::string StrictCliArgs::get_string(const std::string& name, const std::string& def) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

long long StrictCliArgs::parse_int(const std::string& label, const std::string& text,
                                   long long def, long long min, long long max) const {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    value_errors_.push_back(label + ": not an integer: " + text);
    return def;
  }
  // strtoll saturates on overflow; report it rather than read LLONG_MAX.
  if (errno == ERANGE) {
    value_errors_.push_back(label + ": out of range: " + text);
    return def;
  }
  if (v < min || v > max) {
    value_errors_.push_back(range_error(label, min, max, LLONG_MIN, LLONG_MAX));
    return def;
  }
  return v;
}

double StrictCliArgs::parse_double(const std::string& label, const std::string& text,
                                   double def, double min, double max) const {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    value_errors_.push_back(label + ": not a number: " + text);
    return def;
  }
  if (!std::isfinite(v)) {
    value_errors_.push_back(label + ": not a finite number: " + text);
    return def;
  }
  if (v < min || v > max) {
    value_errors_.push_back(range_error(label, min, max, std::numeric_limits<double>::lowest(),
                                        std::numeric_limits<double>::max()));
    return def;
  }
  return v;
}

long long StrictCliArgs::get_int(const std::string& name, long long def, long long min,
                                 long long max) const {
  auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return def;
  return parse_int("--" + name, it->second, def, min, max);
}

double StrictCliArgs::get_double(const std::string& name, double def, double min,
                                 double max) const {
  auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return def;
  return parse_double("--" + name, it->second, def, min, max);
}

long long StrictCliArgs::positional_int(std::size_t index, const std::string& name,
                                        long long def, long long min, long long max) const {
  if (index >= positional_.size()) return def;
  return parse_int(name, positional_[index], def, min, max);
}

double StrictCliArgs::positional_double(std::size_t index, const std::string& name, double def,
                                        double min, double max) const {
  if (index >= positional_.size()) return def;
  return parse_double(name, positional_[index], def, min, max);
}

std::vector<std::string> StrictCliArgs::errors() const {
  std::vector<std::string> out;
  for (std::size_t i = max_positional_; i < positional_.size(); ++i)
    out.push_back("unexpected argument '" + positional_[i] + "'");
  for (const auto& [name, value] : flags_) {
    if (listed(valued_, name)) {
      if (value.empty()) out.push_back("--" + name + " needs a value");
    } else if (!listed(switches_, name)) {
      out.push_back("unknown flag --" + name);
    } else if (!value.empty()) {
      out.push_back("--" + name + " takes no value");
    }
  }
  out.insert(out.end(), value_errors_.begin(), value_errors_.end());
  return out;
}

bool StrictCliArgs::reject(const std::string& program, const std::string& usage) const {
  const std::vector<std::string> errs = errors();
  for (const std::string& e : errs) std::cerr << program << ": " << e << "\n";
  if (!errs.empty()) std::cerr << usage << "\n";
  return !errs.empty();
}

}  // namespace pels
