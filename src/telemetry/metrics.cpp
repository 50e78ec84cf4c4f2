#include "telemetry/metrics.h"

#include <algorithm>
#include <stdexcept>

namespace pels {

namespace {

std::uint32_t name_hash(std::string_view name) {
  return static_cast<std::uint32_t>(std::hash<std::string_view>{}(name));
}

}  // namespace

std::uint32_t MetricsRegistry::check_new_name(const std::string& name) const {
  if (name.empty()) throw std::invalid_argument("MetricsRegistry: empty instrument name");
  const std::uint32_t hash = name_hash(name);
  if (find(name, hash) >= 0)
    throw std::invalid_argument("MetricsRegistry: duplicate instrument name: " + name);
  return hash;
}

void MetricsRegistry::add_entry(Entry e, std::uint32_t hash) {
  entries_.push_back(std::move(e));
  if (2 * entries_.size() > index_.size()) {
    std::vector<IndexSlot> old(std::max<std::size_t>(64, 2 * index_.size()));
    old.swap(index_);
    for (const IndexSlot& s : old)
      if (s.entry != 0) place(s);
  }
  place({hash, static_cast<std::uint32_t>(entries_.size())});
}

std::ptrdiff_t MetricsRegistry::find(std::string_view name, std::uint32_t hash) const {
  if (index_.empty()) return -1;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const IndexSlot& s = index_[i];
    if (s.entry == 0) return -1;
    if (s.hash == hash && entries_[s.entry - 1].name == name) return s.entry - 1;
  }
}

void MetricsRegistry::place(IndexSlot slot) {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = slot.hash & mask;
  while (index_[i].entry != 0) i = (i + 1) & mask;
  index_[i] = slot;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::uint32_t hash = check_new_name(name);
  counters_.emplace_back();
  Entry e;
  e.name = name;
  e.kind = Kind::kCounter;
  e.counter = &counters_.back();
  add_entry(std::move(e), hash);
  return counters_.back();
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const std::uint32_t hash = check_new_name(name);
  gauges_.emplace_back();
  Entry e;
  e.name = name;
  e.kind = Kind::kGauge;
  e.gauge = &gauges_.back();
  add_entry(std::move(e), hash);
  return gauges_.back();
}

void MetricsRegistry::add_probe(const std::string& name, ProbeFn read) {
  const std::uint32_t hash = check_new_name(name);
  if (!read) throw std::invalid_argument("MetricsRegistry: null probe: " + name);
  Entry e;
  e.name = name;
  e.kind = Kind::kProbe;
  e.probe = std::move(read);
  add_entry(std::move(e), hash);
}

double MetricsRegistry::read(std::size_t i) const {
  const Entry& e = entries_.at(i);
  switch (e.kind) {
    case Kind::kCounter:
      return static_cast<double>(e.counter->value());
    case Kind::kGauge:
      return e.gauge->value();
    case Kind::kProbe:
      return e.probe();
  }
  return 0.0;
}

std::ptrdiff_t MetricsRegistry::index_of(std::string_view name) const {
  return find(name, name_hash(name));
}

}  // namespace pels
