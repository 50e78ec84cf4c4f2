#include "exp/sweep.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>

#include "util/table.h"

namespace pels {

unsigned SweepRunner::default_threads() {
  const char* env = std::getenv("PELS_SWEEP_THREADS");
  if (env == nullptr) return hardware_threads();
  // Digits only: from_chars takes no sign or blank for an unsigned, and
  // reports a value past its range instead of wrapping it.
  const char* end = env + std::strlen(env);
  unsigned n = 0;
  const auto [ptr, ec] = std::from_chars(env, end, n);
  if (ec == std::errc() && ptr == end && n > 0) return n;
  const unsigned hw = hardware_threads();
  std::cerr << "PELS_SWEEP_THREADS='" << env
            << "' is not a positive integer that fits unsigned; using " << hw << " threads\n";
  return hw;
}

unsigned SweepRunner::hardware_threads() {
  // A narrowed mask (taskset, a CPU-pinned container) is the real limit:
  // hardware_concurrency() counts every CPU of the machine.
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof mask, &mask) == 0 && CPU_COUNT(&mask) > 0) {
    return static_cast<unsigned>(CPU_COUNT(&mask));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

SweepRunner::SweepRunner(unsigned threads)
    : requested_(threads == 0 ? default_threads() : threads),
      // Oversubscription clamp: more threads than CPUs buys only
      // context-switch thrash and then reads as a scaling regression in
      // benches (the exact failure BENCH_pipeline.json once recorded from a
      // 1-core CI box).
      threads_(std::max(1u, std::min(requested_, hardware_threads()))) {}

void SweepRunner::for_each_index(std::size_t n,
                                 const std::function<void(std::size_t)>& job) const {
  std::atomic<std::size_t> next{0};
  const auto drain = [&next, n, &job] {
    // job is noexcept by contract: run() captures task exceptions.
    for (std::size_t i = next++; i < n; i = next++) job(i);
  };
  // std::jthread joins on destruction, so every helper that started is
  // joined on every path out of this scope; the join publishes its writes
  // to the caller.
  std::vector<std::jthread> helpers;
  const std::size_t wanted = std::min<std::size_t>(threads_, n);
  helpers.reserve(wanted > 0 ? wanted - 1 : 0);
  try {
    while (helpers.size() + 1 < wanted) helpers.emplace_back(drain);
  } catch (const std::system_error&) {
    // A helper that cannot start leaves its share to the threads that did.
  }
  drain();
}

std::string run_to_table(const SweepRunner& runner,
                         std::vector<std::function<SweepOutput()>> tasks,
                         TablePrinter& table) {
  auto outcomes = runner.run(std::move(tasks));

  // Staged commit: the table is untouched unless every task succeeded. Name
  // every failed point (index + error) — a bench aborting mid-campaign must
  // say exactly which rows died and why.
  std::ostringstream failures;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].ok()) failures << "  task " << i << ": " << outcomes[i].error << '\n';
  }
  if (!failures.str().empty()) {
    throw std::runtime_error("sweep task(s) failed:\n" + failures.str());
  }

  std::string text;
  for (TaskOutcome<SweepOutput>& out : outcomes) {
    text += out.value->text;
    for (const std::vector<std::string>& row : out.value->rows) table.add_row(row);
  }
  return text;
}

}  // namespace pels
