#include "exp/sweep.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/table.h"

namespace pels {

namespace {

/// Epoch tag occupies the high 32 bits of ticket_/done_; the low 32 bits
/// hold the next-unclaimed index / completed-job count. A worker can only
/// CAS against counters carrying the epoch it was dispatched for, so a
/// straggler waking after its batch retired can neither steal tickets from
/// nor report completions into a newer batch. (The tag is the low 32 bits
/// of the 64-bit epoch; confusing two batches would take a worker sleeping
/// through exactly 2^32 of them.)
std::uint64_t epoch_tag(std::uint64_t epoch) { return (epoch & 0xffffffffULL) << 32; }

}  // namespace

unsigned SweepRunner::default_threads() {
  if (const char* env = std::getenv("PELS_SWEEP_THREADS")) {
    char* end = nullptr;
    const long n = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && n > 0) return static_cast<unsigned>(n);
  }
  return hardware_threads();
}

unsigned SweepRunner::hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

SweepRunner::SweepRunner(unsigned threads) {
  requested_ = threads == 0 ? default_threads() : threads;
  // Oversubscription clamp: more workers than hardware threads buys only
  // context-switch thrash and then reads as a scaling regression in benches
  // (the exact failure BENCH_pipeline.json once recorded from a 1-core CI
  // box). The requested/effective pair stays visible through stats().
  const unsigned n = std::max(1u, std::min(requested_, hardware_threads()));
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) workers_.emplace_back([this] { worker_loop(); });
}

SweepRunner::~SweepRunner() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

SweepRunner::Stats SweepRunner::stats() const {
  Stats s;
  s.requested_threads = requested_;
  s.effective_threads = static_cast<unsigned>(workers_.size());
  s.batches = batches_;
  s.jobs = jobs_run_;
  return s;
}

void SweepRunner::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this, seen] { return stop_ || epoch_ != seen; });
    if (stop_) return;
    seen = epoch_;
    const std::function<void(std::size_t)>* job = job_;
    const std::size_t n = batch_size_;
    const std::size_t chunk = chunk_;
    lock.unlock();

    // Claim [begin, end) ticket ranges lock-free until the batch is drained.
    const std::uint64_t tag = epoch_tag(seen);
    std::size_t completed = 0;
    std::uint64_t cur = ticket_.load(std::memory_order_relaxed);
    while ((cur & ~0xffffffffULL) == tag) {
      const std::size_t begin = static_cast<std::uint32_t>(cur);
      if (begin >= n) break;
      const std::size_t end = std::min(begin + chunk, n);
      if (!ticket_.compare_exchange_weak(cur, tag | end, std::memory_order_relaxed)) {
        continue;  // lost the race (or another epoch took over); cur reloaded
      }
      for (std::size_t i = begin; i < end; ++i) {
        (*job)(i);  // noexcept by contract (run() wraps task exceptions)
      }
      completed += end - begin;
      cur = ticket_.load(std::memory_order_relaxed);
    }

    if (completed > 0) {
      // Publish results (release) and wake the submitter if this made the
      // batch complete. Locking mu_ around the notify pins the submitter
      // inside its predicate-checked wait.
      std::uint64_t done = done_.load(std::memory_order_relaxed);
      std::uint64_t fresh = 0;
      do {
        assert((done & ~0xffffffffULL) == tag && "batch retired with work unreported");
        fresh = tag | (static_cast<std::uint32_t>(done) + completed);
      } while (!done_.compare_exchange_weak(done, fresh, std::memory_order_acq_rel));
      if (static_cast<std::uint32_t>(fresh) == n) {
        std::lock_guard<std::mutex> g(mu_);
        done_cv_.notify_all();
      }
    }
    lock.lock();
  }
}

void SweepRunner::run_indexed(std::size_t n, const std::function<void(std::size_t)>& job) {
  if (n == 0) return;
  assert(n < (1ULL << 32) && "batch size must fit the 32-bit ticket space");
  std::unique_lock<std::mutex> lock(mu_);
  // One batch at a time; a second submitter waits for the pool to go idle.
  done_cv_.wait(lock, [this] { return job_ == nullptr; });
  job_ = &job;
  batch_size_ = n;
  // Chunked claiming: large batches of cheap jobs amortize the ticket RMW,
  // small batches keep chunk=1 so every worker gets work. The cap bounds
  // tail imbalance when job costs vary.
  chunk_ = std::clamp<std::size_t>(n / (workers_.size() * 8), 1, 64);
  ++epoch_;
  const std::uint64_t tag = epoch_tag(epoch_);
  ticket_.store(tag, std::memory_order_relaxed);
  done_.store(tag, std::memory_order_relaxed);
  ++batches_;
  jobs_run_ += n;
  work_cv_.notify_all();
  done_cv_.wait(lock, [this, n, tag] {
    return done_.load(std::memory_order_acquire) == (tag | n);
  });
  job_ = nullptr;
  done_cv_.notify_all();  // wake any submitter waiting for the pool
}

std::string run_to_table(SweepRunner& runner,
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
