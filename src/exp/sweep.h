// Parallel experiment execution: a fixed thread pool running independent
// simulation tasks.
//
// Every bench/figure harness and scenario-level test sweeps a parameter grid
// (config points x seeds) where each point builds its own Simulation,
// Scheduler, and Rng streams and shares nothing with the others. SweepRunner
// exploits that: tasks are claimed from an atomic ticket counter (in chunks,
// so a batch of thousands of cheap tasks costs a handful of RMWs, not one
// per task) by a fixed pool of worker threads, and each task writes its
// result into a cache-line-padded slot indexed by submission order. Results
// (and any buffered table rows / trace text) are reduced strictly in
// submission order after the join, which makes the engine *provably
// deterministic*: a sweep at threads=N produces bit-identical tables and
// metrics CSVs to threads=1, because no task can observe another and no
// output is emitted from inside a worker.
//
// Scaling hygiene (see DESIGN.md "Parallel experiments"):
//   * The effective worker count is clamped to min(requested,
//     hardware_concurrency): oversubscribing a small box turns parallelism
//     into context-switch thrash and then shows up in benches as a phantom
//     "scaling regression". stats() reports the requested/effective pair so
//     harnesses can annotate oversubscribed measurements.
//   * Result slots are padded to kCacheLineSize: adjacent outcomes written
//     by different workers must not share a line (false sharing serializes
//     the writes in the coherence fabric even though the code shares
//     nothing).
//
// The simulator core stays single-threaded per domain; intra-scenario
// parallelism lives in DomainRunner (exp/domain_runner.h), which runs
// link-delay-separated topology domains on its own persistent workers: a
// lookahead window is tens of microseconds of work, too little to pay for
// this pool's mutex and condition-variable round trip per batch.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace pels {

class TablePrinter;

/// Destructive-interference granularity for result-slot padding. A fixed 64
/// is used instead of std::hardware_destructive_interference_size: the
/// constant must not vary with -mtune (it would change struct layouts across
/// TUs), and 64 covers every target this project builds on.
inline constexpr std::size_t kCacheLineSize = 64;

/// Result slot of one sweep task: the returned value, or the error message
/// of the exception it threw. A throwing task (e.g. a config whose
/// validate() raises std::invalid_argument) is reported here per task and
/// never takes down the process or the rest of the batch.
template <typename R>
struct TaskOutcome {
  std::optional<R> value;
  std::string error;  // non-empty iff the task threw

  bool ok() const { return value.has_value(); }
};

/// Buffered output of one bench task: table rows plus free-form text.
/// Workers never print; run_to_table() appends rows and emits text in
/// submission order after the join, so going parallel can neither interleave
/// nor reorder a bench's stdout.
struct SweepOutput {
  std::vector<std::vector<std::string>> rows;
  std::string text;
};

class SweepRunner {
 public:
  /// Pool/dispatch counters for scaling diagnostics.
  struct Stats {
    unsigned requested_threads = 0;  // what the caller asked for
    unsigned effective_threads = 0;  // after the hardware clamp
    std::uint64_t batches = 0;       // run/run_indexed calls served
    std::uint64_t jobs = 0;          // individual tasks executed
  };

  /// Starts workers for `threads` requested threads; 0 means
  /// default_threads(). The pool actually spawns min(requested,
  /// hardware_threads()) workers — see stats() for the pair. Workers live
  /// for the runner's lifetime (fixed pool, no per-batch spawning).
  explicit SweepRunner(unsigned threads = 0);
  ~SweepRunner();

  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  /// Effective worker count (post-clamp).
  unsigned thread_count() const { return static_cast<unsigned>(workers_.size()); }

  /// What the constructor was asked for, before the hardware clamp.
  unsigned requested_threads() const { return requested_; }

  /// Thread count used when none is given: PELS_SWEEP_THREADS when set to a
  /// positive integer, else std::thread::hardware_concurrency(), floored
  /// at 1.
  static unsigned default_threads();

  /// std::thread::hardware_concurrency() floored at 1 (it may report 0).
  static unsigned hardware_threads();

  /// Snapshot of pool counters. Values are updated by the submitting thread
  /// between batches; call from the submitter (not from inside a task).
  Stats stats() const;

  /// Runs every task on the pool and returns their outcomes in submission
  /// order. Exceptions are captured per task (std::exception::what, or a
  /// placeholder for non-standard throws). Tasks must be independent and
  /// must not submit work to this runner (the batch would deadlock on
  /// itself). Outcome slots are cache-line padded while workers write them.
  template <typename R>
  std::vector<TaskOutcome<R>> run(std::vector<std::function<R()>> tasks) {
    struct alignas(kCacheLineSize) PaddedOutcome {
      TaskOutcome<R> out;
    };
    std::vector<PaddedOutcome> padded(tasks.size());
    run_indexed(tasks.size(), [&tasks, &padded](std::size_t i) {
      try {
        padded[i].out.value.emplace(tasks[i]());
      } catch (const std::exception& e) {
        padded[i].out.error = e.what();
      } catch (...) {
        padded[i].out.error = "non-standard exception";
      }
    });
    std::vector<TaskOutcome<R>> outcomes;
    outcomes.reserve(padded.size());
    for (PaddedOutcome& p : padded) outcomes.push_back(std::move(p.out));
    return outcomes;
  }

  /// Runs job(0) .. job(n-1) on the pool, returning after all have
  /// completed. The primitive behind run(), exposed for callers with a
  /// natural index space. Jobs must not throw (run() wraps tasks so they
  /// cannot). Batches are serialized: concurrent submitters take turns.
  void run_indexed(std::size_t n, const std::function<void(std::size_t)>& job);

 private:
  void worker_loop();

  // Batch handoff (cold): protected by mu_. Workers park on work_cv_
  // between batches; submitters park on done_cv_ both while another batch
  // runs and while waiting for their own batch to finish.
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* job_ = nullptr;  // current batch
  std::size_t batch_size_ = 0;
  std::size_t chunk_ = 1;     // tickets claimed per RMW this batch
  std::uint64_t epoch_ = 0;   // bumped per batch; workers key off it
  bool stop_ = false;
  unsigned requested_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t jobs_run_ = 0;

  // Job dispatch (hot): workers claim [idx, idx+chunk) ranges from
  // ticket_ via CAS and report completion through done_. The counters are
  // epoch-tagged (high 32 bits) so a worker that oversleeps a whole batch
  // can never claim tickets — or misreport completions — against a newer
  // batch's counters: its CAS fails on the epoch bits and it goes back to
  // wait. Padded so the two RMW targets and the cold state above never
  // share a cache line.
  alignas(kCacheLineSize) std::atomic<std::uint64_t> ticket_{0};
  alignas(kCacheLineSize) std::atomic<std::uint64_t> done_{0};

  std::vector<std::thread> workers_;
};

/// Runs one buffered-output task per parameter point and merges the results
/// in submission order: every task's rows are appended to `table`, and the
/// concatenation of the non-empty `text` fields (also in order) is returned
/// for the caller to print after the table. Rows are staged and committed
/// only after every task succeeded: if any task threw, `table` is left
/// untouched and std::runtime_error names each failed point and its error —
/// bench harnesses prefer one loud failure to a silently partial table.
std::string run_to_table(SweepRunner& runner,
                         std::vector<std::function<SweepOutput()>> tasks,
                         TablePrinter& table);

}  // namespace pels
