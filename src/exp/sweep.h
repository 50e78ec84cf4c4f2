// Parallel experiment execution: independent simulation tasks run as one
// fork-join per batch.
//
// Every bench/figure harness and scenario-level test sweeps a parameter grid
// (config points x seeds) where each point builds its own Simulation,
// Scheduler, and Rng streams and shares nothing with the others. SweepRunner
// exploits that: run() starts min(thread_count(), tasks) - 1 helper threads,
// the helpers and the caller's thread claim task indices from one atomic
// counter, each task writes its result into the slot of its submission
// index, and the caller joins every helper before it returns. Results (and
// any buffered table rows / trace text) are reduced strictly in submission
// order after the join, which makes the engine *provably deterministic*: a
// sweep at threads=N produces bit-identical tables and metrics CSVs to
// threads=1, because no task can observe another and no output is emitted
// from inside a task.
//
// A task is a whole simulation (milliseconds to seconds), so starting and
// joining the helpers per batch is noise (tens of microseconds for three
// helpers on a 4-vCPU Xeon container), and no thread outlives its batch.
//
// The thread count is clamped to min(requested, hardware_threads()):
// oversubscribing a small box turns parallelism into context-switch thrash
// and then shows up in benches as a phantom "scaling regression".
// requested_threads() and thread_count() report the pair so harnesses can
// annotate oversubscribed measurements.
//
// The simulator core stays single-threaded per domain; intra-scenario
// parallelism lives in DomainRunner (exp/domain_runner.h), which runs
// link-delay-separated topology domains on its own persistent workers: a
// lookahead window is tens of microseconds of work, too little to start
// and join threads for.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace pels {

class TablePrinter;

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
/// Tasks never print; run_to_table() appends rows and emits text in
/// submission order after the join, so going parallel can neither interleave
/// nor reorder a bench's stdout.
struct SweepOutput {
  std::vector<std::vector<std::string>> rows;
  std::string text;
};

class SweepRunner {
 public:
  /// Runs batches on `threads` requested threads; 0 means default_threads().
  /// A batch uses at most thread_count() = min(requested,
  /// hardware_threads()) threads, the caller's included.
  explicit SweepRunner(unsigned threads = 0);

  /// Effective thread count (post-clamp).
  unsigned thread_count() const { return threads_; }

  /// What the constructor was asked for, before the hardware clamp.
  unsigned requested_threads() const { return requested_; }

  /// Thread count used when none is given: PELS_SWEEP_THREADS when set,
  /// else hardware_threads(). A value that is not a positive integer
  /// fitting `unsigned` is reported in one stderr line and ignored.
  static unsigned default_threads();

  /// The CPUs this thread may run on (its sched_getaffinity mask), else
  /// std::thread::hardware_concurrency() floored at 1. A cgroup CPU quota
  /// (cpu.max) is not seen: a container capped at 2 CPUs of 8 reports 8.
  static unsigned hardware_threads();

  /// Runs every task and returns their outcomes in submission order.
  /// Exceptions are captured per task (std::exception::what, or a
  /// placeholder for non-standard throws). Tasks must be independent. At
  /// thread_count() = 1 every task runs on the caller's thread.
  template <typename R>
  std::vector<TaskOutcome<R>> run(std::vector<std::function<R()>> tasks) const {
    std::vector<TaskOutcome<R>> outcomes(tasks.size());
    for_each_index(tasks.size(), [&tasks, &outcomes](std::size_t i) {
      try {
        outcomes[i].value.emplace(tasks[i]());
      } catch (const std::exception& e) {
        outcomes[i].error = e.what();
      } catch (...) {
        outcomes[i].error = "non-standard exception";
      }
    });
    return outcomes;
  }

 private:
  /// Calls job(0) .. job(n-1), each once, on the caller's thread and up to
  /// min(threads_, n) - 1 helpers, and returns after joining every helper.
  void for_each_index(std::size_t n, const std::function<void(std::size_t)>& job) const;

  unsigned requested_;
  unsigned threads_;
};

/// Runs one buffered-output task per parameter point and merges the results
/// in submission order: every task's rows are appended to `table`, and the
/// concatenation of the non-empty `text` fields (also in order) is returned
/// for the caller to print after the table. Rows are staged and committed
/// only after every task succeeded: if any task threw, `table` is left
/// untouched and std::runtime_error names each failed point and its error —
/// bench harnesses prefer one loud failure to a silently partial table.
std::string run_to_table(const SweepRunner& runner,
                         std::vector<std::function<SweepOutput()>> tasks,
                         TablePrinter& table);

}  // namespace pels
