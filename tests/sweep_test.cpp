// SweepRunner tests: the determinism contract (threads=N produces
// byte-identical CSV to threads=1, with and without fault injection), per-task
// error capture, and the submission-order output buffering that makes going
// parallel invisible in a bench's stdout.
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/domain_runner.h"
#include "exp/sweep.h"
#include "net/topology.h"
#include "pels/scenario.h"
#include "queue/drop_tail.h"
#include "util/table.h"

namespace pels {
namespace {

// ----------------------------------------------------------- runner basics

TEST(SweepRunnerTest, ExplicitThreadCountIsClampedToHardware) {
  SweepRunner one(1);
  EXPECT_EQ(one.thread_count(), 1u);
  EXPECT_EQ(one.requested_threads(), 1u);
  // Oversubscribing a DES sweep only adds scheduling noise (this is what
  // produced the phantom "scaling regression" on small CI boxes), so the
  // thread count is clamped to the hardware while the request is preserved
  // for reporting.
  SweepRunner four(4);
  EXPECT_EQ(four.requested_threads(), 4u);
  EXPECT_EQ(four.thread_count(), std::min(4u, SweepRunner::hardware_threads()));
  EXPECT_GE(SweepRunner::hardware_threads(), 1u);
  EXPECT_GE(SweepRunner::default_threads(), 1u);
  EXPECT_LE(SweepRunner::default_threads(), SweepRunner::hardware_threads());
}

TEST(SweepRunnerTest, HardwareThreadsFollowTheAffinityMask) {
  // Narrow this thread's own mask to one CPU of its current mask, the way
  // `taskset -c 0` narrows a whole process: every clamp must follow it.
  cpu_set_t original;
  ASSERT_EQ(sched_getaffinity(0, sizeof original, &original), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &original)) ++cpu;
  struct RestoreMask {
    const cpu_set_t& mask;
    ~RestoreMask() { sched_setaffinity(0, sizeof mask, &mask); }
  } restore{original};
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);

  EXPECT_EQ(SweepRunner::hardware_threads(), 1u);
  EXPECT_EQ(SweepRunner(4).thread_count(), 1u);
  Simulation near_sim(1);
  Simulation far_sim(1);
  Topology topo(near_sim);
  const int far = topo.add_domain(far_sim);
  Host& a = topo.add_host("a");
  Host& b = topo.add_host("b", far);
  topo.add_link(a, b, 1e6, 10 * kMillisecond,
                [](double) { return std::make_unique<DropTailQueue>(16); });
  DomainRunner runner(topo, 2);
  EXPECT_EQ(runner.stats().requested_threads, 2u);
  EXPECT_EQ(runner.stats().effective_threads, 1u);
}

TEST(SweepRunnerTest, SweepThreadsEnvIsValidated) {
  const char* old = std::getenv("PELS_SWEEP_THREADS");
  struct RestoreEnv {
    std::optional<std::string> value;
    ~RestoreEnv() {
      if (value) {
        setenv("PELS_SWEEP_THREADS", value->c_str(), 1);
      } else {
        unsetenv("PELS_SWEEP_THREADS");
      }
    }
  } restore{old ? std::optional<std::string>(old) : std::nullopt};

  ASSERT_EQ(setenv("PELS_SWEEP_THREADS", "3", 1), 0);
  testing::internal::CaptureStderr();
  EXPECT_EQ(SweepRunner::default_threads(), 3u);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

  // Not a positive integer that fits unsigned: one stderr line naming the
  // variable and the value, then every CPU. 4294967297 = 2^32 + 1 once
  // wrapped to 1 thread; the others fell back silently.
  for (const char* bad : {"4294967297", "abc", "0", "-2", "4x", " 4", "+4", ""}) {
    ASSERT_EQ(setenv("PELS_SWEEP_THREADS", bad, 1), 0);
    testing::internal::CaptureStderr();
    EXPECT_EQ(SweepRunner::default_threads(), SweepRunner::hardware_threads()) << bad;
    EXPECT_EQ(SweepRunner(0).requested_threads(), SweepRunner::hardware_threads()) << bad;
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("PELS_SWEEP_THREADS='" + std::string(bad) + "'"), std::string::npos)
        << err;
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 2) << err;  // one line per read
  }

  ASSERT_EQ(unsetenv("PELS_SWEEP_THREADS"), 0);
  testing::internal::CaptureStderr();
  EXPECT_EQ(SweepRunner::default_threads(), SweepRunner::hardware_threads());
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

/// One task per hit counter: task i bumps hits[i] and returns i.
std::vector<std::function<std::size_t()>> counting_tasks(std::vector<std::atomic<int>>& hits) {
  std::vector<std::function<std::size_t()>> tasks;
  tasks.reserve(hits.size());
  for (std::size_t i = 0; i < hits.size(); ++i) {
    tasks.push_back([&hits, i] {
      hits[i].fetch_add(1, std::memory_order_relaxed);
      return i;
    });
  }
  return tasks;
}

TEST(SweepRunnerTest, RunIndexedExecutesEveryIndexExactlyOnce) {
  // Task count >> threads, so the threads race on the index counter for
  // every claim; each task index must run exactly once.
  SweepRunner runner(8);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  const auto outcomes = runner.run(counting_tasks(hits));
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    ASSERT_EQ(*outcomes[i].value, i);
  }
}

TEST(SweepRunnerTest, OneThreadRunsOnTheCallersThread) {
  SweepRunner runner(1);
  std::vector<std::function<std::thread::id()>> tasks(
      16, [] { return std::this_thread::get_id(); });
  for (const auto& out : runner.run(std::move(tasks))) {
    ASSERT_EQ(*out.value, std::this_thread::get_id());
  }
}

TEST(SweepRunnerTest, BatchStartsNoMoreThreadsThanTasks) {
  SweepRunner runner(8);
  for (std::size_t tasks_n : {1u, 2u, 3u, 64u}) {
    // Each task sleeps a little so idle helpers get the chance to claim work.
    std::vector<std::function<std::thread::id()>> tasks(tasks_n, [] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      return std::this_thread::get_id();
    });
    std::set<std::thread::id> ids;
    for (const auto& out : runner.run(std::move(tasks))) ids.insert(*out.value);
    EXPECT_LE(ids.size(), std::min<std::size_t>(tasks_n, runner.thread_count()))
        << tasks_n << " tasks";
  }
}

TEST(SweepRunnerTest, ResultsArriveInSubmissionOrder) {
  SweepRunner runner(4);
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 32; ++i) {
    tasks.push_back([i] {
      // Earlier tasks sleep longer, so completion order inverts submission
      // order — the result slots must not care.
      std::this_thread::sleep_for(std::chrono::microseconds(50 * (32 - i)));
      return i * i;
    });
  }
  const auto outcomes = runner.run(std::move(tasks));
  ASSERT_EQ(outcomes.size(), 32u);
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(outcomes[i].ok());
    EXPECT_EQ(*outcomes[i].value, i * i);
  }
}

TEST(SweepRunnerTest, RunnerIsReusableAcrossBatches) {
  SweepRunner runner(2);
  for (int batch = 0; batch < 3; ++batch) {
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 8; ++i) tasks.push_back([batch, i] { return batch * 100 + i; });
    const auto outcomes = runner.run(std::move(tasks));
    for (int i = 0; i < 8; ++i) EXPECT_EQ(*outcomes[i].value, batch * 100 + i);
  }
}

// ----------------------------------------------------- per-task error capture

TEST(SweepRunnerTest, ThrowingTaskIsReportedPerTaskNotProcessFatal) {
  SweepRunner runner(4);
  std::atomic<int> completed{0};
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([i, &completed]() -> int {
      if (i == 3) throw std::invalid_argument("p_thr out of range");
      ++completed;
      return i;
    });
  }
  const auto outcomes = runner.run(std::move(tasks));
  EXPECT_EQ(completed.load(), 7);
  for (int i = 0; i < 8; ++i) {
    if (i == 3) {
      EXPECT_FALSE(outcomes[i].ok());
      EXPECT_EQ(outcomes[i].error, "p_thr out of range");
    } else {
      ASSERT_TRUE(outcomes[i].ok());
      EXPECT_EQ(*outcomes[i].value, i);
    }
  }
}

TEST(SweepRunnerTest, RunToTableNamesFailedPoints) {
  SweepRunner runner(2);
  TablePrinter table({"x"});
  std::vector<std::function<SweepOutput()>> tasks;
  tasks.push_back([] { return SweepOutput{{{"ok"}}, ""}; });
  tasks.push_back([]() -> SweepOutput {
    throw std::invalid_argument("bad config point");
  });
  try {
    run_to_table(runner, std::move(tasks), table);
    FAIL() << "run_to_table must throw when a task failed";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad config point"), std::string::npos);
    EXPECT_NE(what.find("1"), std::string::npos);  // the failed task's index
  }
}

TEST(SweepRunnerTest, RunToTableLeavesTableUntouchedOnFailure) {
  // Rows are staged and committed only when the whole sweep succeeded; a
  // failed point must not leave a half-filled table behind (a retry at the
  // caller would otherwise emit the successful points twice).
  SweepRunner runner(2);
  TablePrinter table({"x"});
  std::vector<std::function<SweepOutput()>> tasks;
  tasks.push_back([] { return SweepOutput{{{"ok0"}}, "stdout of the ok task\n"}; });
  tasks.push_back([]() -> SweepOutput { throw std::runtime_error("boom"); });
  tasks.push_back([] { return SweepOutput{{{"ok2"}}, ""}; });
  EXPECT_THROW(run_to_table(runner, std::move(tasks), table), std::runtime_error);
  std::ostringstream csv;
  table.print_csv(csv);
  EXPECT_EQ(csv.str(), "x\n") << "failed sweep committed rows";
}

TEST(SweepRunnerTest, RunToTableNamesEveryFailedIndexAndCause) {
  // Two mid-batch failures: the error must identify each failed point by
  // index together with its own cause, while leaving the table untouched.
  SweepRunner runner(2);
  TablePrinter table({"x"});
  std::vector<std::function<SweepOutput()>> tasks;
  tasks.push_back([] { return SweepOutput{{{"ok0"}}, ""}; });
  tasks.push_back([]() -> SweepOutput {
    throw std::invalid_argument("gamma out of range");
  });
  tasks.push_back([] { return SweepOutput{{{"ok2"}}, ""}; });
  tasks.push_back([]() -> SweepOutput {
    throw std::invalid_argument("rate below floor");
  });
  try {
    run_to_table(runner, std::move(tasks), table);
    FAIL() << "a failed point must abort the staged commit";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("task 1: gamma out of range"), std::string::npos) << what;
    EXPECT_NE(what.find("task 3: rate below floor"), std::string::npos) << what;
    EXPECT_EQ(what.find("task 0"), std::string::npos) << what;
    EXPECT_EQ(what.find("task 2"), std::string::npos) << what;
  }
  EXPECT_EQ(table.rows(), 0u) << "mid-batch failure committed the survivors";
}

// ------------------------------------------------ submission-order buffering

TEST(SweepRunnerTest, RowsAndTextEmitInSubmissionOrder) {
  SweepRunner runner(4);
  std::vector<std::function<SweepOutput()>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([i] {
      // Invert completion order relative to submission order.
      std::this_thread::sleep_for(std::chrono::microseconds(100 * (8 - i)));
      SweepOutput out;
      out.rows.push_back({"row" + std::to_string(i)});
      out.text = "text" + std::to_string(i) + "\n";
      return out;
    });
  }
  TablePrinter table({"cell"});
  const std::string text = run_to_table(runner, std::move(tasks), table);
  std::ostringstream csv;
  table.print_csv(csv);
  std::string expected_csv = "cell\n";
  std::string expected_text;
  for (int i = 0; i < 8; ++i) {
    expected_csv += "row" + std::to_string(i) + "\n";
    expected_text += "text" + std::to_string(i) + "\n";
  }
  EXPECT_EQ(csv.str(), expected_csv);
  EXPECT_EQ(text, expected_text);
}

// --------------------------------------------------- determinism contract
//
// The real guarantee the engine sells: a scenario sweep run on 8 threads
// produces byte-identical CSV to the same sweep run serially, because every
// task owns its Simulation/Rng and results land in submission-order slots.

std::string clean_sweep_csv(unsigned threads) {
  SweepRunner runner(threads);
  std::vector<std::function<SweepOutput()>> tasks;
  for (int flows : {1, 2}) {
    for (std::uint64_t seed : {5u, 6u}) {
      tasks.push_back([flows, seed] {
        ScenarioConfig cfg;
        cfg.pels_flows = flows;
        cfg.tcp_flows = 2;
        cfg.seed = seed;
        DumbbellScenario s(cfg);
        s.run_until(6 * kSecond);
        s.finish();
        SweepOutput out;
        out.rows.push_back(
            {TablePrinter::fmt_int(flows), TablePrinter::fmt_int(static_cast<long long>(seed)),
             TablePrinter::fmt(s.source(0).rate_series().mean_in(3 * kSecond, 6 * kSecond), 1),
             TablePrinter::fmt(s.sink(0).mean_utility(), 6)});
        return out;
      });
    }
  }
  TablePrinter table({"flows", "seed", "rate", "utility"});
  run_to_table(runner, std::move(tasks), table);
  std::ostringstream csv;
  table.print_csv(csv);
  return csv.str();
}

TEST(SweepRunnerTest, EightThreadsReproduceSerialCsvBytes) {
  const std::string serial = clean_sweep_csv(1);
  const std::string parallel = clean_sweep_csv(8);
  EXPECT_EQ(parallel, serial);
  // Sanity: the sweep actually produced data rows.
  EXPECT_GT(serial.size(), std::string("flows,seed,rate,utility\n").size());
}

std::string fault_sweep_csv(unsigned threads) {
  SweepRunner runner(threads);
  std::vector<std::function<SweepOutput()>> tasks;
  for (int kind = 0; kind < 4; ++kind) {
    tasks.push_back([kind] {
      ScenarioConfig cfg;
      cfg.pels_flows = 2;
      cfg.tcp_flows = 2;
      cfg.seed = 29;
      FaultPlan plan;
      if (kind == 1) plan.link_flaps.push_back({3 * kSecond, 4 * kSecond});
      if (kind == 2) plan.ack_blackouts.push_back({3 * kSecond, 5 * kSecond});
      if (kind == 3) {
        // Flap + Gilbert-Elliott burst corruption together: carrier-lost
        // entries and lazily-evaluated corruption share the coalesced
        // delivery ring, the hardest case for the single-event link
        // pipeline to replay identically across thread counts.
        plan.link_flaps.push_back({3 * kSecond, 3 * kSecond + 500 * kMillisecond});
        GilbertElliottConfig ge;
        ge.p_good_to_bad = 0.01;
        ge.p_bad_to_good = 0.25;
        ge.loss_bad = 0.8;
        plan.burst_corruption = ge;
      }
      cfg.faults = plan;
      DumbbellScenario s(cfg);
      s.run_until(8 * kSecond);
      s.finish();
      SweepOutput out;
      out.rows.push_back(
          {TablePrinter::fmt_int(kind),
           TablePrinter::fmt(s.source(0).rate_series().mean_in(6 * kSecond, 8 * kSecond), 1),
           TablePrinter::fmt(s.sink(0).mean_utility(), 6),
           TablePrinter::fmt_int(static_cast<long long>(s.source(0).silent_intervals()))});
      return out;
    });
  }
  TablePrinter table({"fault", "rate", "utility", "silent"});
  run_to_table(runner, std::move(tasks), table);
  std::ostringstream csv;
  table.print_csv(csv);
  return csv.str();
}

TEST(SweepRunnerTest, FaultPlanSweepIsDeterministicAcrossThreadCounts) {
  const std::string serial = fault_sweep_csv(1);
  EXPECT_EQ(fault_sweep_csv(8), serial);
}

// ------------------------------------------------------- concurrency stress
//
// TSan target (ctest -L concurrency): run batches from several submitting
// threads at once on one runner, with task counts far above the thread
// count so every batch's index counter is contended. Each batch has its own
// counter and helpers; a helper whose writes the join failed to publish, or
// a claim that leaked into another batch, shows up here as a data race or a
// wrong sum.

TEST(SweepRunnerTest, ConcurrentSubmittersStress) {
  SweepRunner runner(4);
  constexpr int kSubmitters = 4;
  constexpr int kBatchesPerSubmitter = 12;
  constexpr std::size_t kJobsPerBatch = 512;  // >> threads
  std::vector<std::thread> submitters;
  std::vector<std::string> failures(kSubmitters);
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&runner, &failures, s] {
      for (int b = 0; b < kBatchesPerSubmitter; ++b) {
        // Plain (non-atomic) outcome slots: the join must publish every
        // helper's writes to the submitter, and TSan checks exactly that.
        std::vector<std::function<std::uint64_t()>> tasks;
        for (std::size_t i = 0; i < kJobsPerBatch; ++i) {
          tasks.push_back([s, b, i] {
            return static_cast<std::uint64_t>(s * 1'000'000 + b * 1'000) + i;
          });
        }
        const auto results = runner.run(std::move(tasks));
        for (std::size_t i = 0; i < kJobsPerBatch; ++i) {
          if (*results[i].value != static_cast<std::uint64_t>(s * 1'000'000 + b * 1'000) + i) {
            failures[s] = "submitter " + std::to_string(s) + " batch " + std::to_string(b) +
                          " job " + std::to_string(i) + " lost or corrupted";
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  for (const std::string& f : failures) EXPECT_EQ(f, "");
}

TEST(SweepRunnerTest, ConcurrentRunIndexedStress) {
  // Batches from competing threads over shared hit counters: every batch
  // runs each of its indices exactly once, however the batches overlap (no
  // helper outlives its batch, so none can claim an index of the next).
  SweepRunner runner(4);
  constexpr std::size_t kN = 2'048;
  std::vector<std::atomic<int>> hits(kN);
  std::vector<std::thread> submitters;
  for (int s = 0; s < 3; ++s) {
    submitters.emplace_back([&runner, &hits] {
      for (int round = 0; round < 8; ++round) {
        (void)runner.run(counting_tasks(hits));
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 3 * 8) << "index " << i;
  }
}

}  // namespace
}  // namespace pels
