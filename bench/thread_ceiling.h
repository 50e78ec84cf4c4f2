// Same-run ceiling for a parallel speedup: what raw threads running a fixed
// arithmetic loop gain on this machine right now.
//
//   const double serial_ms = burn_ms(1);
//   ...                                   // just before each threaded run:
//   const double ceiling = serial_ms / burn_ms(effective_threads);
//
// A shared or throttled machine caps a measured speedup and this ceiling
// alike, so judge the speedup against the ceiling, not against the thread
// count.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace pels {

/// Wall time in ms of a fixed xorshift loop split evenly over `threads` raw
/// std::threads. burn_ms(1) / burn_ms(t) is the speedup the machine grants t
/// threads of pure arithmetic.
inline double burn_ms(unsigned threads) {
  constexpr std::uint64_t kTotalSteps = 1ULL << 24;
  std::atomic<std::uint64_t> sink{0};
  std::vector<std::thread> burners;
  burners.reserve(threads);
  const auto t0 = std::chrono::steady_clock::now();
  for (unsigned i = 0; i < threads; ++i) {
    burners.emplace_back([&sink, i, steps = kTotalSteps / threads] {
      std::uint64_t x = 0x9e3779b97f4a7c15ULL + i;
      for (std::uint64_t s = 0; s < steps; ++s) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
      sink.fetch_xor(x, std::memory_order_relaxed);  // keeps the loop alive
    });
  }
  for (std::thread& b : burners) b.join();
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace pels
