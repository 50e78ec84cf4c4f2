// Global heap-allocation counter for the benches and tests that assert a
// steady state allocates nothing (micro_pipeline, many_flows,
// packet_path_alloc_test, telemetry_test).
//
// heap_count.cpp replaces the complete global operator new/delete set,
// which rebinds it for the whole binary that links it. Only binaries that
// link the `pels_heap_count` object library pay for (or see) the counting;
// the simulator libraries never do.
#pragma once

#include <cstdint>

namespace pels {

/// Global allocations and frees since process start, across all threads.
struct HeapCounts {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
};

/// Current totals. Subtract two readings to count a window.
HeapCounts heap_counts();

}  // namespace pels
