// Cache-line granularity for layout decisions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>

namespace pels {

/// Destructive-interference granularity: objects written by different
/// threads (DomainRunner's barrier counters, mailboxes and per-domain slots)
/// and per-domain hot objects (links, nodes, queues, simulations) start on
/// their own line of this size. A fixed 64 is used instead of
/// std::hardware_destructive_interference_size: the constant must not vary
/// with -mtune (it would change struct layouts across TUs), and 64 covers
/// every target this project builds on.
inline constexpr std::size_t kCacheLineSize = 64;

/// Heap allocation for over-aligned classes built one object at a time
/// (links, nodes, queues): derive from it and declare the class
/// alignas(kCacheLineSize). It over-allocates through the ordinary
/// operator new and keeps the block's address just below the aligned
/// object. glibc's aligned allocation bypasses its per-thread cache; on a
/// heap fragmented by an earlier run it took about 1.9 µs per object on a
/// 4-vCPU Xeon container, which made a scenario's set-up slower by a
/// quarter, against 0.1 µs this way.
struct CacheLineAllocated {
  static void* operator new(std::size_t bytes, std::align_val_t align) {
    const auto a = static_cast<std::uintptr_t>(align);
    void* block = ::operator new(bytes + a + sizeof(void*));
    const std::uintptr_t at =
        (reinterpret_cast<std::uintptr_t>(block) + sizeof(void*) + a - 1) & ~(a - 1);
    std::memcpy(reinterpret_cast<char*>(at) - sizeof(void*), &block, sizeof(void*));
    return reinterpret_cast<void*>(at);
  }
  static void operator delete(void* p, std::align_val_t) noexcept {
    void* block = nullptr;
    std::memcpy(&block, static_cast<char*>(p) - sizeof(void*), sizeof(void*));
    ::operator delete(block);
  }
};

}  // namespace pels
