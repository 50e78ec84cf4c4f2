// Fixed-capacity, move-only callable: std::function without the heap.
//
// The scheduler's hot path moves one callback per event through the pooled
// slot vector; with std::function, any capture beyond the ~16-byte SBO costs
// a heap allocation and free *per event*. An InplaceFunction stores the
// callable in an inline buffer of fixed Capacity, so scheduling is
// allocation-free for every capture that fits — and a capture that outgrows
// the buffer fails at compile time, loudly, instead of silently regressing
// the steady state to one malloc per event. The scheduler's budget is 32
// bytes (sim/scheduler.h): events capture `[this, index]`, never a Packet.
//
// Design notes:
//   * One pointer to a static per-type vtable {invoke, relocate, destroy};
//     an empty function is vtable == nullptr. No virtual bases, no RTTI.
//   * Move-only. The scheduler never copies callbacks, and requiring
//     copyability would reject move-only captures (a unique_ptr, say).
//   * Moves must be noexcept: slots live in std::vector, and a throwing
//     relocation would tear the event pool. Enforced per wrapped type.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace pels {

template <typename Signature, std::size_t Capacity,
          std::size_t Align = alignof(std::max_align_t)>
class InplaceFunction;  // primary template: only R(Args...) is specialized

template <typename R, typename... Args, std::size_t Capacity, std::size_t Align>
class InplaceFunction<R(Args...), Capacity, Align> {
 public:
  InplaceFunction() = default;
  InplaceFunction(std::nullptr_t) {}  // NOLINT(runtime/explicit)

  /// Wraps any callable with a compatible signature. Rejects, at compile
  /// time, callables larger than Capacity or over-aligned for the buffer.
  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InplaceFunction> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InplaceFunction(F&& f) : vtable_(&Ops<D>::vtable) {  // NOLINT(runtime/explicit)
    static_assert(sizeof(D) <= Capacity,
                  "callable capture too large for this InplaceFunction — keep "
                  "large state with its owner and capture a pointer or index "
                  "(see sim/scheduler.h kSchedulerCallbackCapacity)");
    static_assert(alignof(D) <= Align,
                  "callable over-aligned for this InplaceFunction buffer");
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "callable must be nothrow-move-constructible: the scheduler "
                  "relocates callbacks inside noexcept pool operations");
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
  }

  InplaceFunction(InplaceFunction&& other) noexcept : vtable_(other.vtable_) {
    if (vtable_ != nullptr) {
      vtable_->relocate(storage_, other.storage_);
      other.vtable_ = nullptr;
    }
  }

  InplaceFunction& operator=(InplaceFunction&& other) noexcept {
    if (this == &other) return *this;
    reset();
    if (other.vtable_ != nullptr) {
      vtable_ = other.vtable_;
      vtable_->relocate(storage_, other.storage_);
      other.vtable_ = nullptr;
    }
    return *this;
  }

  InplaceFunction(const InplaceFunction&) = delete;
  InplaceFunction& operator=(const InplaceFunction&) = delete;

  InplaceFunction& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  ~InplaceFunction() { reset(); }

  explicit operator bool() const { return vtable_ != nullptr; }

  R operator()(Args... args) {
    assert(vtable_ != nullptr && "calling an empty InplaceFunction");
    return vtable_->invoke(storage_, std::forward<Args>(args)...);
  }

  static constexpr std::size_t capacity() { return Capacity; }

 private:
  struct VTable {
    R (*invoke)(void* self, Args&&... args);
    /// Move-constructs the callable at `dst` from `src`, then destroys `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename D>
  struct Ops {
    static R invoke(void* self, Args&&... args) {
      return (*std::launder(reinterpret_cast<D*>(self)))(std::forward<Args>(args)...);
    }
    static void relocate(void* dst, void* src) noexcept {
      D* from = std::launder(reinterpret_cast<D*>(src));
      ::new (dst) D(std::move(*from));
      from->~D();
    }
    static void destroy(void* self) noexcept {
      std::launder(reinterpret_cast<D*>(self))->~D();
    }
    static constexpr VTable vtable{&invoke, &relocate, &destroy};
  };

  void reset() {
    if (vtable_ != nullptr) {
      vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }

  const VTable* vtable_ = nullptr;
  alignas(Align) unsigned char storage_[Capacity];
};

}  // namespace pels
