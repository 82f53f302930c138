// InplaceEvent: the kernel's allocation-free callback type.
//
// A move-only `void()` callable with fixed inline storage. Unlike
// std::function there is no heap fallback: a capture larger than kCapacity
// is a compile error (static_assert), so every event the simulator
// schedules is guaranteed to cost zero heap allocations. The simulator's
// captures are small — `[this, flit]` and friends are at most 32 bytes —
// and keeping them inline is what makes the bucket-queue slab
// (bucket_queue.h) a flat array of fixed-size, one-cache-line entries.
//
// Type erasure goes through a single pointer to a static per-type ops
// table. The scheduler's fire path uses the fused invoke_and_dispose entry
// — call the callable, then destroy it — so a one-shot event costs exactly
// one indirect call of wrapper overhead, the same as invoking a
// std::function. For trivially destructible callables (every plain lambda
// over pointers/ints, i.e. all simulator events) invoke_and_dispose is the
// invoke function itself: destruction is free.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "util/contract.h"

namespace specnoc::sim {

class InplaceEvent {
 public:
  /// Inline storage for the callable's captures. 32 bytes holds the
  /// largest simulator capture, and with the ops pointer, the time and the
  /// chain link makes a slab entry exactly one 64-byte cache line.
  static constexpr std::size_t kCapacity = 32;

  InplaceEvent() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InplaceEvent> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InplaceEvent(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  /// Destroys any held callable and constructs `f` in place. This is the
  /// zero-move path the scheduler uses to build events directly inside the
  /// bucket-queue slab.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InplaceEvent> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kCapacity,
                  "event capture exceeds InplaceEvent inline storage; "
                  "shrink the lambda capture (there is deliberately no "
                  "heap fallback — see src/sim/event.h)");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned event captures are not supported");
    reset();
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &kOps<Fn>;
  }

  InplaceEvent(InplaceEvent&& other) noexcept { move_from(other); }

  InplaceEvent& operator=(InplaceEvent&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InplaceEvent(const InplaceEvent&) = delete;
  InplaceEvent& operator=(const InplaceEvent&) = delete;

  ~InplaceEvent() { reset(); }

  /// True when a callable is stored.
  explicit operator bool() const { return ops_ != nullptr; }

  /// Invokes the stored callable (must hold one); it remains stored.
  void operator()() {
    SPECNOC_EXPECTS(ops_ != nullptr);
    ops_->invoke(storage_);
  }

  /// Invokes the stored callable and destroys it, leaving this event
  /// empty: one indirect call for the whole fire-and-free sequence.
  void invoke_and_dispose() {
    SPECNOC_EXPECTS(ops_ != nullptr);
    const Ops* ops = ops_;
    ops_ = nullptr;
    ops->invoke_destroy(storage_);
  }

  /// Destroys the stored callable, if any.
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*invoke_destroy)(void*);
    void (*relocate)(void* dst, void* src);  ///< move to dst, destroy src
    void (*destroy)(void*);
  };

  template <typename Fn>
  static void do_invoke(void* s) {
    (*static_cast<Fn*>(s))();
  }
  template <typename Fn>
  static void do_invoke_destroy(void* s) {
    Fn* f = static_cast<Fn*>(s);
    (*f)();
    f->~Fn();
  }
  template <typename Fn>
  static void do_relocate(void* dst, void* src) {
    if constexpr (std::is_trivially_copyable_v<Fn>) {
      std::memcpy(dst, src, sizeof(Fn));
    } else {
      ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
      static_cast<Fn*>(src)->~Fn();
    }
  }
  template <typename Fn>
  static void do_destroy(void* s) {
    static_cast<Fn*>(s)->~Fn();
  }
  static void do_nothing(void*) {}

  template <typename Fn>
  static constexpr Ops kOps{
      &do_invoke<Fn>,
      std::is_trivially_destructible_v<Fn> ? &do_invoke<Fn>
                                           : &do_invoke_destroy<Fn>,
      &do_relocate<Fn>,
      std::is_trivially_destructible_v<Fn> ? &do_nothing : &do_destroy<Fn>,
  };

  void move_from(InplaceEvent& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(storage_, other.storage_);
    ops_ = other.ops_;
    other.ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kCapacity];
  const Ops* ops_ = nullptr;
};

}  // namespace specnoc::sim
