// A move-only `void()` callable with small-buffer optimization: callables
// whose state fits `InlineBytes` (and is nothrow-movable) live inside the
// object — constructing, moving and invoking them performs no heap
// allocation. Larger callables fall back to a single heap allocation,
// exactly like std::function, so no caller ever has to size its captures
// to a limit.
//
// Built for the simulator's event hot path: EventQueue stores one of
// these per pending event, and Simulator::Send's pooled transmission
// closure (two pointers, one per send whatever its fan-out) fits inline
// with room to spare — so a simulated transmission costs zero allocations
// (tests/sim/event_queue_alloc_test.cc pins this). Kept in common/ because
// nothing about it is sim-specific.
#ifndef SNAPQ_COMMON_INLINE_FUNCTION_H_
#define SNAPQ_COMMON_INLINE_FUNCTION_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace snapq {

template <size_t InlineBytes>
class InlineFunction {
 public:
  InlineFunction() noexcept = default;

  /// Wraps any `void()` callable. Stored inline when `sizeof(F)` fits and
  /// F is nothrow-move-constructible (the move is what priority-queue
  /// sifting does, so it must not throw); heap-allocated otherwise.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (FitsInline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_))
          Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { MoveFrom(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Destroy();
      MoveFrom(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Destroy(); }

  /// Invokes the wrapped callable. Undefined when empty (checked builds
  /// die on the null ops table like any null call would).
  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// True when the callable's state lives in the inline buffer (empty
  /// functions count as inline: there is nothing on the heap).
  bool is_inline() const noexcept {
    return ops_ == nullptr || ops_->inline_storage;
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-constructs dst's storage from src's and destroys src's.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
    bool inline_storage;
  };

  template <typename Fn>
  static constexpr bool FitsInline() {
    return sizeof(Fn) <= InlineBytes &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* storage) { (*std::launder(static_cast<Fn*>(storage)))(); },
      [](void* dst, void* src) noexcept {
        Fn* from = std::launder(static_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* storage) noexcept {
        std::launder(static_cast<Fn*>(storage))->~Fn();
      },
      /*inline_storage=*/true,
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* storage) {
        (**std::launder(static_cast<Fn**>(storage)))();
      },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn*(*std::launder(static_cast<Fn**>(src)));
      },
      [](void* storage) noexcept {
        delete *std::launder(static_cast<Fn**>(storage));
      },
      /*inline_storage=*/false,
  };

  void MoveFrom(InlineFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  void Destroy() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  static_assert(InlineBytes >= sizeof(void*),
                "inline buffer must at least hold the heap-fallback pointer");

  alignas(std::max_align_t) unsigned char storage_[InlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace snapq

#endif  // SNAPQ_COMMON_INLINE_FUNCTION_H_
