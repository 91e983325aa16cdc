// Stackful fibers (cooperative user-level contexts): a hand-written context
// switch on x86-64, POSIX ucontext elsewhere, each fiber on its own
// guard-paged stack (see fiber.cpp).
//
// SystemC SC_THREAD processes may call wait() arbitrarily deep inside nested
// function calls — e.g. the DRCF suspends an interface-method call made from
// another module's thread while a context switch is in flight (paper
// Sec. 5.3 step 4). That requires a full switchable stack per process, which
// stackless C++20 coroutines cannot provide without rewriting every callee.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace adriatic::kern {

class Fiber {
 public:
  /// Creates a suspended fiber that will run `fn` on first resume().
  explicit Fiber(std::function<void()> fn, std::size_t stack_bytes = 256 * 1024);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Runs the fiber until it yields or finishes. Must be called from the
  /// scheduler context (never from inside another fiber).
  void resume();

  /// Suspends the currently running fiber, returning control to the caller
  /// of resume(). Must be called from inside a fiber.
  static void yield();

  /// True once `fn` has returned.
  [[nodiscard]] bool finished() const noexcept { return finished_; }

 private:
  struct Impl;
  static void trampoline();

  std::unique_ptr<Impl> impl_;
  std::function<void()> fn_;
  bool started_ = false;
  bool finished_ = false;
};

}  // namespace adriatic::kern
