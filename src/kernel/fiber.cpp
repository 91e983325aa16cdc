#include "kernel/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <cstdint>
#include <new>
#include <utility>

// The context switch. On x86-64 (System V ABI) a hand-written switch saves
// only what the ABI makes callee-saved: rbx, rbp, r12-r15, the MXCSR and the
// x87 control word. swapcontext() saves and restores the signal mask too,
// which costs two rt_sigprocmask syscalls per switch; simulation processes
// never change their signal mask, so that work bought nothing. Every other
// architecture keeps the portable POSIX ucontext switch.
#if defined(__x86_64__) && defined(__ELF__) && !defined(__ILP32__)
#define ADRIATIC_FIBER_ASM 1
#else
#include <ucontext.h>

#include <stdexcept>
#endif

// ThreadSanitizer and AddressSanitizer cannot follow a stack switch on their
// own: they see one OS thread jumping between unrelated stacks and report
// false races or stack errors. Their fiber APIs are told about every switch,
// which is what lets campaign workers run whole simulations under
// -fsanitize=thread and the test suite under -fsanitize=address.
#if defined(__SANITIZE_THREAD__)
#define ADRIATIC_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ADRIATIC_TSAN_FIBERS 1
#endif
#endif

#if defined(__SANITIZE_ADDRESS__)
#define ADRIATIC_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ADRIATIC_ASAN_FIBERS 1
#endif
#endif

#ifdef ADRIATIC_TSAN_FIBERS
extern "C" {
void* __tsan_get_current_fiber();
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

#ifdef ADRIATIC_ASAN_FIBERS
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    std::size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old,
                                     std::size_t* size_old);
void __asan_unpoison_memory_region(const volatile void* addr, std::size_t size);
}
#endif

#ifdef ADRIATIC_FIBER_ASM
// adriatic_fiber_switch(save, load): pushes the callee-saved state on the
// current stack, stores the stack pointer to *save, loads `load` as the new
// stack pointer and pops the state saved there. The `ret` lands wherever
// that stack last called adriatic_fiber_switch from, or, for a fresh fiber,
// in the entry function of the frame make_context() built.
extern "C" void adriatic_fiber_switch(void** save, void* load);
asm(R"(
  .pushsection .text
  .globl adriatic_fiber_switch
  .hidden adriatic_fiber_switch
  .type adriatic_fiber_switch, @function
  .p2align 4
adriatic_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $16, %rsp
  stmxcsr 8(%rsp)
  fnstcw (%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  fldcw (%rsp)
  ldmxcsr 8(%rsp)
  addq $16, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size adriatic_fiber_switch, .-adriatic_fiber_switch
  .popsection
)");
#endif

namespace adriatic::kern {

namespace {

#ifdef ADRIATIC_FIBER_ASM
struct Context {
  void* sp = nullptr;
};

void switch_context(Context& from, Context& to) {
  adriatic_fiber_switch(&from.sp, to.sp);
}

/// Builds the first frame of a fresh fiber at the top of [base, base+size):
/// the state adriatic_fiber_switch pops (zeroed registers, the caller's
/// MXCSR and x87 control word), then `entry` as the return address, then a
/// zero fake return address for `entry` itself, so `entry` starts exactly
/// as if called with a 16-byte-aligned stack and unwinders stop there.
void make_context(Context& c, char* base, std::size_t size, void (*entry)()) {
  auto top = reinterpret_cast<std::uintptr_t>(base + size) & ~std::uintptr_t{15};
  auto* slot = reinterpret_cast<std::uint64_t*>(top);
  *--slot = 0;                                       // entry's return address
  *--slot = reinterpret_cast<std::uint64_t>(entry);  // switch's `ret` target
  for (int i = 0; i < 6; ++i) *--slot = 0;           // rbp rbx r12-r15
  std::uint32_t mxcsr = 0;
  std::uint16_t fpucw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fpucw));
  *--slot = mxcsr;  // at sp + 8
  *--slot = fpucw;  // at sp
  c.sp = slot;
}
#else
struct Context {
  ucontext_t uc{};
};

void switch_context(Context& from, Context& to) { swapcontext(&from.uc, &to.uc); }

void make_context(Context& c, char* base, std::size_t size, void (*entry)()) {
  if (getcontext(&c.uc) != 0)
    throw std::runtime_error("Fiber: getcontext failed");
  c.uc.uc_stack.ss_sp = base;
  c.uc.uc_stack.ss_size = size;
  c.uc.uc_link = nullptr;
  makecontext(&c.uc, entry, 0);
}
#endif

/// One fiber stack: a private anonymous mapping whose lowest page is
/// PROT_NONE, so running off the end of the stack faults (SIGSEGV) instead
/// of silently overwriting whatever memory lies below it. Pages are faulted
/// in lazily, so a deep stack that is rarely used costs little resident
/// memory.
struct Stack {
  char* map = nullptr;        ///< Start of the mapping (the guard page).
  std::size_t map_bytes = 0;  ///< Guard page + usable stack.
  std::size_t requested = 0;  ///< The stack_bytes it was made for (pool key).

  [[nodiscard]] static std::size_t guard_bytes() noexcept {
    static const std::size_t page =
        static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    return page;
  }
  [[nodiscard]] char* base() const noexcept { return map + guard_bytes(); }
  [[nodiscard]] std::size_t size() const noexcept {
    return map_bytes - guard_bytes();
  }
};

Stack map_stack(std::size_t bytes) {
  const std::size_t page = Stack::guard_bytes();
  const std::size_t usable = (bytes + page - 1) / page * page;
  Stack s;
  s.requested = bytes;
  s.map_bytes = usable + page;
  void* m = ::mmap(nullptr, s.map_bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (m == MAP_FAILED) throw std::bad_alloc();
  s.map = static_cast<char*>(m);
  if (::mprotect(s.map, page, PROT_NONE) != 0) {
    ::munmap(s.map, s.map_bytes);
    throw std::bad_alloc();
  }
  return s;
}

void unmap_stack(const Stack& s) noexcept { ::munmap(s.map, s.map_bytes); }

// Retired fiber stacks, kept per thread for reuse. Campaign jobs spawn
// thousands of short-lived processes; recycling stacks saves the mmap,
// mprotect and page faults of a fresh stack each time. The pool is bounded
// so a burst of unusually many concurrent fibers does not pin memory
// forever; stacks beyond it are unmapped. The array is trivially
// destructible so fibers destroyed during thread teardown can still reach
// it; the reaper unmaps what it holds when the thread exits.
constexpr std::size_t kMaxPooledStacks = 64;
thread_local Stack t_pool[kMaxPooledStacks];
thread_local std::size_t t_pooled = 0;
thread_local bool t_pool_closed = false;

struct PoolReaper {
  bool armed = false;
  ~PoolReaper() {
    for (std::size_t i = 0; i < t_pooled; ++i) unmap_stack(t_pool[i]);
    t_pooled = 0;
    t_pool_closed = true;
  }
};
thread_local PoolReaper t_reaper;

Stack acquire_stack(std::size_t bytes) {
  Stack s;
  for (std::size_t i = t_pooled; i-- > 0;) {
    if (t_pool[i].requested == bytes) {
      s = t_pool[i];
      t_pool[i] = t_pool[--t_pooled];
      break;
    }
  }
  if (s.map == nullptr) {
    t_reaper.armed = true;  // registers the thread-exit unmapping
    s = map_stack(bytes);
  }
#ifdef ADRIATIC_ASAN_FIBERS
  // A recycled (or re-mapped) range may still carry the redzone poison of
  // frames abandoned on it by a fiber destroyed while suspended.
  __asan_unpoison_memory_region(s.base(), s.size());
#endif
  return s;
}

void release_stack(const Stack& s) noexcept {
  if (s.map == nullptr) return;
  if (!t_pool_closed && t_pooled < kMaxPooledStacks)
    t_pool[t_pooled++] = s;
  else
    unmap_stack(s);
}

// The fiber currently executing on this thread (nullptr = scheduler context).
thread_local Fiber* t_current = nullptr;

}  // namespace

struct Fiber::Impl {
  Context ctx;
  Context return_ctx;
  Stack stack;
#ifdef ADRIATIC_TSAN_FIBERS
  void* tsan_fiber = nullptr;
  void* tsan_return = nullptr;
#endif
#ifdef ADRIATIC_ASAN_FIBERS
  void* asan_fake_stack = nullptr;  ///< The fiber's, while it is suspended.
  const void* asan_return_bottom = nullptr;
  std::size_t asan_return_size = 0;
#endif

  /// Scheduler -> fiber.
  void enter() {
#ifdef ADRIATIC_TSAN_FIBERS
    tsan_return = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsan_fiber, 0);
#endif
#ifdef ADRIATIC_ASAN_FIBERS
    void* scheduler_fake_stack = nullptr;
    __sanitizer_start_switch_fiber(&scheduler_fake_stack, stack.base(),
                                   stack.size());
    switch_context(return_ctx, ctx);
    __sanitizer_finish_switch_fiber(scheduler_fake_stack, nullptr, nullptr);
#else
    switch_context(return_ctx, ctx);
#endif
  }

  /// Fiber -> scheduler. `last` marks the final exit, after which the fiber
  /// never runs again (ASan then releases its fake stack).
  void leave(bool last) {
#ifdef ADRIATIC_TSAN_FIBERS
    __tsan_switch_to_fiber(tsan_return, 0);
#endif
#ifdef ADRIATIC_ASAN_FIBERS
    __sanitizer_start_switch_fiber(last ? nullptr : &asan_fake_stack,
                                   asan_return_bottom, asan_return_size);
    switch_context(ctx, return_ctx);
    arrived();
#else
    (void)last;
    switch_context(ctx, return_ctx);
#endif
  }

  /// First thing run on the fiber's stack after every switch into it.
  void arrived() {
#ifdef ADRIATIC_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(asan_fake_stack, &asan_return_bottom,
                                    &asan_return_size);
#endif
  }
};

Fiber::Fiber(std::function<void()> fn, std::size_t stack_bytes)
    : impl_(std::make_unique<Impl>()), fn_(std::move(fn)) {
  impl_->stack = acquire_stack(stack_bytes);
#ifdef ADRIATIC_TSAN_FIBERS
  impl_->tsan_fiber = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
  // Destroying a live suspended fiber abandons its stack frame. That is the
  // normal fate of simulation processes still blocked when the simulation is
  // torn down; destructors of locals on the fiber stack do not run, exactly
  // as in the SystemC reference simulator. The stack itself is recycled.
#ifdef ADRIATIC_TSAN_FIBERS
  if (impl_->tsan_fiber != nullptr) __tsan_destroy_fiber(impl_->tsan_fiber);
#endif
  release_stack(impl_->stack);
}

void Fiber::trampoline() {
  Fiber* self = t_current;
  assert(self != nullptr);
  self->impl_->arrived();
  self->fn_();
  self->finished_ = true;
  // Return to the scheduler for the last time.
  self->impl_->leave(/*last=*/true);
  __builtin_unreachable();
}

void Fiber::resume() {
  if (finished_) return;
  assert(t_current == nullptr && "resume() must be called from the scheduler");
  if (!started_) {
    started_ = true;
    make_context(impl_->ctx, impl_->stack.base(), impl_->stack.size(),
                 &Fiber::trampoline);
  }
  t_current = this;
  impl_->enter();
  t_current = nullptr;
}

void Fiber::yield() {
  Fiber* self = t_current;
  assert(self != nullptr && "yield() must be called from inside a fiber");
  t_current = nullptr;
  self->impl_->leave(/*last=*/false);
  t_current = self;
}

}  // namespace adriatic::kern
