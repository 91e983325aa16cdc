// Process-wide resident-page accounting. Every materialized PagedStore page
// charges the singleton MemoryBudget; exceeding the configured limit throws
// BudgetExceededError instead of letting the host allocator OOM. The campaign
// layer converts that typed error into a `budget-quarantined` job verdict so
// one oversized job degrades gracefully instead of killing the whole sweep.
//
// JobMemory is the per-job view: the pages one campaign job's stores hold,
// so a job's reported peak does not depend on which other jobs shared its
// process or thread pool.
#pragma once

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>

#include "util/types.hpp"

namespace adriatic::mem {

/// Thrown when materializing a page would push the process over the budget.
/// Carries the accounting snapshot so reports can show how far over the job
/// tried to go. Derives from std::runtime_error so untyped handlers still see
/// a descriptive message rather than a bare std::bad_alloc.
class BudgetExceededError : public std::runtime_error {
 public:
  BudgetExceededError(u64 requested_bytes, u64 resident_bytes, u64 limit_bytes,
                      u64 high_water_bytes);

  [[nodiscard]] u64 requested_bytes() const noexcept { return requested_; }
  [[nodiscard]] u64 resident_bytes() const noexcept { return resident_; }
  [[nodiscard]] u64 limit_bytes() const noexcept { return limit_; }
  [[nodiscard]] u64 high_water_bytes() const noexcept { return high_water_; }

 private:
  u64 requested_;
  u64 resident_;
  u64 limit_;
  u64 high_water_;
};

/// Singleton tracking resident pages across *all* PagedStore instances in the
/// process (campaign thread mode shares it; process mode children inherit the
/// limit through fork or the ADRIATIC_MEM_BUDGET_MB environment variable).
/// All counters are atomics: charge/credit happen on worker threads.
class MemoryBudget {
 public:
  static MemoryBudget& instance();

  /// 0 = unlimited (the default). Setting a limit does not evict anything
  /// already resident; only future charges are refused.
  void set_limit_bytes(u64 limit);
  [[nodiscard]] u64 limit_bytes() const noexcept {
    return limit_.load(std::memory_order_relaxed);
  }

  /// Accounts `bytes` of new resident storage. Throws BudgetExceededError
  /// (leaving the counters unchanged) if the charge would exceed the limit.
  void charge(u64 bytes);
  /// Releases `bytes` previously charged.
  void credit(u64 bytes) noexcept;

  [[nodiscard]] u64 resident_bytes() const noexcept {
    return resident_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] u64 high_water_bytes() const noexcept {
    return high_water_.load(std::memory_order_relaxed);
  }

  /// Test/tool hook: reset the high-water mark to the current resident level
  /// so per-phase peaks can be measured (resident accounting is untouched).
  void reset_high_water() noexcept;

 private:
  MemoryBudget();

  std::atomic<u64> limit_{0};
  std::atomic<u64> resident_{0};
  std::atomic<u64> high_water_{0};
};

/// One job's resident footprint: every page its PagedStores reference,
/// counted per store when the store materializes or attaches it. Pages of
/// an interned image count for every job whose stores attach them, whoever
/// interned the image first, so the peak is the same whether the job ran
/// alone, beside other jobs in a thread pool, or after other jobs in a
/// reused worker child. The process-wide MemoryBudget still enforces the
/// limit; this counter only measures.
class JobMemory {
 public:
  void add(u64 bytes) noexcept;
  void sub(u64 bytes) noexcept;
  [[nodiscard]] u64 peak_bytes() const noexcept {
    return peak_.load(std::memory_order_relaxed);
  }
  /// Starts a new peak from the current resident level (a new attempt).
  void reset_peak() noexcept;

  /// The counter PagedStores constructed on this thread charge; null
  /// outside a job.
  [[nodiscard]] static const std::shared_ptr<JobMemory>& current() noexcept;

  /// Makes `m` the calling thread's current counter for its lifetime.
  class Scope {
   public:
    explicit Scope(std::shared_ptr<JobMemory> m);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    std::shared_ptr<JobMemory> saved_;
  };

 private:
  std::atomic<u64> resident_{0};
  std::atomic<u64> peak_{0};
};

}  // namespace adriatic::mem
