#include "memory/budget.hpp"

#include <cstdlib>
#include <utility>

#include "util/strings.hpp"

namespace adriatic::mem {

namespace {

std::string describe(u64 requested, u64 resident, u64 limit, u64 high_water) {
  return strfmt(
      "memory budget exceeded: requested %llu bytes with %llu resident "
      "(limit %llu, high water %llu)",
      static_cast<unsigned long long>(requested),
      static_cast<unsigned long long>(resident),
      static_cast<unsigned long long>(limit),
      static_cast<unsigned long long>(high_water));
}

}  // namespace

BudgetExceededError::BudgetExceededError(u64 requested_bytes,
                                         u64 resident_bytes, u64 limit_bytes,
                                         u64 high_water_bytes)
    : std::runtime_error(describe(requested_bytes, resident_bytes, limit_bytes,
                                  high_water_bytes)),
      requested_(requested_bytes),
      resident_(resident_bytes),
      limit_(limit_bytes),
      high_water_(high_water_bytes) {}

MemoryBudget& MemoryBudget::instance() {
  static MemoryBudget budget;
  return budget;
}

MemoryBudget::MemoryBudget() {
  // Campaign children forked before the limit was set (or spawned fresh by a
  // driver script) pick it up from the environment.
  if (const char* env = std::getenv("ADRIATIC_MEM_BUDGET_MB")) {
    const long mb = std::strtol(env, nullptr, 10);
    if (mb > 0) limit_.store(static_cast<u64>(mb) << 20);
  }
}

void MemoryBudget::set_limit_bytes(u64 limit) {
  limit_.store(limit, std::memory_order_relaxed);
}

void MemoryBudget::charge(u64 bytes) {
  const u64 limit = limit_.load(std::memory_order_relaxed);
  const u64 now = resident_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (limit != 0 && now > limit) {
    resident_.fetch_sub(bytes, std::memory_order_relaxed);
    throw BudgetExceededError(bytes, now - bytes, limit,
                              high_water_.load(std::memory_order_relaxed));
  }
  u64 peak = high_water_.load(std::memory_order_relaxed);
  while (now > peak && !high_water_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

void MemoryBudget::credit(u64 bytes) noexcept {
  resident_.fetch_sub(bytes, std::memory_order_relaxed);
}

void MemoryBudget::reset_high_water() noexcept {
  high_water_.store(resident_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
}

namespace {
thread_local std::shared_ptr<JobMemory> t_job_memory;
}  // namespace

void JobMemory::add(u64 bytes) noexcept {
  const u64 now = resident_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  u64 peak = peak_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
}

void JobMemory::sub(u64 bytes) noexcept {
  resident_.fetch_sub(bytes, std::memory_order_relaxed);
}

void JobMemory::reset_peak() noexcept {
  peak_.store(resident_.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
}

const std::shared_ptr<JobMemory>& JobMemory::current() noexcept {
  return t_job_memory;
}

JobMemory::Scope::Scope(std::shared_ptr<JobMemory> m)
    : saved_(std::exchange(t_job_memory, std::move(m))) {}

JobMemory::Scope::~Scope() { t_job_memory = std::move(saved_); }

}  // namespace adriatic::mem
