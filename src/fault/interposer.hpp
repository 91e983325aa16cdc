// Bus fault interposers: transparent shims that sit on a master or slave
// path and apply a FaultPlan to the traffic flowing through them — the one
// mechanism behind memory soft errors, flaky configuration fetches and
// stalling slaves alike. An interposer injects three fault classes:
//
//   kError    the transaction fails (kSlaveError / false) without reaching
//             the wrapped target;
//   kDelay    the calling thread stalls for the rule's delay, then the
//             transaction proceeds normally (timing-only fault);
//   kCorrupt  the transaction completes but read payload bits are flipped
//             (distinct positions, so the upset weight is exact).
//
// Every injection is appended to a FaultLedger (the interposer's own, or a
// shared one via set_ledger) so campaigns can report and digest the exact
// fault sequence.
#pragma once

#include <string>

#include "bus/interfaces.hpp"
#include "fault/ledger.hpp"
#include "fault/plan.hpp"
#include "kernel/module.hpp"

namespace adriatic::fault {

/// Master-path interposer: implements bus::BusMasterIf, forwards to a
/// downstream BusMasterIf bound via bind() (late binding is fine — the
/// first transaction must simply happen after it).
class BusFaultInterposer : public kern::Module, public bus::BusMasterIf {
 public:
  BusFaultInterposer(kern::Object& parent, std::string name, FaultPlan plan);

  void bind(bus::BusMasterIf& downstream) noexcept { down_ = &downstream; }
  [[nodiscard]] bool bound() const noexcept { return down_ != nullptr; }

  /// Redirects ledger appends to a shared ledger (e.g. a component- or
  /// campaign-owned one). Pass nullptr to fall back to the own ledger.
  void set_ledger(FaultLedger* ledger) noexcept {
    ledger_ = ledger != nullptr ? ledger : &own_ledger_;
  }
  [[nodiscard]] const FaultLedger& ledger() const noexcept { return *ledger_; }
  [[nodiscard]] u64 injected() const noexcept {
    return ledger_->injected_count();
  }

  // bus::BusMasterIf ---------------------------------------------------------
  bus::BusStatus read(bus::addr_t add, bus::word* data, u32 priority) override;
  bus::BusStatus write(bus::addr_t add, bus::word* data,
                       u32 priority) override;
  bus::BusStatus burst_read(bus::addr_t add, std::span<bus::word> data,
                            u32 priority) override;
  bus::BusStatus burst_write(bus::addr_t add, std::span<const bus::word> data,
                             u32 priority) override;

 private:
  /// Consults the plan; applies delay in place; records the injection.
  /// Returns the action for kError/kCorrupt handling by the caller.
  std::optional<FaultAction> intercept(bus::addr_t add, bool is_read);

  FaultInjector injector_;
  FaultLedger own_ledger_;
  FaultLedger* ledger_ = &own_ledger_;
  bus::BusMasterIf* down_ = nullptr;
  u64 site_;
};

/// Slave-path interposer: wraps any bus::BusSlaveIf, mirroring its address
/// range — drop-in on a Bus where the original slave was bound. A Memory
/// gets its upsets from the ECC model (Memory::set_ecc) instead.
///
/// DMI interaction: while the plan is active (any rule or scripted fault),
/// the interposer declines to forward the inner slave's DMI grants — a
/// direct pointer would bypass read()/write() and blind the injector.
/// set_plan() re-arms at runtime and invalidates every grant already
/// forwarded, so initiators fall back to the interposed path immediately.
class SlaveFaultInterposer : public kern::Module,
                             public bus::BusSlaveIf,
                             public bus::DmiProvider {
 public:
  SlaveFaultInterposer(kern::Object& parent, std::string name,
                       bus::BusSlaveIf& inner, FaultPlan plan);

  void set_ledger(FaultLedger* ledger) noexcept {
    ledger_ = ledger != nullptr ? ledger : &own_ledger_;
  }
  [[nodiscard]] const FaultLedger& ledger() const noexcept { return *ledger_; }

  /// Replaces the fault plan (re-seeding the injector) and invalidates all
  /// forwarded DMI grants. Passing an empty plan disarms the interposer,
  /// which transparently forwards DMI again.
  void set_plan(FaultPlan plan);
  /// True when the current plan can inject (rules or scripted shots).
  [[nodiscard]] bool armed() const noexcept { return armed_; }

  // bus::BusSlaveIf ----------------------------------------------------------
  [[nodiscard]] bus::addr_t get_low_add() const override {
    return inner_->get_low_add();
  }
  [[nodiscard]] bus::addr_t get_high_add() const override {
    return inner_->get_high_add();
  }
  bool read(bus::addr_t add, bus::word* data) override;
  bool write(bus::addr_t add, bus::word* data) override;

  // bus::DmiProvider ----------------------------------------------------------
  /// Forwards the inner slave's grant only while disarmed.
  bool get_dmi(bus::addr_t add, bus::DmiRegion* out) override;

 private:
  FaultInjector injector_;
  FaultLedger own_ledger_;
  FaultLedger* ledger_ = &own_ledger_;
  bus::BusSlaveIf* inner_;
  u64 site_;
  bool armed_ = false;
  bool inner_listener_registered_ = false;
};

}  // namespace adriatic::fault
