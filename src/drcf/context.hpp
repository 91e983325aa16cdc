// Context descriptors for the DRCF — the paper's Sec. 5.3 designer-visible
// parameters: (1) the memory address where the context's configuration is
// allocated, (2) the size of the context, (3) reconfiguration delays beyond
// the memory transfers themselves.
#pragma once

#include "bus/interfaces.hpp"
#include "kernel/time.hpp"
#include "util/types.hpp"

namespace adriatic::drcf {

struct ContextParams {
  /// (1) Where in memory the configuration bitstream lives.
  bus::addr_t config_address = 0;
  /// (2) Context size in 32-bit words. 0 = derive from `gates` through the
  /// selected technology's bits-per-gate density.
  u64 size_words = 0;
  /// (3) Reconfiguration delay in addition to the memory transfers
  /// (configuration decompression, fabric settling, ...).
  kern::Time extra_delay = kern::Time::zero();
  /// ASIC-equivalent gate count of the functionality; drives derived context
  /// sizes and the power/area estimates (paper Sec. 5.5).
  u64 gates = 0;
};

/// Per-context instrumentation maintained by the DRCF's arb_and_instr
/// process (paper Sec. 5.3 step 5: active time and reconfiguring time).
struct ContextStats {
  u64 activations = 0;        ///< Times the context was loaded into a slot.
  u64 accesses = 0;           ///< Interface-method calls forwarded to it.
  u64 blocked_accesses = 0;   ///< Calls that had to wait for a switch.
  u64 config_words_fetched = 0;
  kern::Time active_time;     ///< Total residency time in the fabric.
  kern::Time reconfig_time;   ///< Total time spent loading this context.
  kern::Time blocked_time;    ///< Caller time lost waiting for switches.
};

}  // namespace adriatic::drcf
