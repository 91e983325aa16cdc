// In-memory span recorder for the traced run. Spans are appended under one
// lock and written out only when the run ends, as Chrome trace-event JSON
// (chrome://tracing, Perfetto) plus a per-layer self-time table.
//
// Spans of one job share its id; `parent` names the span of the same id
// that encloses it. A layer's self time is its span's duration minus the
// durations of its child spans.
#pragma once

#include <string>
#include <vector>

#include "util/types.hpp"

namespace perfbench::trace {

using adriatic::i64;
using adriatic::u32;
using adriatic::u64;
using adriatic::usize;

struct Span {
  const char* name = "";       ///< Static string, e.g. "campaign.body".
  const char* parent = nullptr;  ///< Enclosing span's name, same id.
  u64 id = 0;                  ///< Job id; 0 for spans outside any job.
  i64 t0_ns = 0;
  i64 t1_ns = 0;
  u32 tid = 0;                 ///< Recording thread (see thread_tag()).
};

void set_enabled(bool on) noexcept;
[[nodiscard]] bool enabled() noexcept;
/// Appends when enabled; thread-safe.
void record(const Span& s);
/// Removes and returns everything recorded so far.
[[nodiscard]] std::vector<Span> take();
/// Small stable number for the calling thread (trace-viewer lane).
[[nodiscard]] u32 thread_tag() noexcept;

struct LayerRow {
  std::string name;
  usize count = 0;
  double total_ms = 0;
  double self_ms = 0;
};
/// Per span name: count, summed duration and summed self time.
[[nodiscard]] std::vector<LayerRow> self_times(const std::vector<Span>& spans);

/// Writes `spans` as a Chrome trace-event JSON file; false on I/O error.
bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans);

}  // namespace perfbench::trace
