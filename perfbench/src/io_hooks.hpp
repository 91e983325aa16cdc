// I/O boundary counters for the campaign layer, observed from outside the
// library: io_hooks.cpp defines fsync() and fork() in the benchmark binary,
// so the statically linked campaign code calls them instead of libc's; each
// hook counts and forwards to the real function (dlsym(RTLD_NEXT)).
//
// Counting is always on (two relaxed atomic increments). Timing each fsync
// and attributing its fd to the journal or the result cache happen only
// while attribution is enabled, i.e. in the traced window.
#pragma once

#include <string>

#include "util/types.hpp"

namespace perfbench::io {

using adriatic::i64;
using adriatic::u64;

[[nodiscard]] u64 fsync_count() noexcept;
[[nodiscard]] u64 fork_count() noexcept;

struct FsyncSplit {
  u64 journal = 0, cache = 0;
  i64 journal_ns = 0, cache_ns = 0;
};

/// Starts timing fsyncs and attributing them by path; paths are compared
/// after realpath(), so relative and absolute spellings both match.
void begin_attribution(const std::string& journal_path,
                       const std::string& cache_path);
/// Stops attribution and returns what was seen since begin_attribution().
FsyncSplit end_attribution();

}  // namespace perfbench::io
