// Snapshottable hardware-task state — the unit of checkpoint/restore and
// cross-fabric migration (Wicaksana et al.'s context-switch method for
// heterogeneous reconfigurable systems). A TaskState captures everything a
// fabric needs to resume a task elsewhere: which context it is, the
// configuration digest the context must be programmed with, the
// register/scratch window image, and a progress cursor.
//
// Plain C++ (no kernel dependencies), like ContextCache, so tests can build
// and mutate snapshots outside a simulation. The word type matches
// bus::word (i32): a serialized snapshot travels over the bus verbatim.
#pragma once

#include <span>
#include <vector>

#include "util/types.hpp"

namespace adriatic::drcf {

/// Why a TaskState restore (or a serialized-snapshot parse) was rejected.
/// Every rejection is loud — a typed error plus a kMigrateError ledger
/// entry — and leaves the destination context untouched.
enum class RestoreError : u8 {
  kNone = 0,
  kBadHeader = 1,         ///< Magic/size header invalid or missing.
  kDigestMismatch = 2,    ///< Snapshot's config digest != destination's.
  kTruncatedImage = 3,    ///< Image shorter than the declared window.
  kGeometryMismatch = 4,  ///< Destination slot window differs in size.
  kUnknownContext = 5,    ///< No such context on the destination fabric.
  kBusyContext = 6,       ///< Destination context has in-flight activity.
};

[[nodiscard]] const char* to_string(RestoreError error);

/// A checkpointed hardware task. Produced by Drcf::checkpoint_task() at a
/// context-switch boundary (the task is quiescent: no pinned calls, no
/// waiters); consumed by Drcf::restore_task() after an integrity check.
struct TaskState {
  /// Serialization magic ("zSC" + version): word 0 of to_words().
  static constexpr i32 kMagic = 0x7A5C0001;
  /// Header size of the serialized form, in words, ahead of the image.
  static constexpr u32 kHeaderWords = 9;

  usize context_id = 0;    ///< Context index on the source fabric.
  u64 config_digest = 0;   ///< Expected bitstream digest at checkpoint time.
  u32 window_words = 0;    ///< Size of the register/scratch window.
  u64 progress_cursor = 0; ///< Forwarded accesses completed at checkpoint.
  std::vector<i32> image;  ///< The captured window, window_words long.

  /// FNV-1a over the image words (util/fnv.hpp, as config_digest), the
  /// end-to-end payload integrity check carried inside the serialized form.
  [[nodiscard]] u64 image_digest() const noexcept;

  /// Serializes to the bus-transfer wire format:
  ///   [0] magic  [1] context_id  [2..3] config_digest lo/hi
  ///   [4] window_words  [5..6] progress_cursor lo/hi
  ///   [7..8] image_digest lo/hi  [9..] image
  [[nodiscard]] std::vector<i32> to_words() const;

  /// Parses and verifies a serialized snapshot. Returns kNone and fills
  /// `out` on success; kBadHeader for a mangled header, kTruncatedImage
  /// when the payload is shorter than the declared window, kDigestMismatch
  /// when the carried image digest does not match the payload (e.g. bits
  /// flipped in transit).
  [[nodiscard]] static RestoreError parse(std::span<const i32> words,
                                          TaskState* out);
};

}  // namespace adriatic::drcf
