// Multi-slot configuration cache: MorphoSys-style context planes that hold
// already-fetched configurations near the fabric. A context switch whose
// bitstream is cached skips the configuration-bus fetch entirely; misses
// still generate the real configuration traffic the paper insists on.
//
// Plain C++ (no kernel dependencies) so the prefetch test oracle can replay
// cache decisions outside the simulation.
#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "drcf/task_state.hpp"
#include "util/types.hpp"

namespace adriatic::drcf {

class ContextCache {
 public:
  explicit ContextCache(u32 planes = 0) : planes_(planes) {}

  [[nodiscard]] bool enabled() const noexcept { return !planes_.empty(); }
  [[nodiscard]] u32 plane_count() const noexcept {
    return static_cast<u32>(planes_.size());
  }

  [[nodiscard]] bool contains(usize ctx) const {
    return find(ctx) != nullptr;
  }
  /// Digest the cached copy was fetched with: the context's expected digest
  /// at the time of the fetch (zero for an unchecked context); zero when the
  /// context is not cached.
  [[nodiscard]] u64 digest(usize ctx) const {
    const Plane* p = find(ctx);
    return p != nullptr ? p->digest : 0;
  }
  /// True when the cached copy was staged by a prefetch that no demand has
  /// consumed yet.
  [[nodiscard]] bool was_prefetched(usize ctx) const {
    const Plane* p = find(ctx);
    return p != nullptr && p->prefetched;
  }
  void consume_prefetched(usize ctx) {
    if (Plane* p = find(ctx)) p->prefetched = false;
  }

  /// LRU bookkeeping on a cache hit.
  void touch(usize ctx) {
    if (Plane* p = find(ctx)) p->touched = ++seq_;
  }

  struct InsertResult {
    bool inserted = false;
    std::optional<usize> evicted;  ///< Context recycled to make room.
  };

  /// Caches `ctx`. Eviction is LRU over planes not holding a context in
  /// `pinned` (the fabric-resident set: their cached copy is the reload
  /// source of the active planes). Fails when every plane is pinned.
  InsertResult insert(usize ctx, u64 digest, bool prefetched,
                      std::span<const usize> pinned);

  /// Drops a cached copy (e.g. its digest no longer matches expectations).
  /// Any parked snapshot goes with it — a snapshot is only as trustworthy
  /// as the configuration it was captured under.
  void invalidate(usize ctx) {
    if (Plane* p = find(ctx)) {
      p->ctx.reset();
      p->snapshot.reset();
    }
  }

  // Snapshot slot: each plane can park one checkpointed TaskState next to
  // its cached configuration (the preemptive-checkpoint landing zone).
  // Parking requires the context to be cached; the snapshot is dropped
  // whenever its plane is recycled or invalidated.
  [[nodiscard]] bool park_snapshot(usize ctx, TaskState state) {
    Plane* p = find(ctx);
    if (p == nullptr) return false;
    p->snapshot = std::move(state);
    return true;
  }
  [[nodiscard]] std::optional<TaskState> take_snapshot(usize ctx) {
    Plane* p = find(ctx);
    if (p == nullptr || !p->snapshot.has_value()) return std::nullopt;
    std::optional<TaskState> s = std::move(p->snapshot);
    p->snapshot.reset();
    return s;
  }

 private:
  struct Plane {
    std::optional<usize> ctx;
    u64 digest = 0;
    bool prefetched = false;
    u64 touched = 0;
    std::optional<TaskState> snapshot;
  };

  [[nodiscard]] const Plane* find(usize ctx) const {
    for (const Plane& p : planes_)
      if (p.ctx == ctx) return &p;
    return nullptr;
  }
  [[nodiscard]] Plane* find(usize ctx) {
    return const_cast<Plane*>(std::as_const(*this).find(ctx));
  }

  u64 seq_ = 0;
  std::vector<Plane> planes_;
};

}  // namespace adriatic::drcf
