#include "drcf/drcf.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "kernel/sched_trace.hpp"
#include "kernel/simulation.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace adriatic::drcf {

namespace {

/// True when `words` equal the image's words [at, at + words.size()),
/// compared page by page (an elided page holds zeros).
bool matches_image(const mem::SharedImage& image, usize at,
                   std::span<const bus::word> words) {
  while (!words.empty()) {
    const usize off = at % mem::kPageWords;
    const usize n = std::min(words.size(), mem::kPageWords - off);
    const auto part = words.first(n);
    const mem::PageRef& page = image.page(at / mem::kPageWords);
    const bool same =
        page != nullptr
            ? std::equal(part.begin(), part.end(), page->words.begin() + off)
            : std::all_of(part.begin(), part.end(),
                          [](bus::word w) { return w == 0; });
    if (!same) return false;
    words = words.subspan(n);
    at += n;
  }
  return true;
}

/// config_digest() of the image's first `n` words.
u64 image_prefix_digest(const mem::SharedImage& image, usize n) {
  u64 h = kFnvSeed;
  for (usize i = 0; i < n; ++i) h = fnv1a_step(h, image.word_at(i));
  return h;
}

}  // namespace

const char* to_string(RecoveryPolicy policy) {
  switch (policy) {
    case RecoveryPolicy::kFailFast:
      return "fail_fast";
    case RecoveryPolicy::kRetryBackoff:
      return "retry_backoff";
    case RecoveryPolicy::kFallbackContext:
      return "fallback_context";
    case RecoveryPolicy::kScrub:
      return "scrub";
  }
  return "?";
}

Drcf::Drcf(kern::Object& parent, std::string name, DrcfConfig cfg)
    : Module(parent, std::move(name)),
      clk(*this, "clk", /*min_bindings=*/0),
      mst_port(*this, "mst_port"),
      cfg_(std::move(cfg)),
      slot_table_(cfg_.slots, cfg_.replacement),
      predictor_(cfg_.prefetch.policy, cfg_.prefetch.static_next),
      config_cache_(cfg_.prefetch.cache_slots),
      load_request_event_(sim(), this->name() + ".load_request"),
      any_loaded_event_(sim(), this->name() + ".loaded"),
      fabric_idle_event_(sim(), this->name() + ".fabric_idle"),
      drain_event_(sim(), this->name() + ".drain") {
  site_id_ = kern::sched_name_hash(this->name());
  if (!cfg_.fetch_faults.empty()) {
    fetch_interposer_ = std::make_unique<fault::BusFaultInterposer>(
        *this, "fetch_faults", cfg_.fetch_faults);
    fetch_interposer_->set_ledger(&ledger_);
  }
  spawn_thread("arb_and_instr", [this] { arb_and_instr(); }).set_daemon();
}

usize Drcf::add_context(bus::BusSlaveIf& inner, ContextParams params) {
  if (params.size_words == 0)
    params.size_words = cfg_.technology.context_words(params.gates);
  if (params.size_words == 0)
    throw std::invalid_argument(
        name() + ": context needs size_words or gates to derive it");
  // Address ranges of contexts must not overlap — the multiplexer routes by
  // address (the union interface the transformation builds).
  for (const auto& c : contexts_) {
    if (inner.get_low_add() <= c->inner->get_high_add() &&
        c->inner->get_low_add() <= inner.get_high_add())
      throw std::logic_error(name() + ": overlapping context address ranges");
  }
  auto ctx = std::make_unique<Context>();
  ctx->inner = &inner;
  ctx->params = params;
  const std::string event_name =
      name() + ".ctx" + std::to_string(contexts_.size()) + ".loaded";
  ctx->loaded_event = std::make_unique<kern::Event>(sim(), event_name);
  ctx->trace_id = kern::sched_name_hash(event_name);
  contexts_.push_back(std::move(ctx));
  return contexts_.size() - 1;
}

bus::addr_t Drcf::get_low_add() const {
  bus::addr_t lo = std::numeric_limits<bus::addr_t>::max();
  for (const auto& c : contexts_) lo = std::min(lo, c->inner->get_low_add());
  return contexts_.empty() ? 0 : lo;
}

bus::addr_t Drcf::get_high_add() const {
  bus::addr_t hi = 0;
  for (const auto& c : contexts_) hi = std::max(hi, c->inner->get_high_add());
  return hi;
}

std::optional<usize> Drcf::decode(bus::addr_t add) const {
  for (usize i = 0; i < contexts_.size(); ++i) {
    const auto* inner = contexts_[i]->inner;
    if (add >= inner->get_low_add() && add <= inner->get_high_add()) return i;
  }
  return std::nullopt;
}

bool Drcf::read(bus::addr_t add, bus::word* data) {
  return forward(add, data, true);
}

bool Drcf::write(bus::addr_t add, bus::word* data) {
  return forward(add, data, false);
}

bool Drcf::forward(bus::addr_t add, bus::word* data, bool is_read) {
  const auto decoded = decode(add);
  if (!decoded.has_value()) return false;
  usize target = *decoded;

  // Scheduler steps 2-4: forward to the active context, or suspend the call
  // across a context switch.
  bool counted_miss = false;
  const kern::Time t0 = sim().now();
  for (;;) {
    // Graceful degradation: a context that terminally failed to load under
    // kFallbackContext retargets every call to the fallback (this also
    // covers calls issued long after the give-up happened).
    if (contexts_[target]->gave_up && !retarget_to_fallback(target, add))
      return false;
    Context& ctx = *contexts_[target];
    const auto slot = slot_table_.lookup(target);
    if (slot.has_value()) {
      if (cfg_.slots == 1 && reconfiguring_) {
        // Single-context fabric is unusable while reconfiguring, even for
        // the (about-to-be-replaced) resident context.
        ++ctx.stats.blocked_accesses;
        while (reconfiguring_) kern::wait(fabric_idle_event_);
        continue;  // residency may have changed; re-route
      }
      if (counted_miss) {
        ctx.stats.blocked_time += sim().now() - t0;
        ctx.loaded_by_prefetch = false;  // the caller waited: nothing hidden
      } else {
        ++stats_.hits;
        if (ctx.loaded_by_prefetch) {
          // First call into a prefetched context: the whole fetch happened
          // off the demand path.
          ctx.loaded_by_prefetch = false;
          ++stats_.prefetch_hits;
          stats_.hidden_latency += ctx.last_fetch_duration;
        }
      }
      // Sec. 5.3 step 2/3 ordering: a call may only be forwarded to a
      // context that is resident on a fabric not mid-reconfiguration.
      ADRIATIC_CHECK(cfg_.slots > 1 || !reconfiguring_,
                     "forwarded a call through a single-slot fabric that is "
                     "still reconfiguring (Sec. 5.3 step 4 incomplete)");
      // Pin the context so arb_and_instr cannot reconfigure it away while
      // the forwarded call is in flight.
      slot_table_.touch(*slot);
      ++ctx.pins;
      ++ctx.stats.accesses;
      ++forward_count_;  // useful work for the thrash detector
      const bool ok =
          is_read ? ctx.inner->read(add, data) : ctx.inner->write(add, data);
      --ctx.pins;
      drain_event_.notify();
      return ok;
    }
    if (!counted_miss) {
      counted_miss = true;
      ++stats_.misses;
      ++ctx.stats.blocked_accesses;
      note_demand_miss(target, ctx);
    }
    ++ctx.waiters;
    request_load(target);
    kern::wait(*ctx.loaded_event);
    --ctx.waiters;
    drain_event_.notify();
    if (ctx.load_failed) {
      if (ctx.gave_up) continue;  // loop top retargets to the fallback
      return false;               // configuration fetch failed
    }
  }
}

void Drcf::request_load(usize ctx) {
  request_load_impl(ctx, /*is_prefetch=*/false, /*fill_only=*/false);
}

void Drcf::issue_prefetch(usize ctx, bool fill_only) {
  request_load_impl(ctx, /*is_prefetch=*/true, fill_only);
}

void Drcf::request_load_impl(usize ctx, bool is_prefetch, bool fill_only) {
  Context& c = *contexts_.at(ctx);
  if (c.load_pending) {
    // A demand joining an in-flight prefetch promotes it: the load keeps its
    // queue position but completes (and fails) with demand semantics.
    if (!is_prefetch && c.pending_is_prefetch) c.pending_is_prefetch = false;
    return;
  }
  if (c.gave_up) return;  // terminally failed; never reloaded
  if (slot_table_.lookup(ctx).has_value()) return;
  // Hybrid retargeting: a demand arrival cancels queued mispredicted
  // prefetches so its own fetch starts sooner.
  if (!is_prefetch && cfg_.prefetch.policy == PrefetchPolicy::kHybrid)
    drop_queued_prefetches(ctx);
  c.load_pending = true;
  c.load_failed = false;  // a fresh attempt
  c.pending_is_prefetch = is_prefetch;
  c.pending_fill_only = fill_only;
  load_queue_.push_back(ctx);
  load_request_event_.notify();
}

void Drcf::drop_queued_prefetches(usize demanded) {
  for (usize i = 0; i < load_queue_.size();) {
    const usize q = load_queue_[i];
    Context& c = *contexts_[q];
    if (q == demanded || !c.pending_is_prefetch) {
      ++i;
      continue;
    }
    // Unstarted prefetch: nothing waits on it, so it just disappears.
    c.load_pending = false;
    c.pending_is_prefetch = false;
    c.pending_fill_only = false;
    ++stats_.prefetch_aborts;
    emit_sched_prefetch(q);
    load_queue_.erase(load_queue_.begin() +
                      static_cast<std::ptrdiff_t>(i));
  }
}

void Drcf::note_demand_miss(usize target, Context& ctx) {
  if (cfg_.prefetch.policy == PrefetchPolicy::kOnDemand &&
      !config_cache_.enabled())
    return;  // base model: nothing to attribute the miss to
  if (ctx.load_pending && ctx.pending_is_prefetch) {
    // The demanded context is already being prefetched; the caller joins
    // the load and only waits out the remainder of the fetch.
    ++stats_.prefetch_hits;
    if (ctx.fetch_in_progress)
      stats_.hidden_latency += sim().now() - ctx.fetch_started;
    ctx.pending_is_prefetch = false;  // promote to a demand load
    return;
  }
  if (cache_covers(target)) return;  // counted as a cache hit at install
  if (cfg_.prefetch.policy != PrefetchPolicy::kOnDemand)
    ++stats_.prefetch_misses;
}

bool Drcf::cache_covers(usize target) const {
  if (!config_cache_.enabled() || !cfg_.model_config_traffic) return false;
  if (!config_cache_.contains(target)) return false;
  const u64 expected = contexts_[target]->expected_digest();
  return expected == 0 || config_cache_.digest(target) == expected;
}

std::vector<usize> Drcf::resident_contexts() const {
  std::vector<usize> r;
  for (u32 slot = 0; slot < slot_table_.slots(); ++slot) {
    const auto ctx = slot_table_.resident(slot);
    if (ctx.has_value()) r.push_back(*ctx);
  }
  return r;
}

bool Drcf::hybrid_demand_waiting(usize current) const {
  for (const usize q : load_queue_)
    if (q != current && !contexts_[q]->pending_is_prefetch) return true;
  return false;
}

void Drcf::emit_sched_prefetch(usize target) {
  kern::SchedulerObserver* obs = sim().observer();
  if (obs == nullptr) return;
  obs->on_record(kern::SchedRecord{kern::SchedRecord::Kind::kPrefetch,
                                   sim().now().picoseconds(),
                                   sim().delta_count(),
                                   contexts_[target]->trace_id});
}

void Drcf::emit_sched_migrate(usize target) {
  kern::SchedulerObserver* obs = sim().observer();
  if (obs == nullptr) return;
  obs->on_record(kern::SchedRecord{kern::SchedRecord::Kind::kMigrate,
                                   sim().now().picoseconds(),
                                   sim().delta_count(),
                                   contexts_[target]->trace_id});
}

std::optional<TaskState> Drcf::checkpoint_task(usize ctx) {
  if (ctx >= contexts_.size()) return std::nullopt;
  Context& c = *contexts_[ctx];
  // Checkpoints only happen at context-switch boundaries: a context with
  // in-flight forwarded calls, woken waiters, or a load under way is not at
  // one, and snapshotting it would capture a half-written window.
  if (c.pins != 0 || c.waiters != 0 || c.load_pending) return std::nullopt;
  const bus::addr_t lo = c.inner->get_low_add();
  const u32 window =
      static_cast<u32>(c.inner->get_high_add() - lo + 1);
  TaskState s;
  s.context_id = ctx;
  s.config_digest = c.expected_digest();
  s.window_words = window;
  s.progress_cursor = c.stats.accesses;
  s.image.resize(window, 0);
  for (u32 i = 0; i < window; ++i) {
    bus::word w = 0;
    // Side-door capture: read the wrapped module directly, bypassing the
    // scheduler (no pin, no residency requirement, no simulated time).
    if (c.inner->read(lo + i, &w)) s.image[i] = w;
  }
  ++stats_.checkpoints;
  emit_sched_migrate(ctx);
  return s;
}

RestoreError Drcf::restore_task(usize ctx, const TaskState& state) {
  const auto reject = [this](RestoreError err, bus::addr_t addr, u64 arg) {
    ++stats_.restore_rejects;
    ledger_.append(fault::FaultEventKind::kMigrateError,
                   sim().now().picoseconds(), site_id_, addr,
                   static_cast<u64>(err) << 32 | (arg & 0xFFFFFFFFu));
    return err;
  };
  if (ctx >= contexts_.size())
    return reject(RestoreError::kUnknownContext, 0, ctx);
  Context& c = *contexts_[ctx];
  const bus::addr_t lo = c.inner->get_low_add();
  // Every check runs before the first register write: a rejected restore
  // must never leave the destination half-overwritten.
  if (state.image.size() != state.window_words)
    return reject(RestoreError::kTruncatedImage, lo,
                  static_cast<u64>(state.image.size()));
  const u32 window =
      static_cast<u32>(c.inner->get_high_add() - lo + 1);
  if (window != state.window_words)
    return reject(RestoreError::kGeometryMismatch, lo, state.window_words);
  if (c.pins != 0 || c.waiters != 0 || c.load_pending)
    return reject(RestoreError::kBusyContext, lo, ctx);
  if (state.config_digest != 0 && c.expected_digest() != 0 &&
      state.config_digest != c.expected_digest())
    return reject(RestoreError::kDigestMismatch, lo, state.config_digest);
  for (u32 i = 0; i < window; ++i) {
    bus::word w = state.image[i];
    // Read-only and reserved offsets refuse the write (returning false);
    // their architectural value is derived, not restorable state.
    (void)c.inner->write(lo + i, &w);
  }
  ++stats_.restores;
  emit_sched_migrate(ctx);
  return RestoreError::kNone;
}

void Drcf::park_preempt_snapshot(usize victim) {
  auto snap = checkpoint_task(victim);
  if (!snap.has_value()) return;  // not quiescent: nothing to park
  ++stats_.preempt_parks;
  if (config_cache_.enabled() && config_cache_.contains(victim)) {
    if (config_cache_.park_snapshot(victim, std::move(*snap))) {
      parked_snapshots_.erase(victim);  // plane copy supersedes any old one
      return;
    }
  }
  parked_snapshots_.insert_or_assign(victim, std::move(*snap));
}

std::optional<TaskState> Drcf::take_parked_snapshot(usize ctx) {
  if (auto s = config_cache_.take_snapshot(ctx); s.has_value()) return s;
  const auto it = parked_snapshots_.find(ctx);
  if (it == parked_snapshots_.end()) return std::nullopt;
  std::optional<TaskState> s = std::move(it->second);
  parked_snapshots_.erase(it);
  return s;
}

bool Drcf::retarget_to_fallback(usize& target, bus::addr_t& add) {
  if (cfg_.recovery.policy != RecoveryPolicy::kFallbackContext) return false;
  if (!cfg_.recovery.fallback_context.has_value()) return false;
  const usize fb = *cfg_.recovery.fallback_context;
  if (fb == target || fb >= contexts_.size()) return false;
  const bus::BusSlaveIf& from = *contexts_[target]->inner;
  const bus::BusSlaveIf& to = *contexts_[fb]->inner;
  const bus::addr_t offset = add - from.get_low_add();
  if (offset > to.get_high_add() - to.get_low_add()) return false;
  ledger_.append(fault::FaultEventKind::kFallback, sim().now().picoseconds(),
                 site_id_, add, static_cast<u64>(target));
  ++stats_.fallback_forwards;
  add = to.get_low_add() + offset;
  target = fb;
  return true;
}

void Drcf::prefetch(usize ctx) {
  if (ctx >= contexts_.size())
    throw std::out_of_range(name() + ": prefetch of unknown context");
  // A prefetch of a context that is already resident, already loading, or
  // terminally failed is a no-op cache hit: no counter, no redundant fetch.
  if (slot_table_.lookup(ctx).has_value()) return;
  if (contexts_[ctx]->load_pending) return;
  if (contexts_[ctx]->gave_up) return;
  ++stats_.prefetches;
  issue_prefetch(ctx, /*fill_only=*/false);
}

void Drcf::close_residency(Context& c, kern::Time at) {
  c.stats.active_time += at - c.residency_start;
}

Drcf::FetchResult Drcf::fetch_with_recovery(Context& ctx, usize target,
                                            std::vector<bus::word>& buf) {
  FetchResult res;
  u32 attempt = 1;
  u32 scrubs_left = cfg_.recovery.scrub_refetches;
  kern::Time backoff = cfg_.recovery.backoff;
  bool had_failed_attempt = false;
  for (;;) {
    const FetchOutcome out = fetch_context(ctx, target, buf);
    if (out == FetchOutcome::kOk) {
      if (had_failed_attempt)
        ledger_.append(fault::FaultEventKind::kRecovered,
                       sim().now().picoseconds(), site_id_,
                       ctx.params.config_address, attempt);
      res.ok = true;
      return res;
    }
    if (out == FetchOutcome::kAbortedPrefetch) {
      res.aborted = true;
      return res;
    }
    had_failed_attempt = true;
    if (out == FetchOutcome::kDigestMismatch &&
        cfg_.recovery.policy == RecoveryPolicy::kScrub && scrubs_left > 0) {
      // Scrubbing: the words arrived but were corrupted — re-fetch
      // immediately (no backoff; the source copy is assumed good).
      --scrubs_left;
      ++stats_.scrubs;
      ledger_.append(fault::FaultEventKind::kScrub, sim().now().picoseconds(),
                     site_id_, ctx.params.config_address, target);
      continue;
    }
    if (cfg_.recovery.policy == RecoveryPolicy::kRetryBackoff &&
        attempt < cfg_.recovery.max_attempts) {
      ++attempt;
      ++stats_.fetch_retries;
      ledger_.append(fault::FaultEventKind::kRetry, sim().now().picoseconds(),
                     site_id_, ctx.params.config_address, attempt);
      if (!backoff.is_zero()) kern::wait(backoff);
      backoff = backoff * 2;
      continue;
    }
    return res;
  }
}

void Drcf::fill_cache(usize target, std::vector<bus::word>& buf) {
  Context& ctx = *contexts_[target];
  const kern::Time t0 = sim().now();
  const u64 words_before = stats_.config_words_fetched;
  ctx.fetch_in_progress = true;
  ctx.fetch_started = t0;
  const FetchResult res = fetch_with_recovery(ctx, target, buf);
  ctx.fetch_in_progress = false;
  // Everything a background fill moves over the bus is prefetch traffic,
  // whether the fill succeeded, failed, or was aborted.
  stats_.config_words_prefetched += stats_.config_words_fetched - words_before;
  const bool demand_joined = !ctx.pending_is_prefetch;
  ctx.load_pending = false;
  ctx.pending_is_prefetch = false;
  ctx.pending_fill_only = false;
  if (res.aborted) {
    ++stats_.prefetch_aborts;
    emit_sched_prefetch(target);
  }
  if (res.ok) {
    ctx.last_fetch_duration = sim().now() - t0;
    const std::vector<usize> pinned = resident_contexts();
    const auto ins = config_cache_.insert(target, ctx.expected_digest(),
                                          /*prefetched=*/!demand_joined,
                                          pinned);
    if (ins.evicted.has_value()) ++stats_.cache_evictions;
  }
  // A failed fill with no takers is silent: nothing demanded the context,
  // so no give-up and no load_failed — the next demand miss just fetches
  // over the bus as usual. If callers joined mid-fill, hand the load back
  // to the queue as a demand; it installs from the cache when the fill
  // succeeded and performs its own recovery when it did not.
  if (ctx.waiters > 0) request_load(target);
}

void Drcf::auto_prefetch_after(usize current) {
  if (cfg_.prefetch.policy == PrefetchPolicy::kOnDemand) return;
  const auto predicted = predictor_.predict(current);
  if (!predicted.has_value()) return;
  const usize p = *predicted;
  if (p >= contexts_.size() || p == current) return;
  Context& c = *contexts_[p];
  if (c.load_pending || c.gave_up) return;
  if (slot_table_.lookup(p).has_value()) return;
  // Hybrid prefetches only on an idle configuration path: queued demand
  // loads own the bus first.
  if (cfg_.prefetch.policy == PrefetchPolicy::kHybrid && !load_queue_.empty())
    return;
  if (config_cache_.enabled()) {
    if (cache_covers(p)) return;  // already staged: nothing to fetch
    ++stats_.prefetches;
    issue_prefetch(p, /*fill_only=*/true);
    return;
  }
  // No cache: stage into a FREE fabric slot only — evicting here could
  // displace the context the current caller is about to use.
  bool free_slot = false;
  for (u32 s = 0; s < slot_table_.slots(); ++s) {
    if (!slot_table_.resident(s).has_value()) {
      free_slot = true;
      break;
    }
  }
  if (!free_slot) return;
  ++stats_.prefetches;
  issue_prefetch(p, /*fill_only=*/false);
}

void Drcf::arb_and_instr() {
  for (;;) {
    while (load_queue_.empty()) kern::wait(load_request_event_);
    const usize target = load_queue_.front();
    load_queue_.erase(load_queue_.begin());
    Context& ctx = *contexts_[target];
    if (slot_table_.lookup(target).has_value()) {
      ctx.load_pending = false;
      ctx.pending_is_prefetch = false;
      ctx.pending_fill_only = false;
      ctx.loaded_event->notify();
      continue;
    }
    if (ctx.pending_is_prefetch) emit_sched_prefetch(target);
    if (ctx.pending_fill_only) {
      // Background cache fill: no slot, no victim, no reconfiguring_ window
      // — the fabric keeps serving calls while the fetch runs. This is the
      // overlap that hides reconfiguration latency.
      fill_cache(target, fetch_buf_);
      continue;
    }

    // Choose a slot; an evicted context must first drain — in-flight
    // forwarded calls and already-woken waiters finish before the fabric
    // under them is reprogrammed.
    SlotTable::Victim victim{};
    for (;;) {
      victim = slot_table_.choose(target);
      if (!victim.evicted.has_value()) break;
      Context& old = *contexts_[*victim.evicted];
      if (old.pins == 0 && old.waiters == 0) break;
      kern::wait(drain_event_);
      if (slot_table_.lookup(target).has_value()) break;  // loaded meanwhile
    }
    if (slot_table_.lookup(target).has_value()) {
      ctx.load_pending = false;
      ctx.pending_is_prefetch = false;
      ctx.loaded_event->notify();
      continue;
    }
    const kern::Time t0 = sim().now();
    reconfiguring_ = true;

    if (victim.evicted.has_value()) {
      Context& old = *contexts_[*victim.evicted];
      // Pin/drain protocol: a context with in-flight forwarded calls or
      // just-woken waiters must never be reprogrammed away (Sec. 5.3 step 4
      // may only start once the victim is idle).
      ADRIATIC_CHECK(old.pins == 0 && old.waiters == 0,
                     "evicting a context with in-flight calls or waiters");
      // Preemptive checkpoint: the victim is drained (quiescent), so this
      // is exactly a context-switch boundary — snapshot its task state and
      // park it before the fabric underneath is reprogrammed.
      if (cfg_.preempt_checkpoint) park_preempt_snapshot(*victim.evicted);
      close_residency(old, t0);
      slot_table_.evict(victim.slot);
    }

    // Step 4: generate the configuration reads into the fabric. This is the
    // real bus traffic the paper insists must be modeled. With
    // model_config_traffic off, fall back to the analytical delay of the
    // related-work approaches the paper criticises (Sec. 4, [8]). A context
    // whose configuration already sits in the cache skips the bus fetch
    // entirely — that skipped fetch is the latency the prefetcher hid.
    bool fetch_ok = true;
    bool fetch_aborted = false;
    bool cache_hit = false;
    const u64 words_before = stats_.config_words_fetched;
    if (config_cache_.contains(target) && !cache_covers(target))
      config_cache_.invalidate(target);  // stale copy: fails the integrity
                                         // expectation; refetch from memory
    if (cache_covers(target)) {
      cache_hit = true;
      ++stats_.cache_hits;
      config_cache_.touch(target);
      stats_.config_words_skipped += ctx.params.size_words;
      stats_.hidden_latency += ctx.last_fetch_duration;
      if (config_cache_.was_prefetched(target)) {
        ++stats_.prefetch_hits;
        config_cache_.consume_prefetched(target);
      }
    } else if (cfg_.model_config_traffic) {
      ctx.fetch_in_progress = true;
      ctx.fetch_started = t0;
      const FetchResult res = fetch_with_recovery(ctx, target, fetch_buf_);
      ctx.fetch_in_progress = false;
      fetch_ok = res.ok;
      fetch_aborted = res.aborted;
      if (res.ok) ctx.last_fetch_duration = sim().now() - t0;
    } else if (cfg_.assumed_fetch_words_per_us > 0.0) {
      const double us = static_cast<double>(ctx.params.size_words) /
                        cfg_.assumed_fetch_words_per_us;
      kern::wait(kern::Time::ps(static_cast<u64>(us * 1e6)));
    }

    if (fetch_aborted) {
      // A hybrid prefetch abandoned mid-fetch for a demand load. Nothing
      // waits on it (a joined demand would have promoted it), so this is
      // not a failure — the slot it vacates stays free.
      ++stats_.prefetch_aborts;
      emit_sched_prefetch(target);
      stats_.config_words_prefetched +=
          stats_.config_words_fetched - words_before;
      ctx.load_pending = false;
      ctx.pending_is_prefetch = false;
      reconfiguring_ = false;
      ctx.loaded_event->notify();
      fabric_idle_event_.notify();
      continue;
    }

    if (!fetch_ok) {
      // The fabric holds no valid configuration for this context; fail the
      // suspended callers instead of installing garbage (or deadlocking).
      // Under kFallbackContext the failure is terminal and the context
      // degrades: forward() retargets its calls from now on.
      ++stats_.load_give_ups;
      ledger_.append(fault::FaultEventKind::kGaveUp, sim().now().picoseconds(),
                     site_id_, ctx.params.config_address, target);
      if (cfg_.recovery.policy == RecoveryPolicy::kFallbackContext &&
          cfg_.recovery.fallback_context.has_value() &&
          *cfg_.recovery.fallback_context != target &&
          *cfg_.recovery.fallback_context < contexts_.size())
        ctx.gave_up = true;
      ctx.load_pending = false;
      ctx.pending_is_prefetch = false;
      ctx.load_failed = true;
      reconfiguring_ = false;
      ctx.loaded_event->notify();
      fabric_idle_event_.notify();
      continue;
    }

    // Technology and designer-specified extra latency.
    const kern::Time extra =
        ctx.params.extra_delay + cfg_.technology.per_switch_overhead;
    if (!extra.is_zero()) kern::wait(extra);

    const kern::Time load_time = sim().now() - t0;
    ctx.stats.reconfig_time += load_time;
    stats_.reconfig_busy_time += load_time;
    stats_.reconfig_energy_j +=
        cfg_.technology.reconfig_power_w * load_time.to_sec();
    ++stats_.switches;
    note_switch();

    // Step ordering: installation happens only at the end of a
    // reconfiguration window, after the configuration fetch completed.
    ADRIATIC_CHECK(reconfiguring_,
                   "context installed outside a reconfiguration window");
    ADRIATIC_CHECK(!slot_table_.resident(victim.slot).has_value(),
                   "context installed into an occupied slot");
    slot_table_.install(victim.slot, target);
    ADRIATIC_CHECK(slot_table_.lookup(target).has_value(),
                   "installed context not resident after install");
    if (!cache_hit && cfg_.model_config_traffic && config_cache_.enabled()) {
      // Keep a copy of the freshly fetched configuration: switching back to
      // this context later becomes a cache hit.
      const std::vector<usize> pinned = resident_contexts();
      const auto ins = config_cache_.insert(target, ctx.expected_digest(),
                                            /*prefetched=*/false, pinned);
      if (ins.evicted.has_value()) ++stats_.cache_evictions;
    }
    const bool was_prefetch_load = ctx.pending_is_prefetch;
    ctx.loaded_by_prefetch = was_prefetch_load;
    ctx.residency_start = sim().now();
    ++ctx.stats.activations;
    ctx.load_pending = false;
    ctx.pending_is_prefetch = false;
    reconfiguring_ = false;

    ctx.loaded_event->notify();
    any_loaded_event_.notify_delta();
    fabric_idle_event_.notify();

    // Prediction learns from — and reacts to — demand-driven switches only;
    // a completed prefetch never chains into another prefetch.
    if (!was_prefetch_load &&
        cfg_.prefetch.policy != PrefetchPolicy::kOnDemand) {
      if (last_demand_target_.has_value())
        predictor_.observe_switch(*last_demand_target_, target);
      last_demand_target_ = target;
      auto_prefetch_after(target);
    }
  }
}

void Drcf::note_switch() {
  if (cfg_.thrash_window.is_zero()) return;
  const bool fruitless = forward_count_ == forwards_at_last_switch_;
  forwards_at_last_switch_ = forward_count_;
  // The first switch ever has no "between" interval to judge.
  if (stats_.switches <= 1) return;
  if (!fruitless) {
    fruitless_switches_.clear();
    return;
  }
  const kern::Time now = sim().now();
  fruitless_switches_.push_back(now);
  while (now - fruitless_switches_.front() > cfg_.thrash_window)
    fruitless_switches_.pop_front();
  if (fruitless_switches_.size() >= cfg_.thrash_switches) {
    ++stats_.thrash_alerts;
    log::warn() << name() << ": context thrash: "
                << fruitless_switches_.size()
                << " switches with no useful transactions within "
                << cfg_.thrash_window.str();
    ledger_.append(fault::FaultEventKind::kThrash, now.picoseconds(), site_id_,
                   0, static_cast<u64>(fruitless_switches_.size()));
    fruitless_switches_.clear();
  }
}

bus::BusMasterIf& Drcf::fetch_master() {
  if (fetch_interposer_ == nullptr) return mst_port[0];
  // Late binding: the downstream port binding only exists after elaboration,
  // so the interposer is wired on the first fetch.
  if (!fetch_interposer_->bound()) fetch_interposer_->bind(mst_port[0]);
  return *fetch_interposer_;
}

Drcf::FetchOutcome Drcf::fetch_context(Context& ctx, usize target,
                                       std::vector<bus::word>& buf) {
  bus::BusMasterIf& master = fetch_master();
  const kern::Time start = sim().now();
  const kern::Time watchdog = cfg_.recovery.watchdog;
  const mem::SharedImage* golden = ctx.golden.get();
  u64 remaining = ctx.params.size_words;
  usize offset = 0;  // of the next chunk, in words from the bitstream start
  bus::addr_t a = ctx.params.config_address;
  // While every chunk matches the golden image nothing is folded. From the
  // first mismatch on, `digest` holds config_digest() of the words fetched
  // so far (the golden prefix, then the fetched words), the value the
  // kDigestMismatch ledger entry reports.
  bool diverged = false;
  u64 digest = kFnvSeed;
#ifdef ADRIATIC_CHECKED
  u64 full_fold = kFnvSeed;  // the fold the compare path replaces
#endif
  while (remaining > 0) {
    // Hybrid abort/retarget: a prefetch fetch yields the configuration bus
    // to a demand load at the next chunk boundary. A demand that joined
    // THIS load promoted it (pending_is_prefetch is rechecked live), so an
    // aborted fetch never strands a waiter.
    if (cfg_.prefetch.policy == PrefetchPolicy::kHybrid &&
        ctx.pending_is_prefetch && hybrid_demand_waiting(target))
      return FetchOutcome::kAbortedPrefetch;
    const usize chunk =
        static_cast<usize>(std::min<u64>(cfg_.fetch_burst, remaining));
    buf.assign(chunk, 0);
    const auto st = master.burst_read(a, buf, cfg_.load_priority);
    if (st != bus::BusStatus::kOk) {
      log::error() << name() << ": context " << target
                   << " configuration fetch failed (status "
                   << static_cast<int>(st) << ")";
      ++stats_.fetch_errors;
      ledger_.append(fault::FaultEventKind::kFetchError,
                     sim().now().picoseconds(), site_id_, a,
                     static_cast<u64>(st));
      return FetchOutcome::kBusError;
    }
    if (golden != nullptr && !diverged &&
        !matches_image(*golden, offset, buf)) {
      diverged = true;
      digest = image_prefix_digest(*golden, offset);
    }
    if (diverged)
      for (const bus::word w : buf) digest = fnv1a_step(digest, w);
#ifdef ADRIATIC_CHECKED
    for (const bus::word w : buf) full_fold = fnv1a_step(full_fold, w);
#endif
    a += static_cast<bus::addr_t>(chunk);
    offset += chunk;
    remaining -= chunk;
    stats_.config_words_fetched += chunk;
    ctx.stats.config_words_fetched += chunk;
    if (!watchdog.is_zero() && sim().now() - start > watchdog) {
      log::error() << name() << ": context " << target
                   << " configuration fetch aborted by watchdog after "
                   << (sim().now() - start).picoseconds() << " ps";
      ++stats_.watchdog_aborts;
      ++stats_.fetch_errors;
      ledger_.append(fault::FaultEventKind::kWatchdogAbort,
                     sim().now().picoseconds(), site_id_, a,
                     static_cast<u64>(target));
      return FetchOutcome::kWatchdog;
    }
  }
  // The compare path must reach the verdict (and, on a mismatch, the
  // digest) that folding every fetched word reaches.
  ADRIATIC_CHECK(golden == nullptr ||
                     diverged == (full_fold != golden->digest()),
                 "golden compare and digest fold disagree on a fetch");
  ADRIATIC_CHECK(!diverged || digest == full_fold,
                 "mismatch digest differs from the fold of the fetched words");
  if (diverged) {
    log::error() << name() << ": context " << target
                 << " configuration integrity check failed";
    ++stats_.digest_mismatches;
    ++stats_.fetch_errors;
    ledger_.append(fault::FaultEventKind::kDigestMismatch,
                   sim().now().picoseconds(), site_id_,
                   ctx.params.config_address, digest);
    return FetchOutcome::kDigestMismatch;
  }
  return FetchOutcome::kOk;
}

void Drcf::set_golden_bitstream(usize ctx, mem::SharedImageRef image) {
  Context& c = *contexts_.at(ctx);
  if (image != nullptr && image->size_words() != c.params.size_words)
    throw std::invalid_argument(
        name() + ": golden bitstream size differs from the context size");
  c.golden = std::move(image);
}

ContextStats Drcf::context_stats(usize ctx) const {
  const Context& c = *contexts_.at(ctx);
  ContextStats s = c.stats;
  if (slot_table_.lookup(ctx).has_value())
    s.active_time += sim().now() - c.residency_start;
  return s;
}

}  // namespace adriatic::drcf
