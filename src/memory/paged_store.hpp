// Sparse copy-on-write paged backing store for memory models.
//
// A PagedStore divides its word-addressed space into fixed 4 KiB pages
// (kPageWords words). Pages are materialized lazily: reads of untouched pages
// return zero without allocating, and the first write materializes a private
// page. Identical images (config bitstreams, ROM contents, input frames) are
// interned once in the process-wide ImageRegistry and attached to any number
// of stores; attached pages are shared by refcount and split on first write
// (copy-on-write), so N campaign jobs replaying the same image keep one
// resident copy until they diverge.
//
// Integrity: every materialized page carries an order-independent checksum
// maintained on API writes and verified on the first read after the page is
// attached or materialized (and again by scrubbing). Corruption injected
// behind the API (ECC storage upsets, torn pages) deliberately bypasses that
// maintenance so verification actually detects it. Pages attached from an
// image keep a reference to their golden copy; scrubbing restores a corrupted
// page from it. API writes drop the golden link — the page legitimately
// diverged, and reverting it would be data loss, not repair.
//
// Budget: every materialized page charges the process-wide MemoryBudget and
// credits it on release, so resident-set accounting spans all stores and an
// over-budget allocation fails with a typed BudgetExceededError. A store
// built inside a campaign job also counts its resident pages, attached image
// pages included, against that job's JobMemory (the job's reported peak).
//
// PagedStore is host-side only (no simulated time); mem::Memory layers bus
// latency, DMI, and the ECC model on top.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bus/interfaces.hpp"
#include "memory/budget.hpp"
#include "util/types.hpp"

namespace adriatic::mem {

/// Page geometry: 4 KiB of 32-bit words. A power of two so page arithmetic
/// stays shift/mask and bus bursts straddle at most len/kPageWords+1 pages.
inline constexpr usize kPageWords = 1024;
inline constexpr usize kPageBytes = kPageWords * sizeof(bus::word);

/// Order-independent integrity checksum over one page: each (index, word)
/// pair is avalanched (splitmix64) and summed, so a single-word update is an
/// O(1) delta instead of an O(page) rescan.
[[nodiscard]] u64 page_checksum(std::span<const bus::word> words);
/// The contribution of word `i` holding value `w` to a page checksum.
[[nodiscard]] u64 checksum_term(usize i, bus::word w);

/// RAII charge against the process-wide MemoryBudget; throws
/// BudgetExceededError from the constructor when over budget.
class BudgetCharge {
 public:
  explicit BudgetCharge(u64 bytes) : bytes_(bytes) {
    MemoryBudget::instance().charge(bytes_);
  }
  ~BudgetCharge() { MemoryBudget::instance().credit(bytes_); }
  BudgetCharge(const BudgetCharge&) = delete;
  BudgetCharge& operator=(const BudgetCharge&) = delete;

 private:
  u64 bytes_;
};

/// One refcounted 4 KiB page. The charge member precedes the payload so the
/// budget is checked before the host allocation, and released after it.
struct PageData {
  PageData() : words(kPageWords, 0), checksum(zero_checksum()) {}
  explicit PageData(std::span<const bus::word> src);

  /// Checksum of an all-zero page (pages start zeroed, not with checksum 0).
  [[nodiscard]] static u64 zero_checksum();

  BudgetCharge charge{kPageBytes};
  std::vector<bus::word> words;
  u64 checksum = 0;
};

using PageRef = std::shared_ptr<PageData>;

/// An immutable, content-addressed image: the golden copy that stores attach
/// and scrubbers restore from. All-zero pages are elided (null PageRef), so a
/// mostly-zero image costs only its nonzero pages.
class SharedImage {
 public:
  SharedImage(u64 digest, usize size_words, std::vector<PageRef> pages)
      : digest_(digest), size_words_(size_words), pages_(std::move(pages)) {}

  [[nodiscard]] u64 digest() const noexcept { return digest_; }
  [[nodiscard]] usize size_words() const noexcept { return size_words_; }
  [[nodiscard]] usize page_count() const noexcept { return pages_.size(); }
  [[nodiscard]] const PageRef& page(usize i) const { return pages_.at(i); }
  /// Word `i` of the image (zero for elided pages and the padded tail).
  [[nodiscard]] bus::word word_at(usize i) const;
  /// Resident (non-elided) pages — what the image actually costs.
  [[nodiscard]] usize resident_pages() const noexcept;

 private:
  u64 digest_;
  usize size_words_;
  std::vector<PageRef> pages_;
};

using SharedImageRef = std::shared_ptr<const SharedImage>;

struct ImageRegistryStats {
  u64 interned = 0;    ///< Distinct images held.
  u64 image_hits = 0;  ///< intern() calls resolved to an existing image.
  u64 page_hits = 0;   ///< Pages deduplicated against the page pool.
};

/// Process-wide interning table for SharedImages, content-addressed by an
/// FNV-1a digest of the full image, with a secondary per-page pool so images
/// that differ overall still share their identical pages. Thread-safe:
/// campaign workers intern concurrently.
class ImageRegistry {
 public:
  static ImageRegistry& instance();

  /// Returns the canonical image for `contents`, building it on first sight.
  SharedImageRef intern(std::span<const bus::word> contents);
  /// Looks up a previously interned image by digest (null if absent).
  [[nodiscard]] SharedImageRef find(u64 digest) const;

  /// Drops images no longer referenced by any store. Long-running sweeps
  /// over many distinct images call this between batches; the common case
  /// (one image, many jobs) never needs to.
  usize drop_unused();

  [[nodiscard]] ImageRegistryStats stats() const;

 private:
  ImageRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

/// Full-image content digest (FNV-1a over the raw words) — the registry key,
/// exposed so callers can precompute/report it.
[[nodiscard]] u64 image_digest(std::span<const bus::word> contents);

struct PagedStoreStats {
  u64 pages_materialized = 0;  ///< Private pages allocated (incl. splits).
  u64 cow_splits = 0;          ///< Shared pages copied on first write.
  u64 pages_attached = 0;      ///< Non-zero pages adopted from images.
  u64 zero_page_reads = 0;     ///< Reads satisfied without materializing.
  u64 checksum_failures = 0;   ///< Integrity verifications that failed.
  u64 golden_restores = 0;     ///< Pages re-silvered from their image.
  u64 revocations = 0;         ///< Pin revocations (COW split / restore).
};

/// The sparse store proper. Indices are store-relative words ([0, size)).
/// Integrity failures never throw from the data path: read() reports them
/// through check_page_on_read() so the memory model can turn them into bus
/// errors and ledger entries.
class PagedStore {
 public:
  explicit PagedStore(usize size_words, std::string name = "paged_store");
  ~PagedStore();
  PagedStore(const PagedStore&) = delete;
  PagedStore& operator=(const PagedStore&) = delete;

  // Geometry -----------------------------------------------------------------
  [[nodiscard]] usize size_words() const noexcept { return size_words_; }
  [[nodiscard]] usize page_count() const noexcept { return pages_.size(); }
  [[nodiscard]] static constexpr usize page_of(usize idx) noexcept {
    return idx / kPageWords;
  }

  // Data path ----------------------------------------------------------------
  [[nodiscard]] bus::word read(usize idx);
  /// Copies the `n` words from `idx` into `out`; the run must stay within
  /// one page. A zero page fills zeros and counts n zero_page_reads, as n
  /// read() calls would.
  void read_run(usize idx, bus::word* out, usize n);
  void write(usize idx, bus::word value);
  void load(usize at, std::span<const bus::word> data);
  [[nodiscard]] bus::word peek(usize idx) const;

  /// First-read integrity gate: verifies the page checksum the first time a
  /// page is read after attach/materialize. Returns false (and keeps
  /// returning false until the page is restored) on a mismatch — the caller
  /// decides whether that is a bus error, a ledger entry, or both.
  [[nodiscard]] bool check_page_on_read(usize page);
  /// Whether check_page_on_read(page) would pass, with none of its effects:
  /// the page is not resident, already verified, or verifies now. Bumps no
  /// stat and marks nothing verified.
  [[nodiscard]] bool read_gate_passes(usize page) const;

  // Sharing ------------------------------------------------------------------
  /// Adopts the image's pages at word offset `at` (must be page-aligned and
  /// in range). Whole pages are replaced: callers must only attach over
  /// untouched pages (see pages_untouched). Attached pages remember the
  /// image as their golden copy for scrub restore.
  void attach_image(const SharedImageRef& image, usize at);
  /// True if no page overlapping [at, at+len) has been materialized,
  /// attached, or written — i.e. attach_image there clobbers nothing.
  [[nodiscard]] bool pages_untouched(usize at, usize len) const;

  [[nodiscard]] bool page_resident(usize page) const;
  /// Resident and refcount-shared (image/pool/another store holds it too).
  [[nodiscard]] bool page_shared(usize page) const;
  [[nodiscard]] usize resident_pages() const noexcept { return resident_; }
  [[nodiscard]] usize shared_pages() const;
  [[nodiscard]] u64 resident_bytes() const noexcept {
    return static_cast<u64>(resident_) * kPageBytes;
  }

  // Integrity / fault hooks --------------------------------------------------
  /// Recomputes and compares the page checksum (non-resident pages are
  /// trivially clean). Does not change the first-read verification state.
  [[nodiscard]] bool verify_page(usize page) const;
  /// Fault-injection hook: XORs `mask` into the stored word *without*
  /// maintaining the checksum — modeling a storage upset the write path
  /// never saw. Splits shared pages (the golden copy must stay golden) but
  /// keeps the golden link so scrubbing can repair the damage.
  void corrupt_stored(usize idx, u32 mask);
  /// Re-silvers one page from its golden image copy; false if the page has
  /// no golden link (never attached, or diverged via API writes).
  bool restore_from_golden(usize page);
  [[nodiscard]] bool page_has_golden(usize page) const;
  /// Verify + repair: returns true if the page is clean or was restored.
  bool scrub_page(usize page);

  // DMI support --------------------------------------------------------------
  /// Read-only view of a resident page (null otherwise).
  [[nodiscard]] const bus::word* page_data(usize page) const;
  /// Writable view — only for resident *private* pages; handing out a
  /// writable pointer to a shared page would bypass COW.
  [[nodiscard]] bus::word* page_data_mutable(usize page);
  /// Marks a page as having an outstanding raw pointer; a later COW split or
  /// golden restore of any pinned page fires the revoke listener and clears
  /// every pin.
  void pin_page(usize page);
  void set_revoke_listener(std::function<void()> cb) {
    revoke_cb_ = std::move(cb);
  }

  [[nodiscard]] const PagedStoreStats& stats() const noexcept { return stats_; }

  /// Test knob: newly constructed stores materialize every page eagerly and
  /// attach_image copies instead of sharing — flat-memory semantics for the
  /// paged-vs-flat differential suite and benchmarks. Returns the previous
  /// value; does not affect stores that already exist.
  static bool debug_set_flat_backing(bool flat);
  [[nodiscard]] bool flat_backing() const noexcept { return flat_; }

 private:
  struct GoldenRef {
    SharedImageRef image;  ///< Null when the page has no golden copy.
    usize image_page = 0;
  };

  [[nodiscard]] usize page_index_checked(usize idx, const char* what) const;
  /// Ensures pages_[page] is resident and private, splitting or zero-filling
  /// as needed. API writes pass preserve_golden=false (divergence drops the
  /// golden link); fault and restore paths keep it.
  PageData& materialize(usize page, bool preserve_golden);
  void revoke_pins(usize page);
  /// Counts one page in or out of resident_ and the owning job's footprint.
  void add_resident() noexcept;
  void drop_resident() noexcept;

  std::string name_;
  usize size_words_;
  bool flat_;
  std::vector<PageRef> pages_;
  std::vector<GoldenRef> golden_;
  std::vector<u8> verified_;
  std::vector<u8> pinned_;
  usize resident_ = 0;
  bool any_pinned_ = false;
  std::function<void()> revoke_cb_;
  PagedStoreStats stats_;
  std::shared_ptr<JobMemory> job_;  ///< Null outside a campaign job.

  static bool flat_backing_;
};

}  // namespace adriatic::mem
