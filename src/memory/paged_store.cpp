#include "memory/paged_store.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "util/fnv.hpp"
#include "util/strings.hpp"

namespace adriatic::mem {

namespace {

// splitmix64 avalanche — same shape as conformance::TraceDigest::mix, so
// checksums mix well even for near-identical pages.
constexpr u64 mix64(u64 z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e9b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool all_zero(std::span<const bus::word> words) {
  return std::all_of(words.begin(), words.end(),
                     [](bus::word w) { return w == 0; });
}

}  // namespace

u64 checksum_term(usize i, bus::word w) {
  return mix64((static_cast<u64>(i) << 32) ^ static_cast<u32>(w));
}

u64 page_checksum(std::span<const bus::word> words) {
  u64 sum = 0;
  for (usize i = 0; i < words.size(); ++i) sum += checksum_term(i, words[i]);
  return sum;
}

u64 image_digest(std::span<const bus::word> contents) {
  return fnv1a_words(contents);
}

PageData::PageData(std::span<const bus::word> src) : words(kPageWords, 0) {
  std::copy(src.begin(), src.end(), words.begin());
  checksum = page_checksum(words);
}

u64 PageData::zero_checksum() {
  static const u64 cks = [] {
    const std::vector<bus::word> zeros(kPageWords, 0);
    return page_checksum(zeros);
  }();
  return cks;
}

// SharedImage -----------------------------------------------------------------

bus::word SharedImage::word_at(usize i) const {
  const usize page = i / kPageWords;
  if (i >= size_words_ || page >= pages_.size()) return 0;
  const PageRef& ref = pages_[page];
  return ref ? ref->words[i % kPageWords] : 0;
}

usize SharedImage::resident_pages() const noexcept {
  return static_cast<usize>(
      std::count_if(pages_.begin(), pages_.end(),
                    [](const PageRef& p) { return p != nullptr; }));
}

// ImageRegistry ---------------------------------------------------------------

struct ImageRegistry::Impl {
  mutable std::mutex mu;
  std::unordered_map<u64, SharedImageRef> images;
  std::unordered_map<u64, std::weak_ptr<PageData>> pool;
  ImageRegistryStats stats;
};

ImageRegistry::Impl& ImageRegistry::impl() const {
  static Impl i;
  return i;
}

ImageRegistry& ImageRegistry::instance() {
  static ImageRegistry registry;
  return registry;
}

SharedImageRef ImageRegistry::intern(std::span<const bus::word> contents) {
  Impl& im = impl();
  const u64 digest = image_digest(contents);
  std::lock_guard<std::mutex> lock(im.mu);
  if (auto it = im.images.find(digest); it != im.images.end()) {
    ++im.stats.image_hits;
    return it->second;
  }
  const usize page_count = ceil_div(contents.size(), kPageWords);
  std::vector<PageRef> pages;
  pages.reserve(page_count);
  for (usize p = 0; p < page_count; ++p) {
    const usize at = p * kPageWords;
    const auto chunk =
        contents.subspan(at, std::min(kPageWords, contents.size() - at));
    if (all_zero(chunk)) {
      pages.push_back(nullptr);
      continue;
    }
    // Secondary dedup: identical pages of *different* images share storage.
    // Digest-keyed with a full content compare on hit, so a 64-bit collision
    // degrades to a private copy instead of silent aliasing.
    const u64 pd = image_digest(chunk);
    if (auto it = im.pool.find(pd); it != im.pool.end()) {
      if (PageRef hit = it->second.lock()) {
        if (std::equal(chunk.begin(), chunk.end(), hit->words.begin()) &&
            all_zero(std::span<const bus::word>(hit->words)
                         .subspan(chunk.size()))) {
          ++im.stats.page_hits;
          pages.push_back(std::move(hit));
          continue;
        }
      }
    }
    PageRef fresh = std::make_shared<PageData>(chunk);
    im.pool[pd] = fresh;
    pages.push_back(std::move(fresh));
  }
  auto image = std::make_shared<const SharedImage>(digest, contents.size(),
                                                   std::move(pages));
  im.images.emplace(digest, image);
  ++im.stats.interned;
  return image;
}

SharedImageRef ImageRegistry::find(u64 digest) const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  const auto it = im.images.find(digest);
  return it == im.images.end() ? nullptr : it->second;
}

usize ImageRegistry::drop_unused() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  usize dropped = 0;
  for (auto it = im.images.begin(); it != im.images.end();) {
    if (it->second.use_count() == 1) {
      it = im.images.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  im.stats.interned -= dropped;
  for (auto it = im.pool.begin(); it != im.pool.end();) {
    it = it->second.expired() ? im.pool.erase(it) : std::next(it);
  }
  return dropped;
}

ImageRegistryStats ImageRegistry::stats() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return im.stats;
}

// PagedStore ------------------------------------------------------------------

bool PagedStore::flat_backing_ = false;

bool PagedStore::debug_set_flat_backing(bool flat) {
  const bool was = flat_backing_;
  flat_backing_ = flat;
  return was;
}

PagedStore::PagedStore(usize size_words, std::string name)
    : name_(std::move(name)),
      size_words_(size_words),
      flat_(flat_backing_),
      pages_(ceil_div(size_words, kPageWords)),
      golden_(pages_.size()),
      verified_(pages_.size(), 0),
      pinned_(pages_.size(), 0),
      job_(JobMemory::current()) {
  if (size_words == 0) throw std::invalid_argument(name_ + ": empty store");
  if (flat_) {
    // Flat semantics: every page resident up front, nothing ever shared —
    // the reference backing for the paged-vs-flat differential suite.
    for (usize p = 0; p < pages_.size(); ++p) materialize(p, true);
  }
}

PagedStore::~PagedStore() {
  if (job_) job_->sub(resident_bytes());
}

void PagedStore::add_resident() noexcept {
  ++resident_;
  if (job_) job_->add(kPageBytes);
}

void PagedStore::drop_resident() noexcept {
  --resident_;
  if (job_) job_->sub(kPageBytes);
}

usize PagedStore::page_index_checked(usize idx, const char* what) const {
  if (idx >= size_words_)
    throw std::out_of_range(strfmt("%s: %s index %zu outside %zu words",
                                   name_.c_str(), what, idx, size_words_));
  return idx / kPageWords;
}

void PagedStore::revoke_pins(usize page) {
  if (!any_pinned_ || !pinned_[page]) return;
  ++stats_.revocations;
  std::fill(pinned_.begin(), pinned_.end(), u8{0});
  any_pinned_ = false;
  if (revoke_cb_) revoke_cb_();
}

PageData& PagedStore::materialize(usize page, bool preserve_golden) {
  PageRef& slot = pages_[page];
  if (!slot) {
    slot = std::make_shared<PageData>();
    add_resident();
    ++stats_.pages_materialized;
    verified_[page] = 1;
  } else if (slot.use_count() > 1) {
    // COW split: readers elsewhere keep the old page; any outstanding DMI
    // pointer into this store now aliases the stale copy, so revoke it.
    revoke_pins(page);
    slot = std::make_shared<PageData>(
        std::span<const bus::word>(slot->words));
    ++stats_.cow_splits;
    ++stats_.pages_materialized;
  }
  if (!preserve_golden) golden_[page].image.reset();
  return *slot;
}

bus::word PagedStore::read(usize idx) {
  const usize page = page_index_checked(idx, "read");
  const PageRef& slot = pages_[page];
  if (!slot) {
    ++stats_.zero_page_reads;
    return 0;
  }
  return slot->words[idx % kPageWords];
}

void PagedStore::read_run(usize idx, bus::word* out, usize n) {
  const usize off = idx % kPageWords;
  if (idx >= size_words_ || idx + n > size_words_ || off + n > kPageWords)
    throw std::out_of_range(name_ + ": read run crosses a page or the store");
  const PageRef& slot = pages_[idx / kPageWords];
  if (!slot) {
    std::fill_n(out, n, bus::word{0});
    stats_.zero_page_reads += n;
    return;
  }
  std::copy_n(slot->words.data() + off, n, out);
}

bool PagedStore::check_page_on_read(usize page) {
  if (page >= pages_.size() || !pages_[page] || verified_[page]) return true;
  if (!verify_page(page)) {
    ++stats_.checksum_failures;
    return false;
  }
  verified_[page] = 1;
  return true;
}

bool PagedStore::read_gate_passes(usize page) const {
  return page >= pages_.size() || !pages_[page] || verified_[page] ||
         verify_page(page);
}

void PagedStore::write(usize idx, bus::word value) {
  const usize page = page_index_checked(idx, "write");
  PageData& p = materialize(page, /*preserve_golden=*/false);
  const usize off = idx % kPageWords;
  p.checksum += checksum_term(off, value) - checksum_term(off, p.words[off]);
  p.words[off] = value;
}

void PagedStore::load(usize at, std::span<const bus::word> data) {
  if (data.empty()) return;
  if (at + data.size() > size_words_)
    throw std::out_of_range(name_ + ": load outside store");
  // Page by page: one materialize per page, then the same per-word
  // checksum update write() makes.
  while (!data.empty()) {
    const usize off = at % kPageWords;
    const usize n = std::min(data.size(), kPageWords - off);
    PageData& p = materialize(at / kPageWords, /*preserve_golden=*/false);
    for (usize i = 0; i < n; ++i) {
      p.checksum += checksum_term(off + i, data[i]) -
                    checksum_term(off + i, p.words[off + i]);
      p.words[off + i] = data[i];
    }
    data = data.subspan(n);
    at += n;
  }
}

bus::word PagedStore::peek(usize idx) const {
  if (idx >= size_words_)
    throw std::out_of_range(name_ + ": peek outside store");
  const PageRef& slot = pages_[idx / kPageWords];
  return slot ? slot->words[idx % kPageWords] : 0;
}

void PagedStore::attach_image(const SharedImageRef& image, usize at) {
  if (!image) throw std::invalid_argument(name_ + ": attach of null image");
  if (at % kPageWords != 0)
    throw std::invalid_argument(name_ + ": attach offset not page-aligned");
  const usize first = at / kPageWords;
  if (at >= size_words_ || first + image->page_count() > pages_.size())
    throw std::out_of_range(name_ + ": attach outside store");
  for (usize i = 0; i < image->page_count(); ++i) {
    const usize slot = first + i;
    revoke_pins(slot);
    if (flat_) {
      // Flat semantics: copy, never share — but keep the golden link so
      // scrub behavior matches the paged backing.
      PageData& p = materialize(slot, /*preserve_golden=*/true);
      const PageRef& src = image->page(i);
      if (src) {
        p.words = src->words;
        p.checksum = src->checksum;
      } else {
        std::fill(p.words.begin(), p.words.end(), 0);
        p.checksum = PageData::zero_checksum();
      }
    } else {
      const PageRef& src = image->page(i);
      if (pages_[slot] && !src) drop_resident();
      if (!pages_[slot] && src) add_resident();
      pages_[slot] = src;
      if (src) ++stats_.pages_attached;
    }
    golden_[slot] = GoldenRef{image, i};
    verified_[slot] = 0;
  }
}

bool PagedStore::pages_untouched(usize at, usize len) const {
  if (len == 0) return true;
  const usize first = at / kPageWords;
  const usize last = (at + len - 1) / kPageWords;
  for (usize p = first; p <= last && p < pages_.size(); ++p) {
    if (pages_[p] || golden_[p].image) return false;
  }
  return true;
}

bool PagedStore::page_resident(usize page) const {
  return page < pages_.size() && pages_[page] != nullptr;
}

bool PagedStore::page_shared(usize page) const {
  return page < pages_.size() && pages_[page] &&
         pages_[page].use_count() > 1;
}

usize PagedStore::shared_pages() const {
  usize n = 0;
  for (usize p = 0; p < pages_.size(); ++p)
    if (page_shared(p)) ++n;
  return n;
}

bool PagedStore::verify_page(usize page) const {
  if (page >= pages_.size() || !pages_[page]) return true;
  return page_checksum(pages_[page]->words) == pages_[page]->checksum;
}

void PagedStore::corrupt_stored(usize idx, u32 mask) {
  const usize page = page_index_checked(idx, "corrupt");
  // The upset must not damage the shared golden copy other stores read from,
  // so split first — but keep the golden link: this divergence is exactly
  // what scrubbing exists to repair.
  PageData& p = materialize(page, /*preserve_golden=*/true);
  p.words[idx % kPageWords] ^= static_cast<bus::word>(mask);
}

bool PagedStore::page_has_golden(usize page) const {
  return page < pages_.size() && golden_[page].image != nullptr;
}

bool PagedStore::restore_from_golden(usize page) {
  if (!page_has_golden(page)) return false;
  revoke_pins(page);
  const GoldenRef& g = golden_[page];
  const PageRef& src = g.image->page(g.image_page);
  if (flat_) {
    PageData& p = materialize(page, /*preserve_golden=*/true);
    if (src) {
      p.words = src->words;
      p.checksum = src->checksum;
    } else {
      std::fill(p.words.begin(), p.words.end(), 0);
      p.checksum = PageData::zero_checksum();
    }
  } else {
    // Re-adopt the golden page (or its zero elision): the corrupt private
    // copy is released, which also credits its budget charge back.
    if (pages_[page] && !src) drop_resident();
    if (!pages_[page] && src) add_resident();
    pages_[page] = src;
  }
  verified_[page] = 1;
  ++stats_.golden_restores;
  return true;
}

bool PagedStore::scrub_page(usize page) {
  if (!page_resident(page)) return true;
  if (verify_page(page)) return true;
  ++stats_.checksum_failures;
  return restore_from_golden(page);
}

const bus::word* PagedStore::page_data(usize page) const {
  if (!page_resident(page)) return nullptr;
  return pages_[page]->words.data();
}

bus::word* PagedStore::page_data_mutable(usize page) {
  if (!page_resident(page) || pages_[page].use_count() > 1) return nullptr;
  return pages_[page]->words.data();
}

void PagedStore::pin_page(usize page) {
  if (page >= pinned_.size()) return;
  pinned_[page] = 1;
  any_pinned_ = true;
}

}  // namespace adriatic::mem
