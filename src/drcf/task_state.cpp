#include "drcf/task_state.hpp"

#include "util/fnv.hpp"

namespace adriatic::drcf {

const char* to_string(RestoreError error) {
  switch (error) {
    case RestoreError::kNone:
      return "none";
    case RestoreError::kBadHeader:
      return "bad_header";
    case RestoreError::kDigestMismatch:
      return "digest_mismatch";
    case RestoreError::kTruncatedImage:
      return "truncated_image";
    case RestoreError::kGeometryMismatch:
      return "geometry_mismatch";
    case RestoreError::kUnknownContext:
      return "unknown_context";
    case RestoreError::kBusyContext:
      return "busy_context";
  }
  return "?";
}

namespace {

constexpr i32 lo_word(u64 v) noexcept {
  return static_cast<i32>(static_cast<u32>(v & 0xFFFFFFFFu));
}
constexpr i32 hi_word(u64 v) noexcept {
  return static_cast<i32>(static_cast<u32>(v >> 32));
}
constexpr u64 join_words(i32 lo, i32 hi) noexcept {
  return static_cast<u64>(static_cast<u32>(lo)) |
         (static_cast<u64>(static_cast<u32>(hi)) << 32);
}

}  // namespace

u64 TaskState::image_digest() const noexcept { return fnv1a_words(image); }

std::vector<i32> TaskState::to_words() const {
  std::vector<i32> words;
  words.reserve(kHeaderWords + image.size());
  words.push_back(kMagic);
  words.push_back(static_cast<i32>(static_cast<u32>(context_id)));
  words.push_back(lo_word(config_digest));
  words.push_back(hi_word(config_digest));
  words.push_back(static_cast<i32>(window_words));
  words.push_back(lo_word(progress_cursor));
  words.push_back(hi_word(progress_cursor));
  const u64 idig = image_digest();
  words.push_back(lo_word(idig));
  words.push_back(hi_word(idig));
  words.insert(words.end(), image.begin(), image.end());
  return words;
}

RestoreError TaskState::parse(std::span<const i32> words, TaskState* out) {
  if (words.size() < kHeaderWords || words[0] != kMagic)
    return RestoreError::kBadHeader;
  TaskState s;
  s.context_id = static_cast<usize>(static_cast<u32>(words[1]));
  s.config_digest = join_words(words[2], words[3]);
  s.window_words = static_cast<u32>(words[4]);
  s.progress_cursor = join_words(words[5], words[6]);
  const u64 carried_digest = join_words(words[7], words[8]);
  if (words.size() - kHeaderWords < s.window_words)
    return RestoreError::kTruncatedImage;
  s.image.assign(words.begin() + kHeaderWords,
                 words.begin() + kHeaderWords + s.window_words);
  if (s.image_digest() != carried_digest) return RestoreError::kDigestMismatch;
  if (out != nullptr) *out = std::move(s);
  return RestoreError::kNone;
}

}  // namespace adriatic::drcf
