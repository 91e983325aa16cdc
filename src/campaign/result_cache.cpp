#include "campaign/result_cache.hpp"

#include <fcntl.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "campaign/journal.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace adriatic::campaign {

namespace {

constexpr char kCacheHeader[] = "R adriatic-result-cache v1";
constexpr char kEntryVersion[] = "v1";

}  // namespace

std::unique_ptr<ResultCache> ResultCache::open(const std::string& path) {
  std::string text;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      text = ss.str();
    }
  }

  bool header_ok = false;
  if (!text.empty()) {
    const usize eol = text.find('\n');
    const std::string first = text.substr(0, eol);
    const auto content = strip_checksum(first);
    header_ok = content.has_value() && *content == kCacheHeader;
  }

  int fd = -1;
  if (header_ok) {
    fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  } else {
    // Missing or with an unreadable header: (re)create. A cache whose
    // header cannot be verified is worthless — every entry is suspect.
    if (!text.empty())
      log::warn() << "result cache: resetting " << path
                  << " (unreadable header)";
    fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    text.clear();
  }
  if (fd < 0) {
    log::error() << "result cache: cannot open " << path;
    return nullptr;
  }

  auto cache = std::unique_ptr<ResultCache>(new ResultCache(fd, path));
  if (header_ok) {
    cache->load(text);
  } else {
    const std::optional<u64> end = cache->log_.append(kCacheHeader);
    if (!end.has_value() || !cache->log_.sync(*end)) return nullptr;
  }
  return cache;
}

void ResultCache::load(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto content = strip_checksum(line);
    if (first) {
      first = false;
      continue;  // Header already verified by open().
    }
    if (!content.has_value()) {
      ++dropped_;  // Torn tail write or bit rot — a miss, not a hazard.
      continue;
    }
    // E <spec_hex> v1 <tail...>
    const std::vector<std::string> tok = split(*content, ' ');
    if (tok.size() < 4 || tok[0] != "E") {
      ++dropped_;
      continue;
    }
    if (tok[2] != kEntryVersion) {
      ++dropped_;  // Stale schema: never decode across entry versions.
      continue;
    }
    usize tail_at = content->find(' ');
    for (int skip = 0; skip < 2 && tail_at != std::string::npos; ++skip)
      tail_at = content->find(' ', tail_at + 1);
    if (tail_at == std::string::npos) {
      ++dropped_;
      continue;
    }
    const u64 spec = std::strtoull(tok[1].c_str(), nullptr, 16);
    entries_[spec] = content->substr(tail_at + 1);  // Last entry wins.
  }
}

std::optional<JobStats> ResultCache::lookup(u64 spec) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = entries_.find(spec);
  if (it == entries_.end()) return std::nullopt;
  return decode_job_stats(it->second);
}

void ResultCache::store(u64 spec, const JobStats& stats) {
  if (!stats.done || stats.failed || stats.quarantined || stats.from_cache)
    return;
  std::string tail = encode_job_stats(stats);
  if (!log_.append(strfmt("E %016llx %s ",
                          static_cast<unsigned long long>(spec),
                          kEntryVersion) +
                   tail))
    return;
  std::lock_guard<std::mutex> lk(mu_);
  entries_[spec] = std::move(tail);
}

bool ResultCache::flush() { return log_.sync(); }

usize ResultCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.size();
}

}  // namespace adriatic::campaign
