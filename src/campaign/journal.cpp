#include "campaign/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "util/log.hpp"
#include "util/strings.hpp"

namespace adriatic::campaign {

namespace {

constexpr char kHeaderMagic[] = "J adriatic-campaign-journal v1";

[[nodiscard]] u64 parse_u64(const std::string& s, int base = 10) {
  return std::strtoull(s.c_str(), nullptr, base);
}

/// Decodes `key` if it is a kStatsGroups counter; other keys are ignored.
void decode_counter(JobStats& s, const std::string& key,
                    const std::string& val) {
  for (const StatsGroup& g : kStatsGroups) {
    for (const StatsField& f : g.fields) {
      if (key != f.journal_key) continue;
      s.*g.has = true;
      const u64 v = parse_u64(val, f.kind == StatsKind::kDigest ? 16 : 10);
      if (f.kind == StatsKind::kTime) f.of<kern::Time>(s) = kern::Time::ps(v);
      else if (f.kind == StatsKind::kMode) f.of<bool>(s) = val == "loose";
      else f.of<u64>(s) = v;
      return;
    }
  }
}

}  // namespace

u64 fnv1a(const std::string& s, u64 seed) {
  u64 h = seed;
  for (const char c : s) {
    h ^= static_cast<u8>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// Percent-encoding for string fields: keeps every token free of spaces and
// newlines so the line grammar stays splittable.
std::string encode_field(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (u <= 0x20 || u == 0x7F || c == '%') {
      out += strfmt("%%%02X", u);
    } else {
      out += c;
    }
  }
  return out;
}

std::string decode_field(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (usize i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      const std::string hex = s.substr(i + 1, 2);
      out += static_cast<char>(std::strtoul(hex.c_str(), nullptr, 16));
      i += 2;
    } else {
      out += s[i];
    }
  }
  return out;
}

std::string checksum_suffix(const std::string& content) {
  return strfmt(" cks=%016llx",
                static_cast<unsigned long long>(fnv1a(content)));
}

std::optional<std::string> strip_checksum(const std::string& line) {
  const usize pos = line.rfind(" cks=");
  if (pos == std::string::npos) return std::nullopt;
  const std::string content = line.substr(0, pos);
  if (line.substr(pos) != checksum_suffix(content)) return std::nullopt;
  return content;
}

LineWriter::~LineWriter() {
  sync();
  ::close(fd_);
}

std::optional<u64> LineWriter::append(const std::string& content) {
  const std::string line = content + checksum_suffix(content) + "\n";
  std::lock_guard<std::mutex> lk(mu_);
  usize off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(fd_, line.data() + off, line.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      log::error() << what_ << ": write failed on " << path_ << ": "
                   << std::strerror(errno);
      written_ += off;  // A torn tail: the checksum rejects it on read.
      return std::nullopt;
    }
    off += static_cast<usize>(n);
  }
  written_ += off;
  return written_;
}

bool LineWriter::sync() {
  u64 end = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    end = written_;
  }
  return sync(end);
}

bool LineWriter::sync(u64 end) {
  std::unique_lock<std::mutex> lk(mu_);
  // Follow an fsync in flight; it may already cover `end`.
  while (synced_ < end && syncing_) synced_cv_.wait(lk);
  if (synced_ >= end) return true;
  // Lead: one fsync outside the lock covers every line written so far, so
  // appends (and their own sync requests) queue behind the disk only once.
  syncing_ = true;
  const u64 target = written_;
  lk.unlock();
  const int rc = ::fsync(fd_);
  const int err = errno;
  lk.lock();
  syncing_ = false;
  if (rc == 0) synced_ = target;
  synced_cv_.notify_all();
  if (rc != 0) {
    log::error() << what_ << ": fsync failed on " << path_ << ": "
                 << std::strerror(err);
    return false;
  }
  return true;
}

u64 spec_hash(const std::string& label, u64 param_digest) {
  u64 h = fnv1a(label);
  for (u32 shift = 0; shift < 64; shift += 8) {
    h ^= (param_digest >> shift) & 0xFFu;
    h *= 1099511628211ULL;
  }
  return h;
}

std::unique_ptr<CampaignJournal> CampaignJournal::create(
    const std::string& path, const std::string& campaign) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    log::error() << "campaign journal: cannot create " << path;
    return nullptr;
  }
  auto journal =
      std::unique_ptr<CampaignJournal>(new CampaignJournal(fd, path));
  // A durable header keeps even an empty journal resumable.
  journal->append_line(std::string(kHeaderMagic) +
                           " name=" + encode_field(campaign),
                       true);
  return journal;
}

std::unique_ptr<CampaignJournal> CampaignJournal::append_to(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) {
    log::error() << "campaign journal: cannot open " << path;
    return nullptr;
  }
  return std::unique_ptr<CampaignJournal>(new CampaignJournal(fd, path));
}

void CampaignJournal::append_line(const std::string& content, bool durable) {
  const std::optional<u64> end = log_.append(content);
  // The write-ahead guarantee: a record the campaign acts on is on disk
  // before it does, so SIGKILL can lose at most lines nobody acted on yet
  // (a torn tail the checksum rejects on read).
  if (durable && end.has_value()) log_.sync(*end);
}

void CampaignJournal::record_planned(usize index, u64 spec,
                                     const std::string& label) {
  append_line(strfmt("P %zu %016llx ", index,
                     static_cast<unsigned long long>(spec)) +
                  encode_field(label),
              false);
}

void CampaignJournal::record_begun(usize index, u32 attempt) {
  append_line(strfmt("B %zu %u", index, attempt), false);
}

std::string journal_value(const JobStats& s, const StatsField& f) {
  if (f.kind == StatsKind::kMode) return f.of<bool>(s) ? "loose" : "timed";
  const u64 v = f.kind == StatsKind::kTime ? f.of<kern::Time>(s).picoseconds()
                                           : f.of<u64>(s);
  return strfmt(f.kind == StatsKind::kDigest ? "%016llx" : "%llu",
                static_cast<unsigned long long>(v));
}

std::string encode_job_stats(const JobStats& s) {
  std::string tail = "label=" + encode_field(s.label);
  tail += strfmt(" done=%d failed=%d quarantined=%d attempts=%u", s.done ? 1 : 0,
                 s.failed ? 1 : 0, s.quarantined ? 1 : 0, s.attempts);
  tail += strfmt(" wall=%.17g sim_ps=%llu deltas=%llu activations=%llu",
                 s.wall_seconds,
                 static_cast<unsigned long long>(s.sim_time.picoseconds()),
                 static_cast<unsigned long long>(s.delta_count),
                 static_cast<unsigned long long>(s.activations));
  tail += strfmt(" digest=%016llx", static_cast<unsigned long long>(s.digest));
  if (s.failed) tail += " error=" + encode_field(s.error);
  if (s.quarantined) tail += " qreason=" + encode_field(s.quarantine_reason);
  for (const StatsGroup& g : kStatsGroups) {
    if (!(s.*g.has)) continue;
    for (const StatsField& f : g.fields)
      tail.append(" ").append(f.journal_key).append("=").append(
          journal_value(s, f));
  }
  if (s.worker_deaths > 0)
    tail += strfmt(" deaths=%llu",
                   static_cast<unsigned long long>(s.worker_deaths));
  if (s.from_cache) tail += " cached=1";
  if (!s.user_data.empty()) tail += " udata=" + encode_field(s.user_data);
  return tail;
}

JobStats decode_job_stats(const std::string& tail) {
  JobStats s;
  for (const std::string& t : split(tail, ' ')) {
    const usize eq = t.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = t.substr(0, eq);
    const std::string val = t.substr(eq + 1);
    if (key == "label") s.label = decode_field(val);
    else if (key == "done") s.done = val == "1";
    else if (key == "failed") s.failed = val == "1";
    else if (key == "quarantined") s.quarantined = val == "1";
    else if (key == "attempts") s.attempts = static_cast<u32>(parse_u64(val));
    else if (key == "wall") s.wall_seconds = std::strtod(val.c_str(), nullptr);
    else if (key == "sim_ps") s.sim_time = kern::Time::ps(parse_u64(val));
    else if (key == "deltas") s.delta_count = parse_u64(val);
    else if (key == "activations") s.activations = parse_u64(val);
    else if (key == "digest") s.digest = parse_u64(val, 16);
    else if (key == "error") s.error = decode_field(val);
    else if (key == "qreason") s.quarantine_reason = decode_field(val);
    else if (key == "deaths") s.worker_deaths = parse_u64(val);
    else if (key == "cached") s.from_cache = val == "1";
    else if (key == "udata") s.user_data = decode_field(val);
    else decode_counter(s, key, val);
  }
  return s;
}

void CampaignJournal::record_done(const JobStats& s) {
  append_line(strfmt("D %zu ", s.index) + encode_job_stats(s), true);
}

void CampaignJournal::record_worker_death(usize index,
                                          const std::string& reason) {
  append_line(strfmt("X %zu ", index) + encode_field(reason), true);
}

void CampaignJournal::record_cache_hit(u64 spec) {
  append_line(strfmt("C %016llx", static_cast<unsigned long long>(spec)),
              false);
}

bool CampaignJournal::flush() { return log_.sync(); }

std::optional<JournalState> read_journal(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  JournalState state;
  std::string line;
  bool have_header = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto content = strip_checksum(line);
    if (!content.has_value()) {
      ++state.torn_lines;
      continue;
    }
    const std::vector<std::string> tok = split(*content, ' ');
    if (!have_header) {
      // The header must be the first intact line.
      if (tok.size() < 4 || tok[0] != "J" ||
          !starts_with(*content, kHeaderMagic) ||
          !starts_with(tok[3], "name="))
        return std::nullopt;
      state.campaign = decode_field(tok[3].substr(5));
      have_header = true;
      continue;
    }
    if (tok[0] == "P" && tok.size() >= 4) {
      JournalState::Planned p;
      p.spec = parse_u64(tok[2], 16);
      p.label = decode_field(tok[3]);
      state.planned[static_cast<usize>(parse_u64(tok[1]))] = std::move(p);
    } else if (tok[0] == "B" && tok.size() >= 3) {
      ++state.begun_records;
    } else if (tok[0] == "D" && tok.size() >= 2) {
      // The tail (everything after "D <index> ") round-trips through the
      // shared codec, the same one the worker socket and result cache use.
      usize tail_at = content->find(' ');
      if (tail_at != std::string::npos)
        tail_at = content->find(' ', tail_at + 1);
      JobStats s = decode_job_stats(
          tail_at == std::string::npos ? "" : content->substr(tail_at + 1));
      s.index = static_cast<usize>(parse_u64(tok[1]));
      // Last record per index wins; only done results count as completed —
      // a quarantined/interrupted D leaves the job eligible for re-run.
      if (s.done) {
        state.completed[s.index] = std::move(s);
      } else {
        state.completed.erase(s.index);
      }
    } else if (tok[0] == "X" && tok.size() >= 3) {
      state.worker_deaths.push_back(
          {static_cast<usize>(parse_u64(tok[1])), decode_field(tok[2])});
    } else if (tok[0] == "C" && tok.size() >= 2) {
      state.cache_hits.push_back(parse_u64(tok[1], 16));
    }
  }
  if (!have_header) return std::nullopt;
  return state;
}

}  // namespace adriatic::campaign
