// Crash-safe campaign journaling: a write-ahead journal that survives
// SIGKILL mid-sweep. Every planned job, begun attempt, and completed result
// is an append-only line with a per-line checksum (torn tail writes from a
// crash are detected and dropped on read). Only the records a campaign acts
// on wait for durability: record_done (D) and record_worker_death (X) return
// once an fsync covers their line, so a result is on disk before it is
// committed, reported or cached. P, B and C lines are written but not
// synced; the file is append-only, so the next D/X fsync (or flush())
// covers them too. Concurrent D/X appends share one fsync (group commit).
// A killed campaign resumes with `--resume <journal>`: completed JobStats
// are restored verbatim from their `D` records, only unfinished/quarantined
// jobs re-run, and the journaled scheduler-trace digests let the resumed
// results be verified against the original run.
//
// Line grammar (space-separated tokens, strings percent-encoded):
//   J adriatic-campaign-journal v1 name=<campaign>
//   P <index> <spec_hash_hex> <label>       -- job planned
//   B <index> <attempt>                     -- attempt begun
//   D <index> key=value ...                 -- result (full JobStats)
//   X <index> <reason>                      -- worker child died (process
//                                              mode: crash/timeout kill)
//   C <spec_hash_hex>                       -- job served from result cache
// Every line ends with ` cks=<fnv1a_hex>` over the preceding content. The
// last D record per index wins; a D with done=0 (quarantined/interrupted)
// leaves the job eligible for re-run.
#pragma once

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "util/types.hpp"

namespace adriatic::campaign {

/// Identity of one planned job: FNV-1a over the label folded with a
/// caller-supplied parameter digest. Resume refuses to reuse a journal whose
/// planned specs do not match the jobs the tool is about to run.
[[nodiscard]] u64 spec_hash(const std::string& label, u64 param_digest = 0);

// -- Wire helpers ------------------------------------------------------------
// Shared by the journal, the process-worker pipe frames (worker_pool.cpp)
// and the result cache (result_cache.cpp), so every JobStats restore path —
// journal resume, child-to-parent pipe, warm cache — deserialises the exact
// same byte layout.

[[nodiscard]] u64 fnv1a(const std::string& s,
                        u64 seed = 14695981039346656037ULL);
/// Percent-encodes control bytes, space, DEL and '%' so a string field stays
/// one splittable token.
[[nodiscard]] std::string encode_field(const std::string& s);
[[nodiscard]] std::string decode_field(const std::string& s);
/// " cks=<fnv1a_hex>" over `content`; appended to every journal/cache line.
[[nodiscard]] std::string checksum_suffix(const std::string& content);
/// Splits "content cks=hex" and verifies; nullopt on mismatch (torn line).
[[nodiscard]] std::optional<std::string> strip_checksum(
    const std::string& line);

/// Serialises every populated JobStats field as the `key=value ...` tail of
/// a D record (everything after "D <index>"). Field order is fixed and
/// optional blocks are emitted only when their has_* flag (or a non-default
/// value) is set, so encoding the same stats twice is byte-identical.
[[nodiscard]] std::string encode_job_stats(const JobStats& s);
/// Parses an encode_job_stats() tail; absent keys keep their defaults and
/// unknown keys are ignored (stale-schema tolerance). `index` is not part
/// of the tail — callers carry it beside the payload.
[[nodiscard]] JobStats decode_job_stats(const std::string& tail);

/// The append-only file behind the journal and the result cache. append()
/// writes one checksummed line with write(2) under the mutex; sync() makes
/// lines durable by leader/follower group commit: the first caller whose
/// lines are not yet synced fsyncs everything written so far outside the
/// lock, and callers arriving meanwhile wait for that fsync (or lead the
/// next one if their lines came after it started).
class LineWriter {
 public:
  /// Takes ownership of `fd`; `what` prefixes log lines ("campaign journal").
  LineWriter(int fd, std::string path, const char* what)
      : fd_(fd), path_(std::move(path)), what_(what) {}
  /// Syncs what is still unsynced, then closes the file.
  ~LineWriter();

  LineWriter(const LineWriter&) = delete;
  LineWriter& operator=(const LineWriter&) = delete;

  /// Writes `content` + checksum_suffix + newline. Returns the byte count
  /// written through this writer up to the end of the line (the argument
  /// sync() takes), or nullopt when the write failed (logged).
  std::optional<u64> append(const std::string& content);
  /// Returns once every byte up to `end` is fsync'd. False when an fsync
  /// failed (logged); a failed fsync never counts its range as synced.
  bool sync(u64 end);
  /// sync() of everything appended so far.
  bool sync();

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::mutex mu_;
  std::condition_variable synced_cv_;
  int fd_ = -1;
  std::string path_;
  const char* what_;
  u64 written_ = 0;  ///< Bytes written through this writer.
  u64 synced_ = 0;   ///< Prefix of written_ an fsync has covered.
  bool syncing_ = false;  ///< A leader's fsync is in flight.
};

class CampaignJournal {
 public:
  /// Creates (truncates) `path` and writes the header. Null on I/O error.
  static std::unique_ptr<CampaignJournal> create(const std::string& path,
                                                 const std::string& campaign);
  /// Opens an existing journal for appending (resume). Null on I/O error.
  static std::unique_ptr<CampaignJournal> append_to(const std::string& path);

  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;

  /// Written, not synced.
  void record_planned(usize index, u64 spec, const std::string& label);
  /// Written, not synced.
  void record_begun(usize index, u32 attempt);
  /// Returns once the record is durable (the write-ahead point).
  void record_done(const JobStats& stats);
  /// Process mode: a forked worker child died without a result (crash,
  /// timeout kill, heartbeat kill); `reason` is WorkerFailure::reason().
  /// Returns once the record is durable.
  void record_worker_death(usize index, const std::string& reason);
  /// The job keyed by `spec` was served from the result cache. Written, not
  /// synced.
  void record_cache_hit(u64 spec);
  /// Makes every record written so far durable (one group-commit fsync at
  /// most): after planning, and before a graceful exit. False when the
  /// fsync failed (logged).
  bool flush();

  [[nodiscard]] const std::string& path() const noexcept {
    return log_.path();
  }

 private:
  CampaignJournal(int fd, std::string path)
      : log_(fd, std::move(path), "campaign journal") {}
  /// Appends `content` + checksum + newline; with `durable`, returns only
  /// once an fsync covers the line.
  void append_line(const std::string& content, bool durable);

  LineWriter log_;
};

/// Everything a resume needs from a journal read-back.
struct JournalState {
  std::string campaign;
  struct Planned {
    u64 spec = 0;
    std::string label;
  };
  std::map<usize, Planned> planned;
  /// Jobs whose latest D record has done == true, restored verbatim.
  std::map<usize, JobStats> completed;
  usize begun_records = 0;  ///< B lines seen (attempts started pre-crash).
  usize torn_lines = 0;     ///< Lines dropped by the checksum (torn writes).
  struct WorkerDeath {
    usize index = 0;
    std::string reason;
  };
  std::vector<WorkerDeath> worker_deaths;  ///< X lines, in journal order.
  std::vector<u64> cache_hits;             ///< C lines (spec hashes).
};

/// Reads a journal back; nullopt when the file is missing or its header is
/// unreadable. Checksum-failing lines are dropped (counted in torn_lines),
/// so a journal truncated mid-append by SIGKILL still loads.
[[nodiscard]] std::optional<JournalState> read_journal(
    const std::string& path);

}  // namespace adriatic::campaign
