// Wire protocol for the campaign simulation service (campaignd).
//
// The socket carries newline-framed text lines built from the campaign
// journal's wire helpers, so there is exactly one way any adriatic component
// serialises a JobStats or a string field — journal D records, worker socket
// 'R' frames, result-cache E lines and service frames all share the codec in
// campaign/journal.hpp.
//
// Line grammar (one request or response per line):
//   <VERB> v1 key=value key=value ... cks=<fnv1a_hex>\n
// Values are percent-encoded (journal encode_field), so every token stays
// free of spaces/newlines; ` cks=` is the journal's checksum_suffix over the
// preceding content. A line longer than kMaxLineBytes is a framing
// violation.
//
// Requests (client -> server):
//   SUBMIT v1 id=<dec> spec=<hex16> kind=<enc> label=<enc> params=<enc>
//   WATCH  v1 id=<dec>                -- subscribe to every finished result
//   STATS  v1 id=<dec>                -- server counters snapshot
//   DRAIN  v1 id=<dec>                -- reply once no job is in flight
// `params` is an encode_params() map (the job kind's constructor inputs);
// `spec` is the journal's spec_hash identity used for dedup and journaling.
//
// Responses (server -> client):
//   OK      v1 id=<dec> index=<dec> cached=<0|1>
//   RESULT  v1 id=<dec> spec=<hex16> index=<dec> stats=<enc tail>
//   ERROR   v1 id=<dec> code=<token> detail=<enc>
//   STATS   v1 id=<dec> requests=... dedup_hits=... ...
//   DRAINED v1 id=<dec>
// `stats` is the journal's encode_job_stats() tail, percent-encoded as one
// field; a cache-served result carries cached=1 inside the tail
// (JobStats::from_cache) and never touched a worker.
//
// Error handling mirrors worker_pool's FrameDecoder: framing violations
// (torn line, bad checksum, oversize frame) latch the parser — bytes past
// the violation cannot be trusted, so the connection is declared dead after
// one structured ERROR frame. Semantic violations (unknown verb, stale
// version, duplicate request id, bad request, unknown kind) are answered
// with an ERROR frame and the connection keeps serving. Nothing is ever
// silently dropped.
#pragma once

#include <optional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "util/types.hpp"

namespace adriatic::service {

inline constexpr char kProtocolVersion[] = "v1";
/// Upper bound on one line (request or response) including its checksum; a
/// longer line means the stream is corrupt or hostile, not that a giant
/// allocation is pending.
inline constexpr usize kMaxLineBytes = 1u << 20;

// -- Structured errors -------------------------------------------------------

enum class ErrorCode {
  kTornLine,      ///< Line has no ` cks=` suffix (torn mid-write).
  kBadChecksum,   ///< Suffix present but does not match the content.
  kOversizeFrame, ///< Line exceeds kMaxLineBytes before its newline.
  kUnknownVerb,   ///< First token is not a known request/response verb.
  kStaleVersion,  ///< Version token is not kProtocolVersion.
  kDuplicateId,   ///< Request id already used on this connection.
  kBadRequest,    ///< Missing or malformed fields.
  kUnknownKind,   ///< SUBMIT kind has no registered job builder.
  kShutdown,      ///< Server is stopping; the request was not accepted.
};

/// Stable wire token for `code=` fields ("torn-line", "bad-checksum", ...).
[[nodiscard]] const char* error_code_name(ErrorCode code) noexcept;
[[nodiscard]] std::optional<ErrorCode> parse_error_code(const std::string& s);

/// True for the framing violations that latch a parser (the stream past the
/// violation is untrustworthy); false for semantic errors the connection
/// survives.
[[nodiscard]] constexpr bool is_fatal(ErrorCode code) noexcept {
  return code == ErrorCode::kTornLine || code == ErrorCode::kBadChecksum ||
         code == ErrorCode::kOversizeFrame;
}

struct WireError {
  ErrorCode code = ErrorCode::kBadRequest;
  std::string detail;
};

// -- Line codec --------------------------------------------------------------

/// One decoded protocol line: the verb plus ordered key=value fields
/// (values already percent-decoded).
struct WireLine {
  std::string verb;
  std::vector<std::pair<std::string, std::string>> fields;

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  void add(std::string key, std::string value) {
    fields.emplace_back(std::move(key), std::move(value));
  }
};

/// Serialises a line: "<verb> v1 k=enc(v) ..." + checksum suffix + '\n'.
[[nodiscard]] std::string encode_wire_line(const WireLine& line);

/// Exactly one of `line` / `error` is set.
struct WireEvent {
  std::optional<WireLine> line;
  std::optional<WireError> error;
};

/// Parses one newline-stripped raw line: checksum verification (torn-line /
/// bad-checksum), version check (stale-version), field splitting
/// (bad-request). Verb validity is the request/response layer's business.
[[nodiscard]] WireEvent parse_wire_line(const std::string& raw);

/// Incremental line parser fed from read() chunks, modeled on worker_pool's
/// FrameDecoder: next() yields one event per complete line; a framing
/// violation (torn line, bad checksum, oversize) is reported once and then
/// latches fatal() — the stream is unrecoverable past it. Blank lines are
/// ignored (keepalive). Feeding arbitrary bytes is safe: every complete line
/// yields exactly one event (a parsed line or a typed error), never a crash
/// or a silent drop.
class LineParser {
 public:
  void feed(const char* data, usize n) {
    if (!fatal_) buf_.append(data, n);
  }
  [[nodiscard]] std::optional<WireEvent> next();
  [[nodiscard]] bool fatal() const noexcept { return fatal_; }

 private:
  std::string buf_;
  bool fatal_ = false;
};

// -- Job parameter maps ------------------------------------------------------

/// Key->value job parameters, serialised deterministically (std::map order)
/// as "k=enc(v) k=enc(v)" and carried inside a SUBMIT's single `params`
/// field (the whole string is percent-encoded again at the line layer).
using ParamMap = std::map<std::string, std::string>;

[[nodiscard]] std::string encode_params(const ParamMap& params);
[[nodiscard]] ParamMap decode_params(const std::string& encoded);

// -- Requests ----------------------------------------------------------------

enum class Verb { kSubmit, kWatch, kStats, kDrain };

struct Request {
  Verb verb = Verb::kStats;
  u64 id = 0;  ///< Client-chosen, nonzero, unique per connection.
  // SUBMIT only:
  u64 spec = 0;        ///< spec_hash identity (dedup + journal key).
  std::string kind;    ///< Registered job-builder name.
  std::string label;   ///< Job label (journal P record, JobStats::label).
  std::string params;  ///< encode_params() payload for the builder.
};

[[nodiscard]] std::string encode_request(const Request& req);

/// Exactly one of `request` / `error` is set.
struct RequestEvent {
  std::optional<Request> request;
  std::optional<WireError> error;
};

/// WireLine -> Request (unknown-verb / bad-request on violation). Duplicate
/// id detection is connection state, handled above this layer.
[[nodiscard]] RequestEvent to_request(const WireLine& line);

// -- Responses ---------------------------------------------------------------

enum class ResponseType { kOk, kResult, kError, kStats, kDrained };

struct Response {
  ResponseType type = ResponseType::kOk;
  u64 id = 0;
  // kOk / kResult:
  u64 index = 0;        ///< Server-side campaign index.
  bool cached = false;  ///< kOk: the result will come from the cache.
  // kResult:
  u64 spec = 0;
  campaign::JobStats stats;
  // kError:
  ErrorCode code = ErrorCode::kBadRequest;
  std::string detail;
  // kStats: raw counter fields, in wire order.
  std::vector<std::pair<std::string, std::string>> fields;
};

[[nodiscard]] std::string encode_ok(u64 id, u64 index, bool cached);
[[nodiscard]] std::string encode_result(u64 id, u64 spec,
                                        const campaign::JobStats& stats);
[[nodiscard]] std::string encode_error(u64 id, ErrorCode code,
                                       const std::string& detail);
[[nodiscard]] std::string encode_stats_reply(
    u64 id, const std::vector<std::pair<std::string, std::string>>& fields);
[[nodiscard]] std::string encode_drained(u64 id);

/// Exactly one of `response` / `error` is set.
struct ResponseEvent {
  std::optional<Response> response;
  std::optional<WireError> error;
};

[[nodiscard]] ResponseEvent to_response(const WireLine& line);

// -- Socket helper -----------------------------------------------------------

/// write() the whole buffer, retrying on EINTR/short writes. One call per
/// frame (under the connection's write lock) keeps frames atomic on the
/// wire. Returns false on a hard error (EPIPE, closed fd).
bool write_all(int fd, const std::string& data);

}  // namespace adriatic::service
