// Expected-results file: the simulated outcome of every job of the default
// seed, one line per job. The model is not validated against hardware, so
// the benchmark does not score accuracy; it checks that the simulated
// statistics repeat exactly.
//
// Line format (space separated, '#' starts a comment line):
//   <workload> <key> <sim_ps> <activations> <delta_cycles> <digest_hex>
//       <fault_digest_hex> <user_data_fnv_hex>
#pragma once

#include <map>
#include <optional>
#include <string>

#include "campaign/campaign.hpp"
#include "util/types.hpp"

namespace perfbench {

/// The fields of a JobStats that a simulator-only change must leave alone.
/// Host-side fields (wall time, attempts, cache flags, process-wide memory
/// peaks) are deliberately absent.
struct Outcome {
  std::string workload;
  std::string key;
  adriatic::u64 sim_ps = 0;
  adriatic::u64 activations = 0;
  adriatic::u64 delta_cycles = 0;
  adriatic::u64 digest = 0;
  adriatic::u64 fault_digest = 0;
  adriatic::u64 user_data_hash = 0;

  bool operator==(const Outcome&) const = default;
};

[[nodiscard]] Outcome outcome_of(const std::string& workload,
                                 const std::string& key,
                                 const adriatic::campaign::JobStats& stats);
[[nodiscard]] std::string to_line(const Outcome& o);
/// Names the first field where `got` differs from `want`.
[[nodiscard]] std::string describe_mismatch(const Outcome& want,
                                            const Outcome& got);

class ExpectedResults {
 public:
  /// Loads `path`; false (with `error` set) when unreadable or malformed.
  bool load(const std::string& path, std::string* error);
  [[nodiscard]] const Outcome* find(const std::string& workload,
                                    const std::string& key) const;

 private:
  std::map<std::string, Outcome> entries_;  ///< "<workload> <key>" -> outcome.
};

}  // namespace perfbench
