#include "expected.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "campaign/journal.hpp"

namespace perfbench {

using adriatic::u64;
using adriatic::usize;

Outcome outcome_of(const std::string& workload, const std::string& key,
                   const adriatic::campaign::JobStats& stats) {
  Outcome o;
  o.workload = workload;
  o.key = key;
  o.sim_ps = stats.sim_time.picoseconds();
  o.activations = stats.activations;
  o.delta_cycles = stats.delta_count;
  o.digest = stats.digest;
  o.fault_digest = stats.fault_digest;
  o.user_data_hash = adriatic::campaign::fnv1a(stats.user_data);
  return o;
}

std::string to_line(const Outcome& o) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                " %" PRIu64 " %" PRIu64 " %" PRIu64 " %016" PRIx64
                " %016" PRIx64 " %016" PRIx64,
                o.sim_ps, o.activations, o.delta_cycles, o.digest,
                o.fault_digest, o.user_data_hash);
  return o.workload + ' ' + o.key + buf;
}

std::string describe_mismatch(const Outcome& want, const Outcome& got) {
  const auto field = [](const char* name, u64 w, u64 g) {
    return std::string(name) + " expected " + std::to_string(w) + " got " +
           std::to_string(g);
  };
  if (want.sim_ps != got.sim_ps)
    return field("sim_ps", want.sim_ps, got.sim_ps);
  if (want.activations != got.activations)
    return field("activations", want.activations, got.activations);
  if (want.delta_cycles != got.delta_cycles)
    return field("delta_cycles", want.delta_cycles, got.delta_cycles);
  if (want.digest != got.digest)
    return field("digest", want.digest, got.digest);
  if (want.fault_digest != got.fault_digest)
    return field("fault_digest", want.fault_digest, got.fault_digest);
  if (want.user_data_hash != got.user_data_hash)
    return field("user_data_hash", want.user_data_hash, got.user_data_hash);
  return "identical";
}

bool ExpectedResults::load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read expected results '" + path + "'";
    return false;
  }
  std::string line;
  usize lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    Outcome o;
    std::string digest, fault, udata;
    const auto hex = [](const std::string& s, u64& out) {
      char* end = nullptr;
      out = std::strtoull(s.c_str(), &end, 16);
      return !s.empty() && *end == '\0';
    };
    if (!(ss >> o.workload >> o.key >> o.sim_ps >> o.activations >>
          o.delta_cycles >> digest >> fault >> udata) ||
        !hex(digest, o.digest) || !hex(fault, o.fault_digest) ||
        !hex(udata, o.user_data_hash)) {
      *error = path + ":" + std::to_string(lineno) + ": malformed line";
      return false;
    }
    entries_[o.workload + ' ' + o.key] = o;
  }
  return true;
}

const Outcome* ExpectedResults::find(const std::string& workload,
                                     const std::string& key) const {
  const auto it = entries_.find(workload + ' ' + key);
  return it == entries_.end() ? nullptr : &it->second;
}

}  // namespace perfbench
