#include "service/jobs.hpp"

#include <chrono>
#include <initializer_list>
#include <stdexcept>
#include <thread>

#include "accel/accel_lib.hpp"
#include "bus/bus_lib.hpp"
#include "campaign/journal.hpp"
#include "conformance/digest.hpp"
#include "conformance/migration_harness.hpp"
#include "drcf/drcf_lib.hpp"
#include "estimate/area.hpp"
#include "kernel/kernel.hpp"
#include "memory/memory.hpp"
#include "netlist/design.hpp"
#include "netlist/elaborate.hpp"
#include "transform/transform.hpp"
#include "util/random.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace adriatic::service {

using namespace kern::literals;

namespace {

/// Strict decimal u64 for ParamMap fields: a present-but-garbage value must
/// fail the builder, not silently become 0.
bool param_u64(const ParamMap& params, const std::string& key, u64& out) {
  const auto it = params.find(key);
  if (it == params.end()) return true;  // absent keeps the default
  const std::string& s = it->second;
  if (s.empty() || s.size() > 20) return false;
  u64 v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    const u64 next = v * 10 + static_cast<u64>(c - '0');
    if (next < v) return false;
    v = next;
  }
  out = v;
  return true;
}

bool param_u32(const ParamMap& params, const std::string& key, u32& out) {
  u64 v = out;
  if (!param_u64(params, key, v) || v > 0xffffffffULL) return false;
  out = static_cast<u32>(v);
  return true;
}

bool param_bool(const ParamMap& params, const std::string& key, bool& out) {
  const auto it = params.find(key);
  if (it == params.end()) return true;
  if (it->second == "1") out = true;
  else if (it->second == "0") out = false;
  else return false;
  return true;
}

/// Memory footprint of a job's model: resident pages across its stores and
/// how many of those alias interned golden pages; the peak is the job's own
/// (JobContext), the same in every execution mode.
void record_stores(campaign::JobContext& ctx,
                   std::initializer_list<const mem::Memory*> memories) {
  u64 pages = 0;
  u64 shared = 0;
  u64 splits = 0;
  for (const mem::Memory* m : memories) {
    pages += m->backing().resident_pages();
    shared += m->backing().shared_pages();
    splits += m->backing().stats().cow_splits;
  }
  ctx.record_memory(pages, splits, shared);
}

}  // namespace

// -- Fault-injection sweep point ---------------------------------------------

namespace {

constexpr int kFaultSteps = 24;
constexpr u64 kConfigWords = 64;
constexpr bus::addr_t kCfgBase = 0x10000;
constexpr bus::addr_t kCtxBase[2] = {0x100, 0x200};
constexpr u32 kCtxWords = 16;

}  // namespace

u64 fault_point_spec_hash(const FaultPointSpec& spec) {
  u64 p = static_cast<u64>(spec.policy);
  p = p * 1099511628211ULL + spec.rate_pct;
  p = p * 1099511628211ULL + spec.plan_seed;
  p = p * 1099511628211ULL + (spec.prefetch ? 1 : 0);
  return campaign::spec_hash(spec.label, p);
}

ParamMap fault_point_params(const FaultPointSpec& spec) {
  ParamMap p;
  p["policy"] = std::to_string(spec.policy);
  p["rate_pct"] = std::to_string(spec.rate_pct);
  p["plan_seed"] = std::to_string(spec.plan_seed);
  p["prefetch"] = spec.prefetch ? "1" : "0";
  if (spec.throttle_ms > 0) p["throttle_ms"] = std::to_string(spec.throttle_ms);
  return p;
}

std::optional<FaultPointSpec> fault_point_from_params(const std::string& label,
                                                      const ParamMap& params) {
  FaultPointSpec spec;
  spec.label = label;
  if (!param_u32(params, "policy", spec.policy) || spec.policy > 2 ||
      !param_u32(params, "rate_pct", spec.rate_pct) || spec.rate_pct > 100 ||
      !param_u64(params, "plan_seed", spec.plan_seed) ||
      !param_bool(params, "prefetch", spec.prefetch) ||
      !param_u32(params, "throttle_ms", spec.throttle_ms))
    return std::nullopt;
  return spec;
}

FaultPointOutcome run_fault_point(const FaultPointSpec& spec,
                                  campaign::JobContext* ctx) {
  FaultPointOutcome out;
  // Deliberate slow-down used by crash/signal tests to widen their race
  // windows; 0 (the default) skips it entirely.
  if (spec.throttle_ms > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(spec.throttle_ms));
  kern::Simulation sim;
  kern::Module top(sim, "top");

  bus::BusConfig bus_cfg;
  bus_cfg.cycle_time = 10_ns;
  bus_cfg.split_transactions = true;
  bus::Bus sys_bus(top, "bus", bus_cfg);
  mem::Memory cfg_mem(top, "cfg_mem", kCfgBase, 4096);
  mem::Memory ctx_mem0(top, "ctx_mem0", kCtxBase[0], kCtxWords);
  mem::Memory ctx_mem1(top, "ctx_mem1", kCtxBase[1], kCtxWords);

  drcf::DrcfConfig dc;
  dc.technology = drcf::varicore_like();
  dc.technology.per_switch_overhead = kern::Time::zero();
  dc.slots = 1;  // ping-pong => every step reconfigures
  dc.recovery.policy = static_cast<drcf::RecoveryPolicy>(spec.policy);
  dc.recovery.max_attempts = 4;
  dc.recovery.backoff = 50_ns;
  if (dc.recovery.policy == drcf::RecoveryPolicy::kFallbackContext)
    dc.recovery.fallback_context = 0;
  if (spec.prefetch) {
    dc.prefetch.policy = drcf::PrefetchPolicy::kHybrid;
    dc.prefetch.cache_slots = 2;
    dc.prefetch.static_next = {1, 0};  // the driver's ping-pong, exactly
  }
  if (spec.rate_pct > 0) {
    fault::FaultRule rule;
    rule.rate = spec.rate_pct / 100.0;
    rule.kind = fault::FaultKind::kError;
    rule.reads_only = true;
    dc.fetch_faults.seed = spec.plan_seed;
    dc.fetch_faults.rules.push_back(rule);
  }
  drcf::Drcf fabric(top, "drcf", dc);

  // Synthetic bitstreams + armed integrity check, as elaborate.cpp does it.
  // Each context's bitstream sits at a page-aligned offset (0 and 0x400 =
  // 1024 words), so the images intern once process-wide and every job in
  // the sweep shares the same two golden pages copy-on-write.
  for (usize c = 0; c < 2; ++c) {
    const bus::addr_t base = kCfgBase + static_cast<bus::addr_t>(c) * 0x400;
    const usize id = fabric.add_context(
        c == 0 ? static_cast<bus::BusSlaveIf&>(ctx_mem0) : ctx_mem1,
        {.config_address = base, .size_words = kConfigWords, .gates = 10'000});
    const std::vector<bus::word> bits(
        kConfigWords, static_cast<bus::word>(0xC0DE0000u | c));
    auto image = mem::ImageRegistry::instance().intern(bits);
    cfg_mem.attach_image(image, base);
    fabric.set_golden_bitstream(id, std::move(image));
  }
  fabric.mst_port.bind(sys_bus);
  sys_bus.bind_slave(cfg_mem);
  sys_bus.bind_slave(fabric);

  int ok_steps = 0;
  top.spawn_thread("driver", [&] {
    for (int i = 0; i < kFaultSteps; ++i) {
      const bus::addr_t base = kCtxBase[i % 2];
      const auto off = static_cast<bus::addr_t>(i % kCtxWords);
      bus::word v = static_cast<bus::word>(0x5000 + i);
      bus::word r = 0;
      if (sys_bus.write(base + off, &v) == bus::BusStatus::kOk &&
          sys_bus.read(base + off, &r) == bus::BusStatus::kOk)
        ++ok_steps;
    }
  });
  // The digest makes each job's schedule comparable across runs — it is what
  // --verify-resume checks a resumed sweep against.
  conformance::TraceDigest digest;
  sim.set_observer(&digest);
  if (ctx != nullptr) {
    // The guard is how the wall-clock watchdog and a SIGINT/SIGTERM
    // broadcast reach this job's kernel (request_stop()).
    const auto g = ctx->guard(sim);
    sim.run();
  } else {
    sim.run();
  }
  sim.set_observer(nullptr);

  const auto& fs = fabric.stats();
  const double availability = static_cast<double>(ok_steps) / kFaultSteps;
  out.row = {spec.label,
             Table::integer(ok_steps),
             Table::integer(static_cast<long long>(fs.fetch_errors)),
             Table::integer(static_cast<long long>(fs.fetch_retries)),
             Table::integer(static_cast<long long>(fs.fallback_forwards)),
             Table::integer(
                 static_cast<long long>(fabric.fault_ledger().injected_count())),
             Table::integer(static_cast<long long>(fs.cache_hits)),
             Table::num(availability, 3)};
  if (ctx != nullptr) {
    ctx->record(sim);
    ctx->record_digest(digest.value());
    ctx->record_faults(fs.fetch_errors, fabric.fault_ledger());
    ctx->record_prefetch(fs.prefetch_hits, fs.cache_hits,
                         fs.config_words_fetched, fs.hidden_latency);
    record_stores(*ctx, {&cfg_mem, &ctx_mem0, &ctx_mem1});
    // The table row rides JobStats::user_data through the worker socket, the
    // journal, the result cache and the service's RESULT frames, so jobs
    // that ran in another address space still print.
    ctx->record_user_data(join(out.row, "\t"));
  }
  out.ok = true;
  return out;
}

// -- DSE design point --------------------------------------------------------

namespace {

constexpr int kDseFrames = 4;

void run_accelerator(soc::Cpu& c, bus::addr_t base, bus::addr_t src,
                     bus::addr_t dst, u32 len) {
  c.write(base + soc::HwAccel::kSrc, static_cast<bus::word>(src));
  c.write(base + soc::HwAccel::kDst, static_cast<bus::word>(dst));
  c.write(base + soc::HwAccel::kLen, static_cast<bus::word>(len));
  c.write(base + soc::HwAccel::kCtrl, 1);
  c.poll_until(base + soc::HwAccel::kStatus, soc::HwAccel::kDone, 100_ns);
  c.write(base + soc::HwAccel::kStatus, 0);
}

netlist::Design make_dse_app(bool dedicated_cfg_link) {
  netlist::Design d;
  netlist::BusDecl bus_decl;
  bus_decl.config.cycle_time = 10_ns;
  d.add("system_bus", bus_decl);

  netlist::MemoryDecl ram;
  ram.low = 0x1000;
  ram.words = 0x8000;
  ram.bus = "system_bus";
  d.add("ram", ram);

  netlist::MemoryDecl cfg;
  cfg.low = 0x100000;
  cfg.words = 1u << 18;
  if (!dedicated_cfg_link) cfg.bus = "system_bus";
  d.add("cfg_mem", cfg);
  if (dedicated_cfg_link) {
    netlist::DirectLinkDecl link;
    link.word_time = 10_ns;
    link.slave = "cfg_mem";
    d.add("cfg_link", link);
  }

  const std::pair<const char*, accel::KernelSpec> kernels[] = {
      {"fir", accel::make_fir_spec(accel::fir_lowpass_taps(24))},
      {"fft", accel::make_fft_spec(64)},
      {"aes", accel::make_aes_spec(accel::AesKey{1, 2, 3})},
  };
  bus::addr_t base = 0x100;
  for (const auto& [name, spec] : kernels) {
    netlist::HwAccelDecl acc;
    acc.base = base;
    acc.spec = spec;
    acc.slave_bus = acc.master_bus = "system_bus";
    d.add(name, acc);
    base += 0x100;
  }

  netlist::ProcessorDecl cpu;
  cpu.master_bus = "system_bus";
  cpu.program = [](soc::Cpu& c) {
    Xoshiro256 rng(11);
    for (int f = 0; f < kDseFrames; ++f) {
      std::vector<bus::word> data(64);
      for (auto& v : data) v = static_cast<bus::word>(rng.next_range(0, 4095));
      c.burst_write(0x1000, data);
      run_accelerator(c, 0x100, 0x1000, 0x2000, 64);  // fir
      run_accelerator(c, 0x200, 0x2000, 0x3000, 64);  // fft
      run_accelerator(c, 0x300, 0x3000, 0x4000, 64);  // aes
      c.compute(300);
    }
  };
  d.add("cpu", cpu);
  return d;
}

drcf::ReconfigTechnology dse_technology(u32 index) {
  switch (index) {
    case 0: return drcf::virtex2pro_like();
    case 1: return drcf::varicore_like();
    default: return drcf::morphosys_like();
  }
}

std::vector<u64> dse_kernel_gates() {
  return {accel::make_fir_spec(accel::fir_lowpass_taps(24)).gate_count,
          accel::make_fft_spec(64).gate_count,
          accel::make_aes_spec(accel::AesKey{1, 2, 3}).gate_count};
}

void apply_timing(kern::Simulation& sim, bool loose, u32 quantum_ns) {
  sim.set_timing_mode(loose ? kern::TimingMode::kLoose
                            : kern::TimingMode::kTimed);
  if (quantum_ns != 0) sim.set_quantum(kern::Time::ns(quantum_ns));
}

}  // namespace

const char* dse_tech_name(u32 tech_index) {
  // Must match ReconfigTechnology::name (technology.cpp): labels built from
  // these feed dse_spec_hash, and a mismatch would orphan every journal and
  // cache entry written by earlier dse_explorer builds.
  switch (tech_index) {
    case 0: return "virtex2pro";
    case 1: return "varicore";
    default: return "morphosys";
  }
}

u64 dse_spec_hash(const std::string& label, bool loose, u32 quantum_ns) {
  u64 p = loose ? 1 : 0;
  p = p * 1099511628211ULL + quantum_ns;
  return campaign::spec_hash(label, p);
}

ParamMap dse_point_params(const DsePointSpec& spec) {
  ParamMap p;
  p["tech"] = std::to_string(spec.tech);
  p["slots"] = std::to_string(spec.slots);
  p["link"] = spec.dedicated_link ? "1" : "0";
  p["prefetch"] = spec.prefetch ? "1" : "0";
  p["loose"] = spec.loose ? "1" : "0";
  p["quantum_ns"] = std::to_string(spec.quantum_ns);
  return p;
}

std::optional<DsePointSpec> dse_point_from_params(const std::string& label,
                                                  const ParamMap& params) {
  DsePointSpec spec;
  spec.label = label;
  if (!param_u32(params, "tech", spec.tech) || spec.tech > 2 ||
      !param_u32(params, "slots", spec.slots) || spec.slots == 0 ||
      spec.slots > 8 || !param_bool(params, "link", spec.dedicated_link) ||
      !param_bool(params, "prefetch", spec.prefetch) ||
      !param_bool(params, "loose", spec.loose) ||
      !param_u32(params, "quantum_ns", spec.quantum_ns))
    return std::nullopt;
  return spec;
}

std::string pack_dse_outcome(const DseOutcome& out) {
  std::string s = join(out.row, "\t");
  s += '\x1e';
  s += out.point.label;
  for (const double v : out.point.objectives)
    s += '\x1f' + strfmt("%.17g", v);
  return s;
}

DseOutcome unpack_dse_outcome(const campaign::JobStats& stats) {
  DseOutcome out;
  if (!stats.done || stats.failed || stats.user_data.empty()) return out;
  const auto sep = stats.user_data.find('\x1e');
  if (sep == std::string::npos) return out;
  out.row = split(stats.user_data.substr(0, sep), '\t');
  const auto point = split(stats.user_data.substr(sep + 1), '\x1f');
  if (!point.empty()) out.point.label = point[0];
  for (usize i = 1; i < point.size(); ++i)
    out.point.objectives.push_back(std::strtod(point[i].c_str(), nullptr));
  out.ok = true;
  return out;
}

DseOutcome run_dse_point(const DsePointSpec& spec, campaign::JobContext* ctx) {
  DseOutcome out;
  auto d = make_dse_app(spec.dedicated_link);
  transform::TransformOptions opt;
  opt.drcf_config.technology = dse_technology(spec.tech);
  opt.drcf_config.slots = spec.slots;
  if (spec.prefetch) {
    opt.drcf_config.prefetch.policy = drcf::PrefetchPolicy::kHybrid;
    opt.drcf_config.prefetch.cache_slots = 2;
    for (u32 i = 0; i < 3; ++i)  // fir->fft->aes ring
      opt.drcf_config.prefetch.static_next.push_back((i + 1) % 3);
  }
  opt.config_memory = "cfg_mem";
  if (spec.dedicated_link) opt.config_bus = "cfg_link";
  const std::vector<std::string> candidates{"fir", "fft", "aes"};
  const auto report = transform::transform_to_drcf(d, candidates, opt);
  if (!report.ok) {
    out.error = "transform failed";
    return out;
  }
  kern::Simulation sim;
  apply_timing(sim, spec.loose, spec.quantum_ns);
  netlist::Elaborated e(sim, d);
  if (ctx != nullptr) {
    // The guard lets a SIGINT/SIGTERM broadcast (or wall-clock watchdog)
    // reach this job's kernel via request_stop().
    const auto g = ctx->guard(sim);
    sim.run();
  } else {
    sim.run();
  }
  if (ctx != nullptr) {
    ctx->record(sim);
    ctx->record_timing(sim);
    record_stores(*ctx, {&e.get_memory("ram"), &e.get_memory("cfg_mem")});
  }
  if (ctx != nullptr && ctx->interrupted()) {
    out.error = "interrupted";
    return out;
  }
  if (!e.get_processor("cpu").finished()) {
    out.error = "did not finish";
    return out;
  }
  const auto& fabric = e.get_drcf("drcf1");
  const auto& fs = fabric.stats();
  if (ctx != nullptr) ctx->record_faults(fs.fetch_errors, fabric.fault_ledger());
  if (ctx != nullptr)
    ctx->record_prefetch(fs.prefetch_hits, fs.cache_hits,
                         fs.config_words_fetched, fs.hidden_latency);
  const auto area = estimate::drcf_area(dse_kernel_gates(),
                                        dse_technology(spec.tech), spec.slots);
  const double time_us = sim.now().to_us();
  const double energy_uj = fs.reconfig_energy_j * 1e6;
  const double hidden_us = fs.hidden_latency.to_us();
  const double busy_us = fs.reconfig_busy_time.to_us();
  const double hide_pct =
      hidden_us + busy_us > 0 ? 100.0 * hidden_us / (hidden_us + busy_us) : 0.0;
  out.row = {spec.label, Table::num(time_us, 1),
             Table::integer(static_cast<long long>(fs.switches)),
             Table::integer(static_cast<long long>(fs.config_words_fetched)),
             Table::num(hidden_us, 2), Table::num(hide_pct, 1),
             Table::integer(
                 static_cast<long long>(area.total_gate_equivalents())),
             Table::num(energy_uj, 2)};
  // Fourth objective: inflexibility (0 = field-upgradable fabric, 1 =
  // frozen silicon) — the axis that motivates reconfigurable hardware in
  // the first place (paper Fig. 2). Fifth: fetched configuration bytes,
  // the config-memory bandwidth bill a prefetching scheduler can lower
  // (cache hits) or raise (mispredicted fills).
  out.point = {spec.label,
               {time_us, static_cast<double>(area.total_gate_equivalents()),
                energy_uj, 0.0,
                static_cast<double>(fs.config_words_fetched) *
                    sizeof(bus::word)}};
  out.ok = true;
  if (ctx != nullptr) ctx->record_user_data(pack_dse_outcome(out));
  return out;
}

DseOutcome run_dse_hardwired(bool loose, u32 quantum_ns,
                             campaign::JobContext* ctx) {
  DseOutcome out;
  auto d = make_dse_app(false);
  kern::Simulation sim;
  apply_timing(sim, loose, quantum_ns);
  netlist::Elaborated e(sim, d);
  if (ctx != nullptr) {
    const auto g = ctx->guard(sim);
    sim.run();
  } else {
    sim.run();
  }
  if (ctx != nullptr) {
    ctx->record(sim);
    ctx->record_timing(sim);
    record_stores(*ctx, {&e.get_memory("ram"), &e.get_memory("cfg_mem")});
  }
  if (ctx != nullptr && ctx->interrupted()) {
    out.error = "interrupted";
    return out;
  }
  const u64 hw_gates = estimate::hardwired_gates(dse_kernel_gates());
  out.row = {Table::num(sim.now().to_us(), 1)};
  out.point = {"hardwired",
               {sim.now().to_us(), static_cast<double>(hw_gates), 0.0, 1.0,
                0.0}};
  out.ok = true;
  if (ctx != nullptr) ctx->record_user_data(pack_dse_outcome(out));
  return out;
}

DseOutcome run_dse_migration_probe(bool loose, u32 quantum_ns,
                                   campaign::JobContext* ctx) {
  DseOutcome out;
  conformance::MigrationSpec spec;
  conformance::ScenarioOptions sopt;
  sopt.timing_mode = loose ? kern::TimingMode::kLoose : kern::TimingMode::kTimed;
  if (quantum_ns != 0) sopt.quantum = kern::Time::ns(quantum_ns);
  const auto r = conformance::run_migration(spec, sopt);
  if (ctx != nullptr) {
    ctx->record_digest(r.scenario.digest);
    ctx->record_migration(r.controller.migrations,
                          r.controller.state_words_moved,
                          r.controller.transfer_faults_recovered);
  }
  if (ctx != nullptr && ctx->interrupted()) {
    out.error = "interrupted";
    return out;
  }
  if (!r.cpu_finished || !r.migration.ok()) {
    out.error = "migration probe failed: " +
                std::string(soc::to_string(r.migration.status));
    return out;
  }
  out.row = {std::to_string(r.controller.migrations),
             std::to_string(r.controller.state_words_moved),
             std::to_string(r.controller.transfer_faults_recovered)};
  out.ok = true;
  if (ctx != nullptr) ctx->record_user_data(pack_dse_outcome(out));
  return out;
}

// -- Golden determinism job --------------------------------------------------

u64 golden_spec_hash(u64 seed) { return campaign::spec_hash("golden", seed); }

void run_golden(u64 seed, u32 throttle_ms, campaign::JobContext& ctx) {
  using kern::Time;
  if (throttle_ms > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(throttle_ms));
  Xoshiro256 rng(seed);
  kern::Simulation sim;
  kern::Module top(sim, "top");
  kern::Signal<u32> sig(top, "sig");
  u64 fold = 1469598103934665603ull;
  kern::SpawnOptions opts;
  opts.sensitivity = {&sig.value_changed_event()};
  opts.dont_initialize = true;
  top.spawn_method("obs", [&] {
    fold ^= sim.now().picoseconds() ^ (u64{sig.read()} << 32);
    fold *= 1099511628211ull;
  }, opts);
  top.spawn_thread("producer", [&] {
    for (int i = 0; i < 40; ++i) {
      kern::wait(Time::ns(1 + rng.next_below(9)));
      sig.write(static_cast<u32>(rng.next_below(1u << 30)));
    }
  });
  {
    const auto g = ctx.guard(sim);
    sim.run();
  }
  ctx.record(sim);
  ctx.record_digest(fold);
  ctx.record_user_data("fold\t" + std::to_string(fold));
}

// -- Kind registry -----------------------------------------------------------

namespace {

/// dse_hardwired / dse_migration_probe take only the timing axis.
bool dse_timing_from_params(const ParamMap& params, bool& loose,
                            u32& quantum_ns) {
  return param_bool(params, "loose", loose) &&
         param_u32(params, "quantum_ns", quantum_ns);
}

/// A failed dse body surfaces as a failed job (JobStats::error) rather than
/// a silently-empty result; an interrupted one returns quietly so the
/// runner's signal-stop quarantine stays in charge of the verdict.
void finish_dse(const DseOutcome& out) {
  if (!out.ok && out.error != "interrupted")
    throw std::runtime_error(out.error.empty() ? "dse job failed" : out.error);
}

}  // namespace

KindRegistry builtin_kinds() {
  KindRegistry kinds;
  kinds.emplace_back(
      "fault_point",
      [](const std::string& label, const ParamMap& params)
          -> std::optional<JobBody> {
        const auto spec = fault_point_from_params(label, params);
        if (!spec.has_value()) return std::nullopt;
        return JobBody{[spec = *spec](campaign::JobContext& ctx) {
          (void)run_fault_point(spec, &ctx);
        }};
      });
  kinds.emplace_back(
      "dse_point",
      [](const std::string& label, const ParamMap& params)
          -> std::optional<JobBody> {
        const auto spec = dse_point_from_params(label, params);
        if (!spec.has_value()) return std::nullopt;
        return JobBody{[spec = *spec](campaign::JobContext& ctx) {
          finish_dse(run_dse_point(spec, &ctx));
        }};
      });
  kinds.emplace_back(
      "dse_hardwired",
      [](const std::string&, const ParamMap& params)
          -> std::optional<JobBody> {
        bool loose = false;
        u32 quantum_ns = 0;
        if (!dse_timing_from_params(params, loose, quantum_ns))
          return std::nullopt;
        return JobBody{[loose, quantum_ns](campaign::JobContext& ctx) {
          finish_dse(run_dse_hardwired(loose, quantum_ns, &ctx));
        }};
      });
  kinds.emplace_back(
      "dse_migration_probe",
      [](const std::string&, const ParamMap& params)
          -> std::optional<JobBody> {
        bool loose = false;
        u32 quantum_ns = 0;
        if (!dse_timing_from_params(params, loose, quantum_ns))
          return std::nullopt;
        return JobBody{[loose, quantum_ns](campaign::JobContext& ctx) {
          finish_dse(run_dse_migration_probe(loose, quantum_ns, &ctx));
        }};
      });
  kinds.emplace_back(
      "golden",
      [](const std::string&, const ParamMap& params)
          -> std::optional<JobBody> {
        u64 seed = 0;
        u32 throttle_ms = 0;
        if (params.find("seed") == params.end() ||
            !param_u64(params, "seed", seed) ||
            !param_u32(params, "throttle_ms", throttle_ms))
          return std::nullopt;
        return JobBody{[seed, throttle_ms](campaign::JobContext& ctx) {
          run_golden(seed, throttle_ms, ctx);
        }};
      });
  return kinds;
}

campaign::KindResolver kind_resolver(KindRegistry kinds) {
  return [kinds = std::move(kinds)](const campaign::JobKind& kind,
                                    const std::string& label) {
    const JobBuilder* builder = find_kind(kinds, kind.name);
    if (builder == nullptr) return JobBody{};
    return (*builder)(label, decode_params(kind.params)).value_or(JobBody{});
  };
}

const JobBuilder* find_kind(const KindRegistry& kinds,
                            const std::string& name) {
  for (const auto& [kind, builder] : kinds)
    if (kind == name) return &builder;
  return nullptr;
}

campaign::JobOptions job_policy() {
  campaign::JobOptions o;
  o.max_attempts = 2;
  o.wall_timeout_seconds = 60.0;
  o.heartbeat_timeout_seconds = 10.0;
  return o;
}

}  // namespace adriatic::service
