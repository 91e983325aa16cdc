#include "netlist/report.hpp"

#include <ostream>

#include "util/strings.hpp"
#include "util/table.hpp"

namespace adriatic::netlist {

SystemReport::SystemReport(const Design& design, const Elaborated& system)
    : design_(&design), system_(&system) {}

void SystemReport::print(std::ostream& os) const {
  const auto now = system_->top().sim().now();
  os << "=== system report @ " << now.str() << " ===\n";

  Table buses("buses");
  buses.header({"name", "reads", "writes", "beats", "bursts", "unmapped",
                "errors", "utilization", "arb waits"});
  Table mems("memories");
  mems.header({"name", "words", "reads", "writes", "errors"});
  Table accs("accelerators");
  accs.header({"name", "kernel", "invocations", "words in", "words out",
               "compute time"});
  Table cpus("processors");
  cpus.header({"name", "instructions", "bus reads", "bus writes",
               "compute time", "finished"});
  Table drcfs("DRCFs");
  drcfs.header({"name", "contexts", "switches", "hits", "misses",
                "config words", "fetch errors", "reconfig time",
                "reconfig energy [uJ]"});

  for (const auto& name : design_->names()) {
    const Decl& d = design_->at(name);
    if (std::holds_alternative<BusDecl>(d)) {
      const auto& b = system_->get_bus(name);
      const auto& s = b.stats();
      buses.row({name, Table::integer(static_cast<long long>(s.reads)),
                 Table::integer(static_cast<long long>(s.writes)),
                 Table::integer(static_cast<long long>(s.beats)),
                 Table::integer(static_cast<long long>(s.bursts)),
                 Table::integer(static_cast<long long>(s.unmapped)),
                 Table::integer(static_cast<long long>(s.slave_errors)),
                 Table::num(b.utilization(), 3),
                 Table::integer(
                     static_cast<long long>(b.arbiter().contended_grants()))});
    } else if (std::holds_alternative<MemoryDecl>(d)) {
      const auto& m = system_->get_memory(name);
      mems.row({name, Table::integer(static_cast<long long>(m.size_words())),
                Table::integer(static_cast<long long>(m.stats().reads)),
                Table::integer(static_cast<long long>(m.stats().writes)),
                Table::integer(static_cast<long long>(m.stats().errors))});
    } else if (std::holds_alternative<HwAccelDecl>(d)) {
      const auto& a = system_->get_hwacc(name);
      accs.row({name, a.spec().name,
                Table::integer(static_cast<long long>(a.stats().invocations)),
                Table::integer(static_cast<long long>(a.stats().words_in)),
                Table::integer(static_cast<long long>(a.stats().words_out)),
                a.stats().compute_time.str()});
    } else if (std::holds_alternative<ProcessorDecl>(d)) {
      const auto& p = system_->get_processor(name);
      cpus.row({name,
                Table::integer(static_cast<long long>(p.stats().instructions)),
                Table::integer(static_cast<long long>(p.stats().bus_reads)),
                Table::integer(static_cast<long long>(p.stats().bus_writes)),
                p.stats().compute_time.str(), p.finished() ? "yes" : "no"});
    } else if (std::holds_alternative<DrcfDecl>(d)) {
      const auto& f = system_->get_drcf(name);
      const auto& s = f.stats();
      drcfs.row(
          {name, Table::integer(static_cast<long long>(f.context_count())),
           Table::integer(static_cast<long long>(s.switches)),
           Table::integer(static_cast<long long>(s.hits)),
           Table::integer(static_cast<long long>(s.misses)),
           Table::integer(static_cast<long long>(s.config_words_fetched)),
           Table::integer(static_cast<long long>(s.fetch_errors)),
           s.reconfig_busy_time.str(),
           Table::num(s.reconfig_energy_j * 1e6, 2)});
    }
  }

  for (const Table* t : {&buses, &mems, &accs, &cpus, &drcfs})
    if (t->rows() > 0) t->print(os);
}

}  // namespace adriatic::netlist
