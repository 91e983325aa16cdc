// System-wide statistics report over an elaborated design: every bus,
// memory, accelerator, processor and DRCF contributes its counters, printed
// as aligned tables or exported as JSON for downstream DSE tooling.
#pragma once

#include <iosfwd>
#include <string>

#include "netlist/design.hpp"
#include "netlist/elaborate.hpp"

namespace adriatic::netlist {

class SystemReport {
 public:
  SystemReport(const Design& design, const Elaborated& system);

  /// Aligned-table dump of all component statistics.
  void print(std::ostream& os) const;

 private:
  const Design* design_;
  const Elaborated* system_;
};

}  // namespace adriatic::netlist
