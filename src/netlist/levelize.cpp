#include "netlist/levelize.hpp"

#include <functional>
#include <queue>
#include <stdexcept>

namespace corebist {

Levelization levelize(const Netlist& nl) {
  const auto& gates = nl.gates();
  Levelization out;
  out.order.reserve(gates.size());
  out.level.assign(gates.size(), -1);

  // Kahn's algorithm over gate dependencies. A gate depends on the drivers of
  // its input nets; PI/state/const-net inputs contribute no dependency. The
  // lowest ready gate id goes first, so the order stays as close to creation
  // order as the dependencies allow: netlists are built fanin-first, so a
  // gate lands next to the logic feeding it, where a level-by-level order
  // would scatter every cone across the netlist and cost a cache miss per
  // fanin read in the simulators' sweeps.
  std::vector<int> pending(gates.size(), 0);
  for (GateId g = 0; g < gates.size(); ++g) {
    int deps = 0;
    for (int p = 0; p < gates[g].nin; ++p) {
      if (nl.driverOf(gates[g].in[static_cast<std::size_t>(p)]) !=
          Netlist::kNoDriver) {
        ++deps;
      }
    }
    pending[g] = deps;
  }

  std::priority_queue<GateId, std::vector<GateId>, std::greater<>> ready;
  for (GateId g = 0; g < gates.size(); ++g) {
    if (pending[g] == 0) {
      ready.push(g);
      out.level[g] = 0;
    }
  }

  // A gate is popped only after all its drivers, so its level is final.
  const ReaderCsr& readers = nl.readerCsr();
  while (!ready.empty()) {
    const GateId g = ready.top();
    ready.pop();
    out.order.push_back(g);
    for (const NetReader& r : readers.of(gates[g].out)) {
      const int lvl = out.level[g] + 1;
      if (out.level[r.gate] < lvl) out.level[r.gate] = lvl;
      if (--pending[r.gate] == 0) ready.push(r.gate);
    }
  }

  if (out.order.size() != gates.size()) {
    throw std::logic_error(nl.name() + ": combinational loop detected");
  }
  for (const int lvl : out.level) {
    if (lvl > out.depth) out.depth = lvl;
  }
  return out;
}

}  // namespace corebist
