#include "netlist/levelize.hpp"

#include <algorithm>
#include <array>
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
  // lowest-id ready gate of the type just emitted goes next, else the
  // lowest-id ready gate. Lowest id first keeps a gate next to the logic
  // feeding it (netlists are built fanin-first); preferring the last type
  // grows the one-type runs the compiled kernel evaluates without dispatch.
  std::vector<int> pending(gates.size(), 0);
  for (GateId g = 0; g < gates.size(); ++g) {
    for (int p = 0; p < gates[g].nin; ++p) {
      const NetId in = gates[g].in[static_cast<std::size_t>(p)];
      if (nl.driverOf(in) != Netlist::kNoDriver) ++pending[g];
    }
  }

  // Ready gates, lowest id on top: one queue per gate type, plus an
  // always-empty one that stands for "no type emitted yet".
  using ReadyQueue =
      std::priority_queue<GateId, std::vector<GateId>, std::greater<>>;
  std::array<ReadyQueue, kNumGateTypes + 1> ready;
  const auto push = [&](GateId g) {
    ready[static_cast<std::size_t>(gates[g].type)].push(g);
  };
  for (GateId g = 0; g < gates.size(); ++g) {
    if (pending[g] == 0) {
      push(g);
      out.level[g] = 0;
    }
  }

  // A gate is popped only after all its drivers, so its level is final.
  const ReaderCsr& readers = nl.readerCsr();
  std::size_t last = kNumGateTypes;  // the type just emitted
  for (;;) {
    if (ready[last].empty()) {
      for (std::size_t t = 0; t < kNumGateTypes; ++t) {
        if (!ready[t].empty() &&
            (ready[last].empty() || ready[t].top() < ready[last].top())) {
          last = t;
        }
      }
      if (ready[last].empty()) break;
    }
    const GateId g = ready[last].top();
    ready[last].pop();
    out.order.push_back(g);
    out.depth = std::max(out.depth, out.level[g]);
    for (const NetReader& r : readers.of(gates[g].out)) {
      const int lvl = out.level[g] + 1;
      if (out.level[r.gate] < lvl) out.level[r.gate] = lvl;
      if (--pending[r.gate] == 0) push(r.gate);
    }
  }

  if (out.order.size() != gates.size()) {
    throw std::logic_error(nl.name() + ": combinational loop detected");
  }
  return out;
}

}  // namespace corebist
