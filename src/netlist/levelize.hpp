// Topological levelization of the combinational portion of a netlist.
//
// Sources are primary inputs, constants and flip-flop Q nets; the result is
// a gate ordering such that every gate appears after all of its fanin
// drivers. Combinational loops are a structural error and throw.
#ifndef COREBIST_NETLIST_LEVELIZE_HPP_
#define COREBIST_NETLIST_LEVELIZE_HPP_

#include <vector>

#include "netlist/netlist.hpp"

namespace corebist {

struct Levelization {
  /// Gate ids in topological order, lowest ready id first (as close to
  /// creation order as the dependencies allow; not level-major).
  std::vector<GateId> order;
  /// Logic level of each gate (same indexing as Netlist::gates()).
  std::vector<int> level;
  /// Maximum level (depth of the combinational logic).
  int depth = 0;
};

/// Levelize `nl`. Throws std::logic_error on a combinational loop.
[[nodiscard]] Levelization levelize(const Netlist& nl);

}  // namespace corebist

#endif  // COREBIST_NETLIST_LEVELIZE_HPP_
