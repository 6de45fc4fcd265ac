#include "sim/comb_sim.hpp"

namespace corebist {

CombSim::CombSim(const Netlist& nl)
    : nl_(nl), compiled_(nl.compiled()), val_(nl.numNets(), 0) {}

void CombSim::setBusBroadcast(const Bus& b, std::uint64_t value) {
  for (std::size_t i = 0; i < b.size(); ++i) {
    val_[b[i]] = broadcast(((value >> i) & 1u) != 0);
  }
}

std::uint64_t CombSim::getBusLane(const Bus& b, int lane) const {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    v |= ((val_[b[i]] >> lane) & 1u) << i;
  }
  return v;
}

void CombSim::eval() {
  const auto& gates = nl_.gates();
  for (const GateId g : compiled_->lev.order) {
    const Gate& gate = gates[g];
    const std::uint64_t a = gate.nin > 0 ? val_[gate.in[0]] : 0;
    const std::uint64_t b = gate.nin > 1 ? val_[gate.in[1]] : 0;
    const std::uint64_t s = gate.nin > 2 ? val_[gate.in[2]] : 0;
    val_[gate.out] = evalGateWord(gate.type, a, b, s);
  }
}

}  // namespace corebist
