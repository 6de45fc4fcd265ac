// Cycle-based sequential simulation on top of CombSim.
//
// Flip-flops reset to 0. Each step() evaluates the combinational cloud and
// then captures every DFF D input into its Q net. The 64 contexts of the
// underlying words are 64 independent sequential machines (they share the
// netlist but may carry different stimuli/state), which is how the parallel
// fault simulator runs 63 faulty machines against one good machine.
#ifndef COREBIST_SIM_SEQ_SIM_HPP_
#define COREBIST_SIM_SEQ_SIM_HPP_

#include "sim/comb_sim.hpp"

namespace corebist {

class SeqSim {
 public:
  explicit SeqSim(const Netlist& nl) : sim_(nl) {}

  [[nodiscard]] CombSim& comb() noexcept { return sim_; }
  [[nodiscard]] const CombSim& comb() const noexcept { return sim_; }
  [[nodiscard]] const Netlist& netlist() const noexcept {
    return sim_.netlist();
  }

  /// Force every flip-flop Q to 0 in all contexts.
  void reset();

  /// Evaluate combinational logic for the current inputs/state.
  void evalComb() { sim_.eval(); }

  /// Capture D -> Q on every flip-flop (call after evalComb()).
  void clockEdge();

  /// Convenience: evalComb() then clockEdge().
  void step() {
    evalComb();
    clockEdge();
  }

 private:
  CombSim sim_;
  std::vector<std::uint64_t> dtmp_;
};

}  // namespace corebist

#endif  // COREBIST_SIM_SEQ_SIM_HPP_
