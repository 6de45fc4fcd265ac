// Compiled single-lane good-machine signature kernel (paper §3.1: the
// at-speed BIST run that ends every core test with one MISR signature per
// module).
//
// A SignatureProgram is built once per netlist and then signs any stimulus.
// Compilation renumbers nets into slots: primary inputs, flip-flop outputs
// and every other undriven net first, then gate outputs in evaluation
// order, so the gate at position p writes slot `sources + p`. Gates are
// sorted by (logic level, type); a gate never reads a net of its own level,
// so each maximal run of one type is evaluated by a loop specialised to that
// type, with no per-gate dispatch. Every net holds one byte (0 or 1): the
// kernel simulates exactly one machine, unlike the 64-lane fault-simulation
// words. The MISR fold runs inside the cycle loop, so no net trace is kept;
// a caller may ask for the MISR state after every cycle.
//
// Per cycle: drive the primary inputs from the stimulus word, evaluate the
// runs, clock the module outputs into the MISR, then capture every
// flip-flop D into its Q (flip-flops reset to 0). This is the recurrence of
// `Misr` and of the sequential fault simulator's MISR model.
//
// A program is immutable after construction; sign() keeps its working
// state on the caller's stack, so one program may sign from many threads.
#ifndef COREBIST_BIST_SIGNATURE_PROGRAM_HPP_
#define COREBIST_BIST_SIGNATURE_PROGRAM_HPP_

#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault_sim.hpp"
#include "netlist/netlist.hpp"

namespace corebist {

class SignatureProgram {
 public:
  /// Compiles `nl` with its MISR. Throws std::invalid_argument for more
  /// than 64 primary inputs or a MISR width outside [1, 64], and
  /// std::logic_error for a combinational loop or a multiply-driven net.
  SignatureProgram(const Netlist& nl, const MisrSpec& misr);

  /// MISR signature after the first `cycles` words of `stimulus` (bit j of
  /// word c drives the j-th primary input at cycle c). When `per_cycle` is
  /// not empty, entry c receives the MISR state after cycle c, so one pass
  /// yields the signature of every shorter run too. Throws
  /// std::invalid_argument when the stimulus, or a non-empty `per_cycle`,
  /// is shorter than `cycles`.
  std::uint64_t sign(std::span<const std::uint64_t> stimulus, int cycles,
                     std::span<std::uint64_t> per_cycle = {}) const;

  [[nodiscard]] std::size_t inputCount() const noexcept {
    return pi_slots_.size();
  }
  [[nodiscard]] std::size_t gateCount() const noexcept { return in_a_.size(); }

 private:
  /// Gate positions [begin, end) all of one type.
  struct Run {
    GateType type = GateType::kConst0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  std::uint32_t slots_ = 0;
  std::uint32_t sources_ = 0;  // slots [0, sources_) are undriven
  std::vector<std::uint32_t> pi_slots_;  // primary input j -> slot
  std::vector<std::uint32_t> in_a_;      // per gate position: pin slots
  std::vector<std::uint32_t> in_b_;
  std::vector<std::uint32_t> in_s_;
  std::vector<Run> runs_;
  std::vector<std::uint32_t> d_slots_;   // flip-flop i: D slot
  std::vector<std::uint32_t> q_slots_;   // flip-flop i: Q slot
  std::vector<std::uint32_t> feed_slots_;  // MISR inputs, tap-major
  std::vector<std::uint8_t> feed_taps_;    // the tap each feed slot drives
  int misr_width_ = 0;
  std::uint64_t misr_poly_ = 0;
};

}  // namespace corebist

#endif  // COREBIST_BIST_SIGNATURE_PROGRAM_HPP_
