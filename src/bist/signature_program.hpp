// Compiled single-lane good-machine signature kernel (paper §3.1: the
// at-speed BIST run that ends every core test with one MISR signature per
// module).
//
// A SignatureProgram is built once per netlist and then signs any stimulus.
// It runs on the netlist's CompiledNetlist (netlist/compiled.hpp), whose
// good-machine kernel evaluates maximal runs of one gate type over one byte
// (0 or 1) per slot: the program simulates exactly one machine, unlike the
// 64-lane fault-simulation words. The program itself keeps only the slots
// that feed its MISR. The MISR fold runs inside the cycle loop, so no net
// trace is kept; a caller may ask for the MISR state after every cycle.
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
#include <memory>
#include <span>
#include <vector>

#include "fault/fault_sim.hpp"
#include "netlist/compiled.hpp"
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
    return compiled_->pi_slots.size();
  }
  [[nodiscard]] std::size_t gateCount() const noexcept {
    return compiled_->gateCount();
  }

 private:
  std::shared_ptr<const CompiledNetlist> compiled_;
  std::vector<std::uint32_t> feed_slots_;  // MISR inputs, tap-major
  std::vector<std::uint8_t> feed_taps_;    // the tap each feed slot drives
  int misr_width_ = 0;
  std::uint64_t misr_poly_ = 0;
};

}  // namespace corebist

#endif  // COREBIST_BIST_SIGNATURE_PROGRAM_HPP_
