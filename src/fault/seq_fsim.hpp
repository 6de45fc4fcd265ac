// Fault-parallel, activity-gated sequential fault simulation.
//
// The BIST engine applies one pseudo-random pattern per clock at speed and
// observes module outputs (through MISRs) every cycle; fault effects persist
// in flip-flop state. A group packs the good machine into bit 0 of every
// 64-bit net word and up to 63 faulty machines into bits 1..63; all
// machines share the broadcast stimulus. Fault injection is performed by
// patching machine bits at the fault site after the site's driver has been
// evaluated (stems) or re-evaluating the single consuming gate (branches).
//
// Differential evaluation (PROOFS style): the good machine is simulated once
// per stimulus, by the compiled kernel that also signs BIST runs
// (netlist/compiled.hpp), and stored as one bit per net per cycle. A group
// evaluates only the fanout of nets whose word diverges from the good value,
// seeded each cycle by its fault sites and by the flip-flops whose captured
// D word diverged; every other net reads the good trace. When the previous cycle's
// divergence woke more gate evaluations than a plain sweep costs, the group
// sweeps every gate in order for that cycle instead. The choice depends only
// on that observed count. Gate positions, slots and the fanout CSR come from
// the netlist's CompiledNetlist, shared with every other engine; only the
// D->Q capture map is this engine's own, built once per engine and shared
// by clone(). The last good trace built lives in a mutex-guarded memo
// shared by the same family, keyed by stimulus content (never its address)
// and serving any cycle count up to the traced length.
// Results are byte-identical to evaluating every gate every cycle.
//
// Transition-delay faults use the gross-delay model: the slow edge arrives
// after the next clock, so the site presents
//   slow-to-rise:  cur AND prev     slow-to-fall:  cur OR prev
// of the machine's own raw site value across consecutive cycles.
//
// One entry point, FaultSim::run, over a source that serves packed per-cycle
// words (CyclePatternSource); other sources throw std::invalid_argument. By
// default it grades every fault in one pass on the calling thread. Worker
// threads (num_threads > 1) and the prepass stage ladder belong to
// ParallelFaultSim (fault/parallel_fsim.hpp): a campaign asking for either
// is handed to it, and its workers call back in with one thread and no
// prepass.
#ifndef COREBIST_FAULT_SEQ_FSIM_HPP_
#define COREBIST_FAULT_SEQ_FSIM_HPP_

#include <cstdint>
#include <memory>
#include <span>

#include "fault/fault.hpp"
#include "fault/fault_sim.hpp"
#include "netlist/netlist.hpp"

namespace corebist {

namespace seq_detail {
struct Topology;
struct GoodTrace;
struct TraceMemo;
}  // namespace seq_detail

class SeqFaultSim final : public FaultSim {
 public:
  explicit SeqFaultSim(const Netlist& nl);

  /// Grade `faults` against the source's packed per-cycle words (word c
  /// bit j drives primary input j at cycle c). num_threads > 1, or a
  /// campaign that runsStageLadder(), runs through ParallelFaultSim with
  /// max(1, num_threads) workers; otherwise one pass on the calling thread.
  [[nodiscard]] FaultSimResult run(std::span<const Fault> faults,
                                   const PatternSource& patterns,
                                   const FaultSimOptions& opts) override;

  [[nodiscard]] const Netlist& netlist() const noexcept override {
    return nl_;
  }
  [[nodiscard]] std::unique_ptr<FaultSim> clone() const override;

 private:
  /// A good-machine trace covering the first `cycles` words of `stimulus`:
  /// a memo hit on the same content, or a fresh trace of the whole stimulus.
  [[nodiscard]] std::shared_ptr<const seq_detail::GoodTrace> goodTrace(
      std::span<const std::uint64_t> stimulus, int cycles) const;

  const Netlist& nl_;
  std::shared_ptr<const seq_detail::Topology> topo_;  // immutable
  std::shared_ptr<seq_detail::TraceMemo> memo_;
};

}  // namespace corebist

#endif  // COREBIST_FAULT_SEQ_FSIM_HPP_
