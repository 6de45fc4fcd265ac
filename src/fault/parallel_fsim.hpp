// Multi-threaded fault-simulation orchestration over the FaultSim seam.
//
// The fault list is sharded into work units (one fault-parallel machine
// group each by default); N worker threads pull shards from a shared queue,
// each grading its shard on a thread-local clone of the prototype engine.
// Campaigns with fault dropping run as a geometric pattern-budget ladder:
// after every stage the workers' detections are folded into the shared
// result and only the surviving faults are re-sharded for the longer next
// stage — cross-shard dropping, so faults detected anywhere stop being
// simulated everywhere.
//
// Results are byte-identical to the serial engines under any thread count
// and shard size: every per-fault record is a function of (fault, pattern
// stream) alone, shards partition the fault list, and detection is monotone
// in the pattern budget (tests/parallel_fsim_test.cpp enforces this).
#ifndef COREBIST_FAULT_PARALLEL_FSIM_HPP_
#define COREBIST_FAULT_PARALLEL_FSIM_HPP_

#include <memory>
#include <span>
#include <vector>

#include "fault/fault_sim.hpp"

namespace corebist {

struct ParallelFsimOptions {
  /// Worker threads; 0 => std::thread::hardware_concurrency().
  int num_threads = 0;
  /// Faults per work unit. 63 fills exactly one fault-parallel machine
  /// group of the sequential kernel (bit 0 is the good machine).
  int shard_faults = 63;
};

/// Whether a campaign of `cycles` patterns runs as the stage ladder:
/// dropping on, no window / MISR / dictionary records (those need every
/// fault run full-length), and 0 < prepass_cycles < cycles.
[[nodiscard]] bool runsStageLadder(const FaultSimOptions& opts, int cycles);

class ParallelFaultSim final : public FaultSim {
 public:
  /// Clones `prototype` once per worker thread at run time; the prototype
  /// itself is cloned (not referenced), so it may die before this object.
  explicit ParallelFaultSim(const FaultSim& prototype,
                            ParallelFsimOptions popts = {});

  [[nodiscard]] const Netlist& netlist() const noexcept override;
  [[nodiscard]] FaultSimResult run(std::span<const Fault> faults,
                                   const PatternSource& patterns,
                                   const FaultSimOptions& opts) override;
  [[nodiscard]] std::unique_ptr<FaultSim> clone() const override;

 private:
  std::unique_ptr<FaultSim> proto_;
  ParallelFsimOptions popts_;
  /// Worker engine clones, reused across run() calls: batched consumers
  /// (the ATPG drivers) call run once per batch, and a fresh comb clone
  /// pays a full netlist levelization plus per-net scratch allocation
  /// (sequential clones share their family's topology and trace memo). Engines
  /// reset all per-campaign state at the top of their own run(). One
  /// consequence: run() is not re-entrant on the same object — use clone()
  /// per thread, as every orchestrator already does.
  std::vector<std::unique_ptr<FaultSim>> engines_;
};

}  // namespace corebist

#endif  // COREBIST_FAULT_PARALLEL_FSIM_HPP_
