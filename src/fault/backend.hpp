// Backend selection for fault-simulation campaigns.
//
// One enum + factory pair behind which every fault-sim consumer (ATPG batch
// grading, the SoC scheduler's coverage probes, the benches) picks its
// execution backend per campaign instead of hard-coding an engine class:
//
//   kSerial    - the prototype engine itself, unwrapped. One thread for the
//                comb engine; a SeqFaultSim prototype still hands
//                FaultSimOptions::num_threads > 1 (default 2) or a stage
//                ladder to ParallelFaultSim on its own
//   kThreaded  - ParallelFaultSim fault sharding across worker threads
//
// Both backends are byte-identical on results by construction; the choice
// is purely a throughput trade (see src/fault/README.md, "Backend ladder").
// The comb kernel's lane width is a template parameter (CombFaultSimT<W>),
// chosen where the engine is built.
#ifndef COREBIST_FAULT_BACKEND_HPP_
#define COREBIST_FAULT_BACKEND_HPP_

#include <memory>

#include "fault/fault_sim.hpp"

namespace corebist {

enum class FsimBackend {
  kSerial,
  kThreaded,
};

/// Stable lowercase name ("serial" / "threaded"); used in bench JSON rows.
[[nodiscard]] const char* fsimBackendName(FsimBackend b) noexcept;

struct FsimBackendOptions {
  FsimBackend backend = FsimBackend::kSerial;
  /// Worker threads for kThreaded; 0 => one per hardware thread. Ignored
  /// by kSerial (a sequential engine reads FaultSimOptions::num_threads).
  int num_workers = 0;
  /// Faults per work unit for kThreaded.
  int shard_faults = 63;
};

/// Wrap an existing prototype engine (combinational or sequential) in the
/// requested orchestrator. kSerial returns a plain clone, so callers can
/// treat both backends uniformly; the prototype may die before the result.
[[nodiscard]] std::unique_ptr<FaultSim> makeOrchestrator(
    const FaultSim& prototype, const FsimBackendOptions& opts);

}  // namespace corebist

#endif  // COREBIST_FAULT_BACKEND_HPP_
