#include "fault/backend.hpp"

#include "fault/parallel_fsim.hpp"

namespace corebist {

const char* fsimBackendName(FsimBackend b) noexcept {
  switch (b) {
    case FsimBackend::kSerial:
      return "serial";
    case FsimBackend::kThreaded:
      return "threaded";
  }
  return "serial";
}

std::unique_ptr<FaultSim> makeOrchestrator(const FaultSim& prototype,
                                           const FsimBackendOptions& opts) {
  switch (opts.backend) {
    case FsimBackend::kSerial:
      return prototype.clone();
    case FsimBackend::kThreaded: {
      ParallelFsimOptions p;
      p.num_threads = opts.num_workers;
      p.shard_faults = opts.shard_faults;
      return std::make_unique<ParallelFaultSim>(prototype, p);
    }
  }
  return prototype.clone();
}

}  // namespace corebist
