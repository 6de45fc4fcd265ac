#include "fault/parallel_fsim.hpp"

#include <algorithm>
#include <atomic>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

namespace corebist {

bool runsStageLadder(const FaultSimOptions& opts, int cycles) {
  return opts.drop_detected && opts.windows == 0 && !opts.misr.has_value() &&
         opts.record_detections == 0 && opts.prepass_cycles > 0 &&
         opts.prepass_cycles < cycles;
}

ParallelFaultSim::ParallelFaultSim(const FaultSim& prototype,
                                   ParallelFsimOptions popts)
    : proto_(prototype.clone()), popts_(popts) {
  if (popts_.shard_faults < 1) popts_.shard_faults = 63;
}

const Netlist& ParallelFaultSim::netlist() const noexcept {
  return proto_->netlist();
}

std::unique_ptr<FaultSim> ParallelFaultSim::clone() const {
  return std::make_unique<ParallelFaultSim>(*proto_, popts_);
}

FaultSimResult ParallelFaultSim::run(std::span<const Fault> faults,
                                     const PatternSource& patterns,
                                     const FaultSimOptions& opts) {
  requireWindowCount(opts.windows, "ParallelFaultSim");
  const int total_cycles =
      opts.cycles > 0 ? opts.cycles : patterns.patternCount();
  int nthreads = popts_.num_threads > 0
                     ? popts_.num_threads
                     : static_cast<int>(std::thread::hardware_concurrency());
  if (nthreads < 1) nthreads = 1;

  FaultSimResult result;
  result.total = faults.size();
  result.first_detect.assign(faults.size(), -1);
  result.patterns_applied = static_cast<std::size_t>(total_cycles);
  const bool want_windows = opts.windows > 0;
  const bool want_misr = opts.misr.has_value();
  const bool want_record = opts.record_detections > 0;
  if (want_windows) result.window_mask.assign(faults.size(), 0);
  if (want_misr) {
    result.misr_detect.assign(faults.size(), 0);
    result.misr_curve.assign(static_cast<std::size_t>(total_cycles), 0);
  }
  if (want_windows && want_misr) {
    result.sig_words_per_fault = (opts.windows * opts.misr->width + 63) / 64;
    result.window_sig.assign(
        faults.size() * static_cast<std::size_t>(result.sig_words_per_fault),
        0);
  }
  if (want_record) result.detect_patterns.assign(faults.size(), {});

  // The staged ladder's short early stages retire the easy majority of
  // faults before anyone pays full price.
  std::vector<int> stages;
  if (runsStageLadder(opts, total_cycles)) {
    for (int c = opts.prepass_cycles; c < total_cycles; c *= 4) {
      stages.push_back(c);
    }
  }
  stages.push_back(total_cycles);

  std::vector<std::uint32_t> live(faults.size());
  std::iota(live.begin(), live.end(), 0u);

  const std::size_t shard = static_cast<std::size_t>(popts_.shard_faults);
  const int sig_words = result.sig_words_per_fault;

  // One engine clone per worker, kept across stages AND across run() calls
  // (engines_ member); every engine run() resets per-campaign state.
  if (engines_.size() < static_cast<std::size_t>(nthreads)) {
    engines_.resize(static_cast<std::size_t>(nthreads));
  }
  // Per-worker sums of the shards' MISR curves (MISR campaigns run one
  // full-length stage), added up after the join: integer sums, so the
  // result does not depend on which worker graded which shard.
  std::vector<std::vector<std::uint32_t>> curves(
      static_cast<std::size_t>(nthreads),
      std::vector<std::uint32_t>(result.misr_curve.size(), 0));

  for (const int stage_cycles : stages) {
    if (live.empty()) break;
    const std::size_t nshards = (live.size() + shard - 1) / shard;
    std::atomic<std::size_t> next{0};

    auto worker = [&](int tid) {
      auto& engine = engines_[static_cast<std::size_t>(tid)];
      if (engine == nullptr) engine = proto_->clone();
      FaultSimOptions wopts = opts;
      wopts.cycles = stage_cycles;
      wopts.prepass_cycles = 0;  // the stage ladder lives up here
      wopts.num_threads = 1;     // no nested engine threading
      wopts.stall_blocks = 0;    // shard-local stalls would change results
      std::vector<Fault> shard_faults;
      for (;;) {
        const std::size_t s = next.fetch_add(1, std::memory_order_relaxed);
        if (s >= nshards) break;
        const std::size_t lo = s * shard;
        const std::size_t hi = std::min(lo + shard, live.size());
        shard_faults.clear();
        for (std::size_t k = lo; k < hi; ++k) {
          shard_faults.push_back(faults[live[k]]);
        }
        const FaultSimResult sub =
            engine->run(shard_faults, patterns, wopts);
        // Shards partition the fault list, so writes land on disjoint rows;
        // the join below publishes them.
        for (std::size_t k = lo; k < hi; ++k) {
          const std::uint32_t gi = live[k];
          const std::size_t sk = k - lo;
          result.first_detect[gi] = sub.first_detect[sk];
          if (want_windows) result.window_mask[gi] = sub.window_mask[sk];
          if (want_misr) result.misr_detect[gi] = sub.misr_detect[sk];
          if (sig_words > 0) {
            std::copy_n(sub.window_sig.begin() +
                            static_cast<std::ptrdiff_t>(sk * sig_words),
                        sig_words,
                        result.window_sig.begin() +
                            static_cast<std::ptrdiff_t>(gi) * sig_words);
          }
          if (want_record) {
            result.detect_patterns[gi] = sub.detect_patterns[sk];
          }
        }
        auto& curve = curves[static_cast<std::size_t>(tid)];
        for (std::size_t c = 0; c < curve.size(); ++c) {
          curve[c] += sub.misr_curve[c];
        }
      }
    };

    std::vector<std::future<void>> futs;
    futs.reserve(static_cast<std::size_t>(nthreads - 1));
    for (int t = 1; t < nthreads; ++t) {
      futs.push_back(std::async(std::launch::async, worker, t));
    }
    worker(0);
    for (auto& f : futs) f.get();

    if (stage_cycles == total_cycles) break;
    std::vector<std::uint32_t> survivors;
    for (const std::uint32_t i : live) {
      if (result.first_detect[i] < 0) survivors.push_back(i);
    }
    live = std::move(survivors);
  }

  for (const auto& curve : curves) {
    for (std::size_t c = 0; c < curve.size(); ++c) {
      result.misr_curve[c] += curve[c];
    }
  }
  for (const auto fd : result.first_detect) {
    if (fd >= 0) ++result.detected;
  }
  return result;
}

}  // namespace corebist
