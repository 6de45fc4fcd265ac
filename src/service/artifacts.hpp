// Immutable, content-keyed campaign artifacts shared across campaigns.
//
// Every one-shot campaign used to rebuild the same derived state from
// scratch: structural lint of each module netlist at plan-resolve time, the
// stuck-at fault universe of every module a coverage probe touches, the
// golden MISR signature of every module (one good-machine run of the
// module's reference SignatureProgram per core per campaign) and the
// coverage value of a probe. What the store cannot remove is the at-speed
// run of every physical module instance (WrappedCore::completeRun), which
// every campaign simulates and which now dominates a healthy campaign's
// host time. The cached products are a pure function of state that never
// changes after a core is attached to the SoC:
//
//   * `BistEngine::module(m)` returns the engine's OWNED reference copy of
//     the module netlist (attachModule deep-copies). Defect injection
//     (`WrappedCore::injectDefect` / `healModule`) mutates the *physical*
//     copies only, so the reference netlists — and everything derived from
//     them — are immutable for the engine's lifetime.
//   * The stimulus a module sees is fixed by the engine config (ALFSR
//     width/seed/taps, counter bits), the per-module input-source map and
//     the constraint-generator value streams; the MISR spec is fixed by the
//     config and the module's output count. All are set at attach time.
//
// ArtifactStore memoizes those products once per *module content* and
// serves them by reference to every campaign. The two budget-dependent
// products are kept as curves indexed by pattern budget, not per exact
// budget: the golden curve (the MISR state after every cycle, from one pass
// of the reference SignatureProgram) and the MISR coverage curve (how many
// faults' MISR state differs after every cycle, from one no-drop MISR
// campaign). A request for budget N reads entry N-1; a request past the
// end rebuilds the curve to max(N, min(2^counter_bits, 2 * length)), the
// stimulus tape's doubling rule. So a bundle holds at most 2^counter_bits
// words per curve (32 KB at the default 4096), however many budgets are
// asked, and answers budgets in [1, 2^counter_bits] only.
//
// Lookup is two-level: an identity fast path on `engine.moduleId(m)` —
// unique within the process and never reused, so a SoC rebuilt after
// another was destroyed (even with its netlists at the same heap addresses)
// can never inherit the old SoC's bundles — then an fnv1a-64 content key
// over the module structure, names, engine config, input map and CG value
// streams, so two cores carrying byte-identical hookups share one artifact
// bundle. A fast-path hit hashes
// nothing.
// Because the content key covers every input the products depend on, a
// cache hit is fingerprint-invisible by construction (pinned by
// tests/service_test.cpp).
//
// Thread-safety: the store is shared by every worker of a CampaignService
// (and by concurrent services). The registry map is guarded by one store
// mutex; each artifact bundle carries its own mutex that serializes product
// computation, so two workers asking for budgets past the same curve's end
// block each other (one rebuilds, the other reads the rebuilt curve) while
// different modules proceed in parallel. Lock order is always tree-lock ->
// store map -> bundle — the store never calls back into campaign execution,
// so no cycle exists.
#ifndef COREBIST_SERVICE_ARTIFACTS_HPP_
#define COREBIST_SERVICE_ARTIFACTS_HPP_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "analyze/lint.hpp"
#include "core/wrapped_core.hpp"
#include "fault/backend.hpp"
#include "fault/fault.hpp"

namespace corebist {

/// Cache-economy counters. `hits` / `misses` count product requests
/// (lint, fault universe, golden signature, coverage) served from vs
/// computed into the cache (a golden or coverage miss is one curve build;
/// a coverage miss that also enumerates the fault universe counts that as
/// one more miss, and store-internal reads count nothing);
/// `modules_built` counts distinct artifact bundles constructed and
/// `modules_shared` counts registrations that deduplicated onto an existing
/// bundle via the content key.
struct ArtifactStats {
  std::uint64_t modules_built = 0;
  std::uint64_t modules_shared = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  [[nodiscard]] double hitRate() const noexcept {
    const double total = static_cast<double>(hits + misses);
    return total > 0.0 ? static_cast<double>(hits) / total : 0.0;
  }
};

class ArtifactStore {
 public:
  ArtifactStore() = default;
  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  /// Structural lint of module `m`'s reference netlist. Reference valid for
  /// the store's lifetime.
  const LintReport& lint(const WrappedCore& core, int m);

  /// Full stuck-at fault universe of module `m`'s reference netlist.
  /// Span valid for the store's lifetime.
  std::span<const Fault> stuckAtFaults(const WrappedCore& core, int m);

  /// Fault-free MISR signature of module `m` after `patterns` cycles —
  /// the good-machine sequential simulation every uncached campaign pays
  /// per core. Read off the module's golden curve. Throws
  /// std::invalid_argument outside [1, 2^counter_bits].
  std::uint16_t goldenSignature(const WrappedCore& core, int m, int patterns);

  /// Signature-qualified stuck-at coverage (%) of module `m` under
  /// `patterns` cycles, read off the module's MISR coverage curve; equal
  /// to BistEngine::signatureCoverage(m, faults, patterns).misrCoverage().
  /// Coverage is backend-invariant (byte-identical across the serial and
  /// threaded orchestrators — pinned by the backend suites), so `bopts`
  /// only steers how a *miss* is computed, never the value. Throws
  /// std::invalid_argument outside [1, 2^counter_bits].
  double signatureCoverage(const WrappedCore& core, int m, int patterns,
                           const FsimBackendOptions& bopts);

  [[nodiscard]] ArtifactStats stats() const;

 private:
  struct ModuleArtifacts {
    std::uint64_t content_key = 0;
    std::mutex mu;  // serializes product computation for this bundle
    bool lint_done = false;
    LintReport lint;
    bool faults_done = false;
    std::vector<Fault> faults;
    /// goldens[c]: the golden MISR signature after c + 1 patterns.
    std::vector<std::uint64_t> goldens;
    /// misr_curve[c]: faults caught by the signature after c + 1 patterns.
    std::vector<std::uint32_t> misr_curve;
  };

  ModuleArtifacts& bundleFor(const WrappedCore& core, int m);
  /// Enumerates `a`'s fault universe unless it is already built (caller
  /// holds a.mu); a build counts one miss, a reuse counts nothing. Returns
  /// whether it built.
  bool buildFaults(ModuleArtifacts& a, const WrappedCore& core, int m);

  mutable std::mutex mu_;  // guards the two registry maps
  std::unordered_map<std::uint64_t, std::shared_ptr<ModuleArtifacts>>
      by_identity_;  // BistEngine::moduleId -> bundle
  std::unordered_map<std::uint64_t, std::shared_ptr<ModuleArtifacts>>
      by_content_;
  std::atomic<std::uint64_t> modules_built_{0};
  std::atomic<std::uint64_t> modules_shared_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace corebist

#endif  // COREBIST_SERVICE_ARTIFACTS_HPP_
