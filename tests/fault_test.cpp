// Fault model, collapsing, and both fault-simulation engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "fault/comb_fsim.hpp"
#include "fault/fault.hpp"
#include "fault/parallel_fsim.hpp"
#include "fault/seq_fsim.hpp"
#include "netlist/builder.hpp"
#include "sim/comb_sim.hpp"

namespace corebist {
namespace {

/// c17-style reference circuit: small enough for brute-force cross-checks.
Netlist makeSmallComb() {
  Netlist nl("c_small");
  Builder b(nl);
  const Bus x = b.input("x", 5);
  const NetId g1 = b.g2(GateType::kNand, x[0], x[2]);
  const NetId g2 = b.g2(GateType::kNand, x[3], x[2]);
  const NetId g3 = b.g2(GateType::kNand, x[1], g2);
  const NetId g4 = b.g2(GateType::kNand, g2, x[4]);
  const NetId o1 = b.g2(GateType::kNand, g1, g3);
  const NetId o2 = b.g2(GateType::kNand, g3, g4);
  b.output("o", Bus{o1, o2});
  return nl;
}

TEST(FaultModel, EnumerationCountsStemsAndBranches) {
  Netlist nl("t");
  Builder b(nl);
  const Bus x = b.input("x", 2);
  const NetId a = b.and2(x[0], x[1]);  // x0,x1 fanout 1
  const NetId y1 = b.not1(a);          // a has fanout 2 -> branches
  const NetId y2 = b.xor2(a, x[0]);    // x0 now fanout 2 as well
  b.output("y", Bus{y1, y2});
  const FaultUniverse u = enumerateStuckAt(nl, /*collapse=*/false);
  // Nets: x0,x1,a,y1,y2 = 5 stems x2 = 10; branches: a@not, a@xor, x0@and,
  // x0@xor = 4 x2 = 8. Total 18.
  EXPECT_EQ(u.uncollapsed, 18u);
}

TEST(FaultModel, CollapseMergesBufferChain) {
  Netlist nl("t");
  Builder b(nl);
  const Bus x = b.input("x", 1);
  const NetId b1 = b.g1(GateType::kBuf, x[0]);
  const NetId b2 = b.g1(GateType::kBuf, b1);
  const NetId y = b.g1(GateType::kNot, b2);
  b.output("y", Bus{y});
  const FaultUniverse u = enumerateStuckAt(nl);
  // 4 nets x 2 = 8 uncollapsed; BUF/NOT chains collapse everything into the
  // two polarities of a single class pair.
  EXPECT_EQ(u.uncollapsed, 8u);
  EXPECT_EQ(u.faults.size(), 2u);
}

TEST(FaultModel, CollapseAndGateEquivalence) {
  Netlist nl("t");
  Builder b(nl);
  const Bus x = b.input("x", 2);
  b.output("y", Bus{b.and2(x[0], x[1])});
  const FaultUniverse u = enumerateStuckAt(nl);
  // Uncollapsed: 3 nets x 2 = 6. AND: in-sa0 (x2) == out-sa0 -> merges two
  // away: 4 collapsed classes.
  EXPECT_EQ(u.uncollapsed, 6u);
  EXPECT_EQ(u.faults.size(), 4u);
}

TEST(FaultModel, TransitionMappingPreservesSites) {
  const Netlist nl = makeSmallComb();
  const FaultUniverse u = enumerateStuckAt(nl);
  const auto tdf = toTransitionFaults(u.faults);
  ASSERT_EQ(tdf.size(), u.faults.size());
  for (std::size_t i = 0; i < tdf.size(); ++i) {
    EXPECT_EQ(tdf[i].net, u.faults[i].net);
    EXPECT_FALSE(isStuckAt(tdf[i].kind));
  }
}

/// Brute-force single-fault simulation for cross-checking CombFaultSim.
std::uint64_t bruteForceDetect(const Netlist& nl, const Fault& f,
                               const PatternBlock& blk,
                               std::span<const NetId> inputs,
                               std::span<const NetId> observed) {
  CombSim good(nl);
  CombSim bad(nl);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    good.set(inputs[i], blk.inputs[i]);
    bad.set(inputs[i], blk.inputs[i]);
  }
  good.eval();
  // Faulty evaluation: emulate by manual gate loop with injection.
  const Levelization lev = levelize(nl);
  auto& val = bad.values();
  const std::uint64_t forced = f.kind == FaultKind::kSa1 ? ~0ull : 0ull;
  if (f.isStem() && nl.driverOf(f.net) == Netlist::kNoDriver) {
    val[f.net] = forced;
  }
  for (const GateId g : lev.order) {
    const Gate& gate = nl.gates()[g];
    std::uint64_t in[3] = {0, 0, 0};
    for (int p = 0; p < gate.nin; ++p) in[p] = val[gate.in[static_cast<std::size_t>(p)]];
    if (!f.isStem() && f.gate == g) in[f.pin] = forced;
    val[gate.out] = evalGateWord(gate.type, in[0], in[1], in[2]);
    if (f.isStem() && gate.out == f.net) val[gate.out] = forced;
  }
  std::uint64_t det = 0;
  for (const NetId o : observed) det |= good.get(o) ^ bad.get(o);
  return det;
}

TEST(CombFaultSim, MatchesBruteForceOnEveryFault) {
  const Netlist nl = makeSmallComb();
  const FaultUniverse u = enumerateStuckAt(nl, /*collapse=*/false);
  const auto inputs = nl.primaryInputs();
  const auto observed = nl.primaryOutputs();
  CombFaultSim fsim(nl, inputs, observed);
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 8; ++trial) {
    PatternBlock blk;
    for (std::size_t i = 0; i < inputs.size(); ++i) blk.inputs.push_back(rng());
    fsim.loadBlock(blk);
    for (const Fault& f : u.faults) {
      const auto det = fsim.detect(f);
      EXPECT_EQ(det.word(0), bruteForceDetect(nl, f, blk, inputs, observed))
          << describeFault(nl, f);
      for (int wi = 1; wi < CombFaultSim::kWords; ++wi) {
        EXPECT_EQ(det.word(wi), 0u) << "narrow block leaked into wide lanes";
      }
    }
  }
}

TEST(CombFaultSim, ExhaustivePatternsDetectAllC17Faults) {
  const Netlist nl = makeSmallComb();
  const FaultUniverse u = enumerateStuckAt(nl);
  CombFaultSim fsim(nl, nl.primaryInputs(), nl.primaryOutputs());
  PatternBlock blk;
  // All 32 input combinations in one block.
  blk.inputs.resize(5);
  for (int v = 0; v < 32; ++v) {
    for (int i = 0; i < 5; ++i) {
      if ((v >> i) & 1) blk.inputs[static_cast<std::size_t>(i)] |= 1ull << v;
    }
  }
  blk.count = 32;
  fsim.loadBlock(blk);
  for (const Fault& f : u.faults) {
    EXPECT_TRUE(fsim.detect(f).any())
        << describeFault(nl, f) << " undetected by exhaustive patterns";
  }
}

TEST(CombFaultSim, TransitionNeedsLaunchTransition) {
  // y = x0 AND x1. Slow-to-rise on x0 requires x0: 0 -> 1 with x1 = 1.
  Netlist nl("t");
  Builder b(nl);
  const Bus x = b.input("x", 2);
  b.output("y", Bus{b.and2(x[0], x[1])});
  CombFaultSim fsim(nl, nl.primaryInputs(), nl.primaryOutputs());
  const Fault slow_rise{x[0], Fault::kNoGate, 0, FaultKind::kSlowRise};

  PatternBlock v1, v2;
  // Lane 0: x0 0->1, x1=1 (detect). Lane 1: x0 1->1 (no transition).
  // Lane 2: x0 0->1 but x1=0 (no propagation).
  v1.inputs = {0b010, 0b011};
  v2.inputs = {0b111, 0b011};
  v1.count = v2.count = 3;
  fsim.loadPairBlock(v1, v2);
  EXPECT_EQ(fsim.detect(slow_rise).word(0), 0b001u);
}

/// Sequential circuit with state: 4-bit counter with parity output.
Netlist makeCounterCircuit() {
  Netlist nl("cnt");
  Builder b(nl);
  const Bus en = b.input("en", 1);
  const Bus q = b.counter("q", 4, en[0], b.lo());
  b.output("q", q);
  b.output("par", Bus{b.reduceXor(q)});
  nl.validate();
  return nl;
}

TEST(SeqFaultSim, DetectsCounterFaults) {
  const Netlist nl = makeCounterCircuit();
  const FaultUniverse u = enumerateStuckAt(nl);
  SeqFaultSim fsim(nl);
  // Enable mostly on, with occasional holds so the enable-hold mux paths
  // are exercised too.
  std::vector<std::uint64_t> stim(96, 1);
  for (std::size_t c = 5; c < stim.size(); c += 7) stim[c] = 0;
  const CyclePatternSource patterns(stim, nl.primaryInputs().size());
  FaultSimOptions opts;
  opts.cycles = 96;
  opts.prepass_cycles = 0;
  const FaultSimResult r = fsim.run(u.faults, patterns, opts);
  // A handful of faults around the tied-off clear path are structurally
  // untestable, so ~90 % is the ceiling here.
  EXPECT_GT(r.coverage(), 85.0);
  EXPECT_EQ(r.total, u.faults.size());
}

TEST(SeqFaultSim, PrepassAndFullRunAgree) {
  const Netlist nl = makeCounterCircuit();
  const FaultUniverse u = enumerateStuckAt(nl);
  SeqFaultSim fsim(nl);
  std::mt19937_64 rng(5);
  std::vector<std::uint64_t> stim(256);
  for (auto& w : stim) w = rng() & 1u;
  const CyclePatternSource patterns(stim, nl.primaryInputs().size());
  FaultSimOptions with_prepass;
  with_prepass.cycles = 256;
  with_prepass.prepass_cycles = 32;
  FaultSimOptions without;
  without.cycles = 256;
  without.prepass_cycles = 0;
  const auto r1 = fsim.run(u.faults, patterns, with_prepass);
  const auto r2 = fsim.run(u.faults, patterns, without);
  ASSERT_EQ(r1.first_detect.size(), r2.first_detect.size());
  for (std::size_t i = 0; i < r1.first_detect.size(); ++i) {
    EXPECT_EQ(r1.first_detect[i], r2.first_detect[i])
        << describeFault(nl, u.faults[i]);
  }
}

TEST(SeqFaultSim, StuckEnableNeverCounts) {
  const Netlist nl = makeCounterCircuit();
  // en stem s-a-0: counter never advances; q outputs diff from good machine.
  const Fault f{nl.primaryInputs()[0], Fault::kNoGate, 0, FaultKind::kSa0};
  SeqFaultSim fsim(nl);
  std::vector<std::uint64_t> stim(16, 1);
  const CyclePatternSource patterns(stim, nl.primaryInputs().size());
  FaultSimOptions opts;
  opts.cycles = 16;
  opts.prepass_cycles = 0;
  const auto r = fsim.run(std::span<const Fault>(&f, 1), patterns, opts);
  ASSERT_EQ(r.first_detect.size(), 1u);
  // Good machine shows q=1 after the first edge; faulty stays 0. The diff
  // is visible from cycle 1 on.
  EXPECT_EQ(r.first_detect[0], 1);
}

TEST(SeqFaultSim, TransitionFaultSlowerThanStuck) {
  const Netlist nl = makeCounterCircuit();
  const FaultUniverse u = enumerateStuckAt(nl);
  const auto tdf = toTransitionFaults(u.faults);
  SeqFaultSim fsim(nl);
  std::vector<std::uint64_t> stim(128, 1);
  const CyclePatternSource patterns(stim, nl.primaryInputs().size());
  FaultSimOptions opts;
  opts.cycles = 128;
  opts.prepass_cycles = 0;
  const auto rs = fsim.run(u.faults, patterns, opts);
  const auto rt = fsim.run(tdf, patterns, opts);
  // Transition faults need an activation edge on top of propagation, so
  // coverage can only be <= the stuck-at coverage on this stimulus.
  EXPECT_LE(rt.detected, rs.detected);
  EXPECT_GT(rt.coverage(), 50.0);
}

TEST(SeqFaultSim, WindowMaskMarksDetectionWindows) {
  const Netlist nl = makeCounterCircuit();
  const Fault f{nl.primaryInputs()[0], Fault::kNoGate, 0, FaultKind::kSa0};
  SeqFaultSim fsim(nl);
  std::vector<std::uint64_t> stim(64, 1);
  const CyclePatternSource patterns(stim, nl.primaryInputs().size());
  FaultSimOptions opts;
  opts.cycles = 64;
  opts.windows = 8;
  const auto r = fsim.run(std::span<const Fault>(&f, 1), patterns, opts);
  ASSERT_EQ(r.window_mask.size(), 1u);
  // The stuck enable diverges in (almost) every window.
  EXPECT_GE(std::popcount(r.window_mask[0]), 7);
}

TEST(SeqFaultSim, MisrDetectionTracksOutputDetection) {
  const Netlist nl = makeCounterCircuit();
  const FaultUniverse u = enumerateStuckAt(nl);
  SeqFaultSim fsim(nl);
  std::vector<std::uint64_t> stim(128, 1);
  const CyclePatternSource patterns(stim, nl.primaryInputs().size());
  FaultSimOptions opts;
  opts.cycles = 128;
  opts.prepass_cycles = 0;
  MisrSpec misr;
  misr.width = 16;
  misr.poly = 0b0000000000101101;  // x^16+x^5+x^3+x^2+1 coefficient mask
  misr.poly |= 1;
  misr.feeds.resize(16);
  const auto& pos = nl.primaryOutputs();
  for (std::size_t i = 0; i < pos.size(); ++i) {
    misr.feeds[i % 16].push_back(pos[i]);
  }
  opts.misr = misr;
  const auto r = fsim.run(u.faults, patterns, opts);
  std::size_t misr_detected = 0;
  for (std::size_t i = 0; i < u.faults.size(); ++i) {
    if (r.misr_detect[i]) {
      ++misr_detected;
      // MISR detection implies output detection (no false positives).
      EXPECT_GE(r.first_detect[i], 0);
    }
  }
  // Aliasing is possible but rare: expect nearly all detected faults to
  // also differ in the MISR.
  EXPECT_GE(misr_detected + 2, r.detected);
}

TEST(SeqFaultSim, SourcesWithoutPackedWordsThrow) {
  // The engine broadcasts packed per-cycle words; a source that serves only
  // PPSFP blocks is rejected, on the bare engine's own pass and when the
  // engine hands the campaign to ParallelFaultSim.
  const Netlist nl = makeCounterCircuit();
  const FaultUniverse u = enumerateStuckAt(nl);
  const RandomPatternSource random(7, nl.primaryInputs().size(), 128);
  SeqFaultSim fsim(nl);
  FaultSimOptions single;
  single.cycles = 128;
  single.prepass_cycles = 0;
  single.num_threads = 1;
  FaultSimOptions threaded = single;
  threaded.num_threads = 2;
  for (const FaultSimOptions* opts : {&single, &threaded}) {
    EXPECT_THROW((void)fsim.run(u.faults, random, *opts),
                 std::invalid_argument);
  }
  // Packed words shorter than the budget are rejected as well.
  const std::vector<std::uint64_t> stim(64, 1);
  const CyclePatternSource short_stim(stim, nl.primaryInputs().size());
  EXPECT_THROW((void)fsim.run(u.faults, short_stim, single),
               std::invalid_argument);
}

TEST(FaultSimWindows, WindowCountsAbove64ThrowOnEveryEngine) {
  // Window masks are one 64-bit word per fault: 64 windows fill it, 65
  // would shift past bit 63.
  const Netlist seq_nl = makeCounterCircuit();
  const FaultUniverse su = enumerateStuckAt(seq_nl);
  const std::vector<std::uint64_t> stim(128, 1);
  const CyclePatternSource cycles(stim, seq_nl.primaryInputs().size());
  const Netlist comb_nl = makeSmallComb();
  const FaultUniverse cu = enumerateStuckAt(comb_nl);
  const RandomPatternSource patterns(3, comb_nl.primaryInputs().size(), 128);
  FaultSimOptions opts;
  opts.cycles = 128;
  opts.num_threads = 1;  // the bare engine checks windows itself

  SeqFaultSim seq(seq_nl);
  ParallelFaultSim par_seq(SeqFaultSim{seq_nl}, ParallelFsimOptions{2, 63});
  CombFaultSim comb(comb_nl, comb_nl.primaryInputs(),
                    comb_nl.primaryOutputs());
  ParallelFaultSim par_comb(comb, ParallelFsimOptions{2, 63});
  for (const int bad : {65, -1}) {
    opts.windows = bad;
    EXPECT_THROW((void)seq.run(su.faults, cycles, opts), std::invalid_argument);
    EXPECT_THROW((void)par_seq.run(su.faults, cycles, opts),
                 std::invalid_argument);
    EXPECT_THROW((void)comb.run(cu.faults, patterns, opts),
                 std::invalid_argument);
    EXPECT_THROW((void)par_comb.run(cu.faults, patterns, opts),
                 std::invalid_argument);
  }

  // 64 windows of two patterns each: some fault is detected in the last
  // window, so bit 63 is set and nothing shifts past it.
  opts.windows = 64;
  const auto has_top = [](const FaultSimResult& r) {
    return std::any_of(r.window_mask.begin(), r.window_mask.end(),
                       [](std::uint64_t m) { return (m >> 63) != 0; });
  };
  const auto rs = seq.run(su.faults, cycles, opts);
  EXPECT_EQ(par_seq.run(su.faults, cycles, opts).window_mask, rs.window_mask);
  EXPECT_TRUE(has_top(rs));
  const auto rc = comb.run(cu.faults, patterns, opts);
  EXPECT_EQ(par_comb.run(cu.faults, patterns, opts).window_mask,
            rc.window_mask);
  EXPECT_TRUE(has_top(rc));
}

}  // namespace
}  // namespace corebist
