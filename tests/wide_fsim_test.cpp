// Wide-lane kernel equivalence: CombFaultSimT<2> / CombFaultSimT<4> /
// CombFaultSimT<8> (the AVX-512 width) must be byte-identical to the 64-lane
// reference CombFaultSimT<1> on randomized netlists across every campaign mode — partial tail blocks, windowed masks,
// first-K dictionary records, stall exits and transition pair blocks — plus
// the backend factory (serial and threaded over every lane width), the
// wide-fill decomposition contract of PatternSource and the thread-safe
// transposition cache of CyclePatternSource.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "fault/backend.hpp"
#include "fault/comb_fsim.hpp"
#include "fault/fault.hpp"
#include "fault/lane.hpp"
#include "fault/parallel_fsim.hpp"
#include "netlist/builder.hpp"

namespace corebist {
namespace {

/// Random combinational DAG over `width` inputs.
Netlist randomComb(std::uint64_t seed, int width, int gates) {
  Netlist nl("rand");
  Builder b(nl);
  const Bus x = b.input("x", width);
  std::vector<NetId> pool(x.begin(), x.end());
  std::mt19937_64 rng(seed);
  for (int g = 0; g < gates; ++g) {
    const auto t = static_cast<GateType>(2 + rng() % 9);  // kBuf .. kMux2
    const NetId a = pool[rng() % pool.size()];
    const NetId bnet = pool[rng() % pool.size()];
    const NetId s = pool[rng() % pool.size()];
    NetId out = kNullNet;
    switch (gateArity(t)) {
      case 1:
        out = nl.addGate1(t, a);
        break;
      case 2:
        out = nl.addGate2(t, a, bnet);
        break;
      default:
        out = nl.addMux(a, bnet, s);
        break;
    }
    pool.push_back(out);
  }
  Bus outs(pool.end() - std::min<std::size_t>(8, pool.size()), pool.end());
  b.output("y", outs);
  nl.validate();
  return nl;
}

template <int W>
FaultSimResult runWidth(const Netlist& nl, std::span<const Fault> faults,
                        const PatternSource& src, const FaultSimOptions& o) {
  CombFaultSimT<W> fsim(nl, nl.primaryInputs(), nl.primaryOutputs());
  return fsim.run(faults, src, o);
}

void expectSameResult(const FaultSimResult& ref, const FaultSimResult& got,
                      const char* what) {
  EXPECT_EQ(ref.first_detect, got.first_detect) << what;
  EXPECT_EQ(ref.window_mask, got.window_mask) << what;
  EXPECT_EQ(ref.detect_patterns, got.detect_patterns) << what;
  EXPECT_EQ(ref.patterns_applied, got.patterns_applied) << what;
  EXPECT_EQ(ref.detected, got.detected) << what;
  EXPECT_EQ(ref.total, got.total) << what;
}

class WideEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WideEquivalence, AllCampaignModesMatch64LaneReference) {
  const Netlist nl = randomComb(GetParam(), 10, 70);
  const FaultUniverse u = enumerateStuckAt(nl);
  // 420 = 1 full 256-lane pass + 164 (2 full sub-blocks + a 36-lane tail):
  // partial tails land mid-word at every width.
  const int cycles = 420;
  const RandomPatternSource random_src(GetParam() ^ 0xD00D,
                                       nl.primaryInputs().size(), cycles);
  std::mt19937_64 rng(GetParam() ^ 0xC1C);
  std::vector<std::uint64_t> words(static_cast<std::size_t>(cycles));
  for (auto& w : words) {
    w = rng() & ((std::uint64_t{1} << nl.primaryInputs().size()) - 1);
  }
  const CyclePatternSource cycle_src(words, nl.primaryInputs().size());

  std::vector<FaultSimOptions> modes;
  {
    FaultSimOptions o;  // plain dropping campaign, partial tail
    o.cycles = cycles;
    o.prepass_cycles = 0;
    modes.push_back(o);
    o.drop_detected = false;  // full-length, no dropping
    modes.push_back(o);
    o = FaultSimOptions{};  // windowed masks (disables dropping internally)
    o.cycles = cycles;
    o.prepass_cycles = 0;
    o.windows = 8;
    modes.push_back(o);
    o = FaultSimOptions{};  // first-K dictionary records
    o.cycles = cycles;
    o.prepass_cycles = 0;
    o.record_detections = 3;
    modes.push_back(o);
    o = FaultSimOptions{};  // stall exit, 64-pattern-block semantics
    o.cycles = cycles;
    o.prepass_cycles = 0;
    o.stall_blocks = 1;
    modes.push_back(o);
    o.stall_blocks = 3;
    modes.push_back(o);
    o = FaultSimOptions{};  // stall exit without dropping
    o.cycles = cycles;
    o.prepass_cycles = 0;
    o.stall_blocks = 2;
    o.drop_detected = false;
    modes.push_back(o);
    o = FaultSimOptions{};  // stall + dictionary records
    o.cycles = cycles;
    o.prepass_cycles = 0;
    o.stall_blocks = 2;
    o.record_detections = 2;
    modes.push_back(o);
  }

  for (const PatternSource* src :
       {static_cast<const PatternSource*>(&random_src),
        static_cast<const PatternSource*>(&cycle_src)}) {
    for (std::size_t m = 0; m < modes.size(); ++m) {
      const auto ref = runWidth<1>(nl, u.faults, *src, modes[m]);
      const auto got2 = runWidth<2>(nl, u.faults, *src, modes[m]);
      const auto got4 = runWidth<4>(nl, u.faults, *src, modes[m]);
      const auto got8 = runWidth<8>(nl, u.faults, *src, modes[m]);
      SCOPED_TRACE("mode " + std::to_string(m));
      expectSameResult(ref, got2, "W=2 vs W=1");
      expectSameResult(ref, got4, "W=4 vs W=1");
      expectSameResult(ref, got8, "W=8 vs W=1");
    }
  }
}

TEST_P(WideEquivalence, ShortBudgetsAndSingleLaneMatch) {
  const Netlist nl = randomComb(GetParam() ^ 0x7777, 8, 40);
  const FaultUniverse u = enumerateStuckAt(nl);
  const RandomPatternSource src(GetParam(), nl.primaryInputs().size(), 512);
  for (const int cycles : {1, 17, 64, 65, 128, 129, 256, 257}) {
    FaultSimOptions o;
    o.cycles = cycles;
    o.prepass_cycles = 0;
    const auto ref = runWidth<1>(nl, u.faults, src, o);
    const auto got = runWidth<4>(nl, u.faults, src, o);
    const auto got8 = runWidth<8>(nl, u.faults, src, o);
    SCOPED_TRACE("cycles " + std::to_string(cycles));
    expectSameResult(ref, got, "W=4 vs W=1");
    expectSameResult(ref, got8, "W=8 vs W=1");
  }
}

TEST_P(WideEquivalence, TransitionPairBlocksMatch) {
  const Netlist nl = randomComb(GetParam() ^ 0x7DF0, 9, 50);
  const FaultUniverse u = enumerateStuckAt(nl);
  const std::vector<Fault> tdf = toTransitionFaults(u.faults);
  CombFaultSimT<1> narrow(nl, nl.primaryInputs(), nl.primaryOutputs());
  CombFaultSimT<4> wide(nl, nl.primaryInputs(), nl.primaryOutputs());
  CombFaultSimT<8> wide8(nl, nl.primaryInputs(), nl.primaryOutputs());
  std::mt19937_64 rng(GetParam());
  for (int trial = 0; trial < 4; ++trial) {
    PatternBlock v1, v2;
    v1.inputs.resize(nl.primaryInputs().size());
    v2.inputs.resize(nl.primaryInputs().size());
    for (auto& w : v1.inputs) w = rng();
    for (auto& w : v2.inputs) w = rng();
    v1.count = v2.count = trial == 0 ? 23 : 64;  // include a partial block
    narrow.loadPairBlock(v1, v2);
    wide.loadPairBlock(v1, v2);
    wide8.loadPairBlock(v1, v2);
    for (const Fault& f : tdf) {
      const auto dn = narrow.detect(f);
      const auto dw = wide.detect(f);
      const auto d8 = wide8.detect(f);
      EXPECT_EQ(dn.word(0), dw.word(0)) << describeFault(nl, f);
      EXPECT_EQ(dn.word(0), d8.word(0)) << describeFault(nl, f);
      for (int wi = 1; wi < 4; ++wi) EXPECT_EQ(dw.word(wi), 0u);
      for (int wi = 1; wi < 8; ++wi) EXPECT_EQ(d8.word(wi), 0u);
    }
  }
}

TEST_P(WideEquivalence, ParallelOrchestrationOverWideKernelMatchesSerial) {
  const Netlist nl = randomComb(GetParam() ^ 0x9A9A, 10, 60);
  const FaultUniverse u = enumerateStuckAt(nl);
  const RandomPatternSource src(GetParam() ^ 0xF00, nl.primaryInputs().size(),
                                512);
  FaultSimOptions o;
  o.cycles = 512;
  o.prepass_cycles = 64;
  CombFaultSim serial(nl, nl.primaryInputs(), nl.primaryOutputs());
  const auto ref = serial.run(u.faults, src, o);
  for (const int threads : {1, 4}) {
    ParallelFsimOptions popts;
    popts.num_threads = threads;
    ParallelFaultSim psim(
        CombFaultSim{nl, nl.primaryInputs(), nl.primaryOutputs()}, popts);
    const auto r = psim.run(u.faults, src, o);
    EXPECT_EQ(r.first_detect, ref.first_detect) << "threads=" << threads;
    EXPECT_EQ(r.detected, ref.detected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WideEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(FsimBackendFactory, FactoryWrapsEveryBackendOverEveryLaneWidth) {
  const Netlist nl = randomComb(17, 9, 50);
  const FaultUniverse u = enumerateStuckAt(nl);
  const RandomPatternSource patterns(4, nl.primaryInputs().size(), 192);
  FaultSimOptions o;
  o.cycles = 192;
  o.prepass_cycles = 0;

  // Serial, 64-lane reference.
  const FaultSimResult ref =
      CombFaultSimT<1>(nl, nl.primaryInputs(), nl.primaryOutputs())
          .run(u.faults, patterns, o);

  for (const FsimBackend backend :
       {FsimBackend::kSerial, FsimBackend::kThreaded}) {
    FsimBackendOptions bopts;
    bopts.backend = backend;
    bopts.num_workers = 2;
    const auto check = [&](auto lanes) {
      constexpr int kW = decltype(lanes)::value;
      const auto engine = makeOrchestrator(
          CombFaultSimT<kW>(nl, nl.primaryInputs(), nl.primaryOutputs()),
          bopts);
      const FaultSimResult r = engine->run(u.faults, patterns, o);
      SCOPED_TRACE(std::string(fsimBackendName(backend)) + " W=" +
                   std::to_string(kW));
      EXPECT_EQ(r.first_detect, ref.first_detect);
      EXPECT_EQ(r.detected, ref.detected);
      EXPECT_EQ(r.patterns_applied, ref.patterns_applied);
    };
    check(std::integral_constant<int, 1>{});
    check(std::integral_constant<int, 2>{});
    check(std::integral_constant<int, 4>{});
    check(std::integral_constant<int, 8>{});
  }
}

TEST(PatternSourceWideFill, DecomposesIntoNarrowSubBlockFills) {
  const RandomPatternSource src(0xABCD, 13, 500);
  for (const int start : {0, 256}) {
    PatternBlock wide;
    src.fillWide(start, 4, wide);
    ASSERT_EQ(wide.words_per_input, 4);
    ASSERT_EQ(wide.inputs.size(), 13u * 4u);
    EXPECT_EQ(wide.count, std::min(256, 500 - start));
    PatternBlock sub;
    for (int k = 0; 64 * k < wide.count; ++k) {
      src.fill(start + 64 * k, sub);
      const std::uint64_t tail = sub.laneMask();
      for (std::size_t j = 0; j < 13; ++j) {
        EXPECT_EQ(wide.word(j, k), sub.inputs[j] & tail)
            << "start=" << start << " sub=" << k << " input=" << j;
      }
    }
  }
}

TEST(Transpose64, MatchesNaiveBitTranspose) {
  std::mt19937_64 rng(0x7A7A);
  for (int trial = 0; trial < 8; ++trial) {
    std::uint64_t a[64];
    for (auto& w : a) w = rng();
    std::uint64_t naive[64] = {};
    for (int r = 0; r < 64; ++r) {
      for (int c = 0; c < 64; ++c) {
        if ((a[r] >> c) & 1u) naive[c] |= std::uint64_t{1} << r;
      }
    }
    std::uint64_t t[64];
    std::copy(a, a + 64, t);
    transpose64(t);
    for (int r = 0; r < 64; ++r) EXPECT_EQ(t[r], naive[r]) << "row " << r;
  }
}

TEST(CyclePatternSourceCache, WordTransposeMatchesBitLoop) {
  std::mt19937_64 rng(0xBEE);
  const std::size_t width = 29;
  std::vector<std::uint64_t> words(300);
  for (auto& w : words) w = rng() & ((std::uint64_t{1} << width) - 1);
  const CyclePatternSource src(words, width);
  PatternBlock blk;
  for (int start = 0; start < 300; start += 64) {
    src.fill(start, blk);
    const int n = std::min<int>(64, 300 - start);
    ASSERT_EQ(blk.count, n);
    for (std::size_t j = 0; j < width; ++j) {
      std::uint64_t expect = 0;
      for (int k = 0; k < n; ++k) {
        if ((words[static_cast<std::size_t>(start + k)] >> j) & 1u) {
          expect |= std::uint64_t{1} << k;
        }
      }
      EXPECT_EQ(blk.inputs[j], expect) << "start=" << start << " j=" << j;
    }
  }
}

TEST(CyclePatternSourceCache, CoherentUnderConcurrentFills) {
  std::mt19937_64 rng(0xCAFE);
  const std::size_t width = 24;
  std::vector<std::uint64_t> words(1024);
  for (auto& w : words) w = rng() & ((std::uint64_t{1} << width) - 1);
  const CyclePatternSource src(words, width);

  // Reference blocks from a private (uncontended) source.
  const CyclePatternSource ref_src(words, width);
  std::vector<PatternBlock> ref(16);
  for (int b = 0; b < 16; ++b) ref_src.fill(64 * b, ref[b]);

  std::vector<int> mismatches(8, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937_64 trng(static_cast<std::uint64_t>(t));
      PatternBlock blk;
      for (int iter = 0; iter < 200; ++iter) {
        const int b = static_cast<int>(trng() % 16);
        if (iter % 3 == 0) {
          // Wide fills must hit the same cache coherently.
          src.fillWide(64 * b, 1, blk);
          blk.words_per_input = 1;
        } else {
          src.fill(64 * b, blk);
        }
        if (blk.inputs != ref[b].inputs || blk.count != ref[b].count) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

TEST(LaneWordOps, EightWordOpsMatchPortableSemantics) {
  // W=8 is the width with a dedicated AVX-512 path; check the operators
  // against scalar recomputation so an intrinsics bug cannot hide behind
  // the (vector-vector) equivalence tests above.
  using W8 = LaneWord<8>;
  std::mt19937_64 rng(0x8888);
  for (int trial = 0; trial < 32; ++trial) {
    W8 a, b;
    for (int i = 0; i < 8; ++i) {
      a.w[i] = rng();
      b.w[i] = rng();
    }
    const W8 land = a & b, lor = a | b, lxor = a ^ b, lnot = ~a;
    bool expect_any = false;
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(land.w[i], a.w[i] & b.w[i]);
      EXPECT_EQ(lor.w[i], a.w[i] | b.w[i]);
      EXPECT_EQ(lxor.w[i], a.w[i] ^ b.w[i]);
      EXPECT_EQ(lnot.w[i], ~a.w[i]);
      expect_any = expect_any || a.w[i] != 0;
    }
    EXPECT_EQ(a.any(), expect_any);
  }
  EXPECT_FALSE(W8::zero().any());
  EXPECT_TRUE(W8::ones().any());
  EXPECT_EQ(W8::ones().popcount(), 512);
  EXPECT_EQ(W8::lowLanes(512), W8::ones());
  EXPECT_EQ(W8::lowLanes(321).popcount(), 321);
  EXPECT_EQ(W8::zero().firstLane(), 512);
}

TEST(LaneWordOps, MasksAndLaneIndexing) {
  using W4 = LaneWord<4>;
  EXPECT_TRUE(W4::zero().none());
  EXPECT_TRUE(W4::ones().any());
  EXPECT_EQ(W4::ones().popcount(), 256);
  EXPECT_EQ(W4::lowLanes(0), W4::zero());
  EXPECT_EQ(W4::lowLanes(256), W4::ones());
  const W4 m = W4::lowLanes(130);
  EXPECT_EQ(m.word(0), ~std::uint64_t{0});
  EXPECT_EQ(m.word(1), ~std::uint64_t{0});
  EXPECT_EQ(m.word(2), 0b11u);
  EXPECT_EQ(m.word(3), 0u);
  W4 v = W4::zero();
  v.w[2] = 0b1000;
  EXPECT_EQ(v.firstLane(), 131);
  EXPECT_EQ((v & ~m).firstLane(), 131);
  EXPECT_EQ((v & m), W4::zero());
  EXPECT_EQ(W4::zero().firstLane(), 256);
}

}  // namespace
}  // namespace corebist
