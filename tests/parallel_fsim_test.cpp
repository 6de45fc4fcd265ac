// ParallelFaultSim orchestration: byte-identical results to the serial
// engines on randomized netlists, under any thread count and shard size,
// with and without fault dropping — plus PatternBlock lane-count hygiene
// and pattern-source determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>

#include "bist/signature_program.hpp"
#include "fault/comb_fsim.hpp"
#include "fault/fault.hpp"
#include "fault/parallel_fsim.hpp"
#include "fault/seq_fsim.hpp"
#include "netlist/builder.hpp"
#include "seq_sweep_reference.hpp"

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

/// Random sequential circuit: a combinational core whose last nets feed a
/// state register folded back into the input pool.
Netlist randomSeq(std::uint64_t seed, int width, int state_bits, int gates) {
  Netlist nl("rand_seq");
  Builder b(nl);
  const Bus x = b.input("x", width);
  const Bus q = b.state("q", state_bits);
  std::vector<NetId> pool(x.begin(), x.end());
  pool.insert(pool.end(), q.begin(), q.end());
  std::mt19937_64 rng(seed);
  for (int g = 0; g < gates; ++g) {
    const auto t = static_cast<GateType>(2 + rng() % 9);
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
  b.connect(q, Bus(pool.end() - state_bits, pool.end()));
  Bus outs(pool.end() - std::min<std::size_t>(6, pool.size()), pool.end());
  b.output("y", outs);
  nl.validate();
  return nl;
}

std::vector<std::uint64_t> randomStimulus(std::uint64_t seed, int cycles,
                                          int width) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> stim(static_cast<std::size_t>(cycles));
  for (auto& w : stim) w = rng() & ((std::uint64_t{1} << width) - 1);
  return stim;
}

class ParallelEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelEquivalence, SeqShardsMatchSerialByteForByte) {
  const Netlist nl = randomSeq(GetParam(), 8, 5, 70);
  const FaultUniverse u = enumerateStuckAt(nl);
  const auto stim = randomStimulus(GetParam() ^ 0xBEEF, 192, 8);
  const CyclePatternSource patterns(stim, nl.primaryInputs().size());

  for (const bool drop : {true, false}) {
    FaultSimOptions opts;
    opts.cycles = static_cast<int>(stim.size());
    opts.prepass_cycles = 32;
    opts.drop_detected = drop;
    opts.num_threads = 1;
    // The reference is the bare engine's own single pass, not a ladder
    // routed through the ParallelFaultSim under test.
    FaultSimOptions single = opts;
    single.prepass_cycles = 0;
    const FaultSimResult ref = SeqFaultSim(nl).run(u.faults, patterns, single);

    for (const int threads : {1, 4, 8}) {
      ParallelFsimOptions popts;
      popts.num_threads = threads;
      popts.shard_faults = threads == 8 ? 17 : 63;  // odd shards too
      ParallelFaultSim psim(SeqFaultSim{nl}, popts);
      const FaultSimResult r = psim.run(u.faults, patterns, opts);
      EXPECT_EQ(r.first_detect, ref.first_detect)
          << "threads=" << threads << " drop=" << drop;
      EXPECT_EQ(r.detected, ref.detected);
      EXPECT_EQ(r.total, ref.total);
    }
  }
}

TEST_P(ParallelEquivalence, CombShardsMatchSerialByteForByte) {
  const Netlist nl = randomComb(GetParam(), 10, 60);
  const FaultUniverse u = enumerateStuckAt(nl);
  const RandomPatternSource patterns(GetParam() ^ 0xD00D,
                                     nl.primaryInputs().size(), 256);

  for (const bool drop : {true, false}) {
    FaultSimOptions opts;
    opts.cycles = 256;
    opts.prepass_cycles = 64;
    opts.drop_detected = drop;
    CombFaultSim serial(nl, nl.primaryInputs(), nl.primaryOutputs());
    const FaultSimResult ref = serial.run(u.faults, patterns, opts);

    for (const int threads : {1, 4, 8}) {
      ParallelFsimOptions popts;
      popts.num_threads = threads;
      ParallelFaultSim psim(
          CombFaultSim{nl, nl.primaryInputs(), nl.primaryOutputs()}, popts);
      const FaultSimResult r = psim.run(u.faults, patterns, opts);
      EXPECT_EQ(r.first_detect, ref.first_detect)
          << "threads=" << threads << " drop=" << drop;
      EXPECT_EQ(r.detected, ref.detected);
    }
  }
}

TEST_P(ParallelEquivalence, WindowedMisrRecordsMatchSerial) {
  const Netlist nl = randomSeq(GetParam() ^ 0x51, 7, 4, 50);
  const FaultUniverse u = enumerateStuckAt(nl);
  const auto stim = randomStimulus(GetParam() ^ 0xACE, 128, 7);
  const CyclePatternSource patterns(stim, nl.primaryInputs().size());

  MisrSpec misr;
  misr.width = 12;
  misr.poly = 0b100000101001ull | 1u;
  misr.feeds.resize(12);
  const auto& pos = nl.primaryOutputs();
  for (std::size_t i = 0; i < pos.size(); ++i) {
    misr.feeds[i % 12].push_back(pos[i]);
  }

  FaultSimOptions opts;
  opts.cycles = 128;
  opts.windows = 16;
  opts.misr = misr;
  FaultSimOptions single = opts;
  single.num_threads = 1;  // the bare engine's own pass
  const FaultSimResult ref = SeqFaultSim(nl).run(u.faults, patterns, single);

  ParallelFsimOptions popts;
  popts.num_threads = 4;
  popts.shard_faults = 29;
  ParallelFaultSim psim(SeqFaultSim{nl}, popts);
  const FaultSimResult r = psim.run(u.faults, patterns, opts);

  EXPECT_EQ(r.first_detect, ref.first_detect);
  EXPECT_EQ(r.window_mask, ref.window_mask);
  EXPECT_EQ(r.misr_detect, ref.misr_detect);
  EXPECT_EQ(r.sig_words_per_fault, ref.sig_words_per_fault);
  EXPECT_EQ(r.window_sig, ref.window_sig);
}

void expectSameRecords(const FaultSimResult& got, const FaultSimResult& want,
                       const char* what) {
  EXPECT_EQ(got.first_detect, want.first_detect) << what;
  EXPECT_EQ(got.window_mask, want.window_mask) << what;
  EXPECT_EQ(got.misr_detect, want.misr_detect) << what;
  EXPECT_EQ(got.sig_words_per_fault, want.sig_words_per_fault) << what;
  EXPECT_EQ(got.window_sig, want.window_sig) << what;
  EXPECT_EQ(got.detect_patterns, want.detect_patterns) << what;
  EXPECT_EQ(got.detected, want.detected) << what;
  EXPECT_EQ(got.patterns_applied, want.patterns_applied) << what;
}

TEST_P(ParallelEquivalence, SeqKernelMatchesSweepReference) {
  // The activity-gated kernel against the full-sweep kernel it replaced.
  // The small netlist graded on its whole universe keeps most machines
  // diverged (mostly swept cycles); the large one graded on a few faults
  // diverges in small cones (mostly event-driven cycles), and detections
  // and captures move groups between the two.
  struct Shape {
    int state_bits;
    int gates;
    std::size_t faults;  // 0 => whole universe
  };
  // gates == 0 grades the same-type chains, whose good-machine runs read
  // their own outputs.
  for (const Shape shape :
       {Shape{5, 70, 0}, Shape{24, 900, 45}, Shape{0, 0, 0}}) {
    const Netlist nl =
        shape.gates == 0
            ? testref::sameTypeChains()
            : randomSeq(GetParam() ^ static_cast<std::uint64_t>(shape.gates),
                        8, shape.state_bits, shape.gates);
    std::vector<Fault> faults = enumerateStuckAt(nl).faults;
    if (shape.faults > 0) {
      std::mt19937_64 rng(GetParam());
      std::shuffle(faults.begin(), faults.end(), rng);
      faults.resize(shape.faults);
    }
    for (const Fault& f : toTransitionFaults(faults)) faults.push_back(f);
    const auto stim = randomStimulus(GetParam() ^ 0x5EE9, 160, 8);
    const CyclePatternSource patterns(stim, nl.primaryInputs().size());

    MisrSpec misr;
    misr.width = 9;
    misr.poly = 0b000010001;  // x^9 + x^4 + 1
    misr.feeds.resize(9);
    const auto& pos = nl.primaryOutputs();
    for (std::size_t i = 0; i < pos.size(); ++i) {
      misr.feeds[i % 9].push_back(pos[i]);
    }

    FaultSimOptions drop;
    drop.cycles = 160;
    FaultSimOptions no_drop = drop;
    no_drop.drop_detected = false;
    FaultSimOptions signature = drop;  // MISR without windows: no ladder
    signature.misr = misr;
    FaultSimOptions records = signature;
    records.windows = 20;
    FaultSimOptions observed = drop;  // first-K records at internal points
    observed.record_detections = 3;
    observed.observe = {pos[0], nl.dffs()[0].d, nl.dffs()[1].q};

    // A bare engine runs its own single pass at 0 or 1 threads without a
    // prepass, and hands 3 threads or a ladder to ParallelFaultSim; every
    // route must reproduce the reference, and the MISR curve of the first.
    for (const FaultSimOptions* opts :
         {&drop, &no_drop, &signature, &records, &observed}) {
      const FaultSimResult want =
          testref::sweepReferenceRun(nl, faults, stim, *opts);
      std::vector<std::uint32_t> curve;
      for (const int threads : {0, 1, 3}) {
        for (const int prepass : {0, 16}) {
          FaultSimOptions o = *opts;
          o.num_threads = threads;
          o.prepass_cycles = prepass;
          const FaultSimResult got = SeqFaultSim(nl).run(faults, patterns, o);
          expectSameRecords(got, want, "gated kernel vs sweep reference");
          if (threads == 0 && prepass == 0) curve = got.misr_curve;
          EXPECT_EQ(got.misr_curve, curve);
        }
      }
    }
    EXPECT_EQ(SignatureProgram(nl, misr).sign(stim, 160),
              testref::sweepGoodSignature(nl, stim, 160, misr));
  }
}

TEST(SeqTraceMemo, ResultsFollowStimulusContentNotItsAddress) {
  // One engine family grades A, then B written over A's buffer in place
  // (same pointer, same length), then A again: a trace memo keyed by the
  // buffer's address would hand B (and the second A) a stale good machine.
  const Netlist nl = randomSeq(77, 8, 6, 120);
  const FaultUniverse u = enumerateStuckAt(nl);
  const auto a = randomStimulus(1, 128, 8);
  const auto b = randomStimulus(2, 128, 8);

  FaultSimOptions drop;  // ladder stages 16, 64, 128 reuse one trace
  drop.cycles = 128;
  drop.prepass_cycles = 16;
  FaultSimOptions records;
  records.cycles = 128;
  records.windows = 8;
  records.misr = MisrSpec{4, 0b0011, {{nl.primaryOutputs()[0]},
                                      {nl.primaryOutputs()[1]},
                                      {nl.primaryOutputs()[2]},
                                      {nl.primaryOutputs()[3]}}};

  ParallelFsimOptions popts;
  popts.num_threads = 2;
  popts.shard_faults = 31;
  ParallelFaultSim psim(SeqFaultSim{nl}, popts);
  std::vector<std::uint64_t> buf = a;
  for (const auto* stim : {&a, &b, &a}) {
    std::copy(stim->begin(), stim->end(), buf.begin());
    const CyclePatternSource patterns(buf, nl.primaryInputs().size());
    const CyclePatternSource original(*stim, nl.primaryInputs().size());
    for (const FaultSimOptions* opts : {&drop, &records}) {
      const FaultSimResult got = psim.run(u.faults, patterns, *opts);
      const FaultSimResult fresh =
          SeqFaultSim(nl).run(u.faults, original, *opts);
      expectSameRecords(got, fresh, stim == &a ? "stimulus A" : "stimulus B");
    }
  }
  // The two stimuli must actually grade differently for the check to bite.
  const std::size_t width = nl.primaryInputs().size();
  EXPECT_NE(
      SeqFaultSim(nl).run(u.faults, CyclePatternSource(a, width), drop)
          .first_detect,
      SeqFaultSim(nl).run(u.faults, CyclePatternSource(b, width), drop)
          .first_detect);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelEquivalence,
                         ::testing::Values(11, 22, 33, 44));

TEST(PatternBlockLaneMask, ValidCountsProduceDenseMasks) {
  PatternBlock blk;
  blk.count = 64;
  EXPECT_EQ(blk.laneMask(), ~std::uint64_t{0});
  blk.count = 3;
  EXPECT_EQ(blk.laneMask(), 0b111u);
  blk.count = 1;
  EXPECT_EQ(blk.laneMask(), 0b1u);
}

TEST(PatternBlockLaneMask, OutOfRangeCountsAreClampedNotZeroed) {
  // Overflowing counts clamp to a full block; nonpositive counts clamp to
  // one lane — the old behavior silently returned an empty mask and ate
  // every detection. Debug builds assert instead (see death test below).
#ifdef NDEBUG
  PatternBlock blk;
  blk.count = 100;
  EXPECT_EQ(blk.laneMask(), ~std::uint64_t{0});
  blk.count = 0;
  EXPECT_EQ(blk.laneMask(), 1u);
  blk.count = -7;
  EXPECT_EQ(blk.laneMask(), 1u);
#else
  GTEST_SKIP() << "clamping is the release-mode fallback; this build asserts";
#endif
}

TEST(PatternBlockLaneMaskDeathTest, DebugBuildsAssertOnBadCount) {
  PatternBlock blk;
  blk.count = 0;
  EXPECT_DEBUG_DEATH((void)blk.laneMask(), "count out of");
}

TEST(RandomPatternSource, SameBlockSameBitsUnderAnySchedule) {
  const RandomPatternSource src(0xFACE, 12, 192);
  PatternBlock a, b;
  src.fill(128, a);  // out-of-order first touch
  src.fill(0, b);
  src.fill(128, b);
  EXPECT_EQ(a.inputs, b.inputs);
  EXPECT_EQ(a.count, b.count);
}

TEST(CyclePatternSource, TransposesPackedWordsIntoLanes) {
  const std::vector<std::uint64_t> words = {0b01, 0b10, 0b11};
  const CyclePatternSource src(words, 2);
  PatternBlock blk;
  src.fill(0, blk);
  ASSERT_EQ(blk.inputs.size(), 2u);
  EXPECT_EQ(blk.count, 3);
  EXPECT_EQ(blk.inputs[0], 0b101u);  // input 0 high in cycles 0 and 2
  EXPECT_EQ(blk.inputs[1], 0b110u);  // input 1 high in cycles 1 and 2
}

TEST(CombFaultSimRun, RejectsTransitionFaultsAndMisr) {
  const Netlist nl = randomComb(7, 6, 20);
  CombFaultSim fsim(nl, nl.primaryInputs(), nl.primaryOutputs());
  const RandomPatternSource patterns(1, nl.primaryInputs().size(), 64);
  FaultSimOptions opts;
  opts.cycles = 64;
  const Fault tdf{nl.primaryInputs()[0], Fault::kNoGate, 0,
                  FaultKind::kSlowRise};
  EXPECT_THROW((void)fsim.run(std::span<const Fault>(&tdf, 1), patterns,
                              opts),
               std::invalid_argument);
  opts.misr = MisrSpec{};
  EXPECT_THROW((void)fsim.run(std::span<const Fault>{}, patterns, opts),
               std::invalid_argument);
}

TEST(CombFaultSimRun, DictionaryRecordsFirstKAscending) {
  const Netlist nl = randomComb(99, 8, 40);
  const FaultUniverse u = enumerateStuckAt(nl);
  CombFaultSim fsim(nl, nl.primaryInputs(), nl.primaryOutputs());
  const RandomPatternSource patterns(3, nl.primaryInputs().size(), 256);
  FaultSimOptions opts;
  opts.cycles = 256;
  opts.prepass_cycles = 0;
  opts.record_detections = 4;
  const FaultSimResult r = fsim.run(u.faults, patterns, opts);
  ASSERT_EQ(r.detect_patterns.size(), u.faults.size());
  for (std::size_t i = 0; i < u.faults.size(); ++i) {
    const auto& list = r.detect_patterns[i];
    EXPECT_LE(list.size(), 4u);
    EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
    if (r.first_detect[i] >= 0) {
      ASSERT_FALSE(list.empty());
      EXPECT_EQ(static_cast<std::int32_t>(list.front()), r.first_detect[i]);
    } else {
      EXPECT_TRUE(list.empty());
    }
  }
}

}  // namespace
}  // namespace corebist
