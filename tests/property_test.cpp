// Cross-engine property tests: invariants that tie the independent
// implementations (combinational vs sequential fault simulation, MISR
// linearity, scan-view vs functional semantics) to each other.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <span>

#include "bist/misr.hpp"
#include "fault/comb_fsim.hpp"
#include "fault/fault.hpp"
#include "fault/parallel_fsim.hpp"
#include "fault/seq_fsim.hpp"
#include "netlist/builder.hpp"
#include "scan/scan.hpp"
#include "sim/seq_sim.hpp"

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
    const auto t = static_cast<GateType>(
        2 + rng() % 9);  // kBuf .. kMux2
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

class RandomCircuitProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomCircuitProperty, CombAndSeqFaultSimAgreeOnCombCircuits) {
  // For a purely combinational circuit, a fault is detected by pattern p in
  // the PPSFP engine iff the sequential engine (which applies one pattern
  // per cycle) reports first detection at the first cycle carrying a
  // detecting pattern.
  const Netlist nl = randomComb(GetParam(), 10, 60);
  const FaultUniverse u = enumerateStuckAt(nl);
  const auto& pis = nl.primaryInputs();

  std::mt19937_64 rng(GetParam() ^ 0xFEED);
  const int cycles = 64;
  std::vector<std::uint64_t> stim(cycles);
  for (auto& w : stim) w = rng() & ((1u << pis.size()) - 1u);

  // Sequential run.
  SeqFaultSim sfsim(nl);
  FaultSimOptions so;
  so.cycles = cycles;
  so.prepass_cycles = 0;
  const auto seq =
      sfsim.run(u.faults, CyclePatternSource(stim, pis.size()), so);

  // Combinational run with the same 64 vectors as one block.
  CombFaultSim cfsim(nl, pis, nl.primaryOutputs());
  PatternBlock blk;
  blk.inputs.resize(pis.size());
  for (int c = 0; c < cycles; ++c) {
    for (std::size_t j = 0; j < pis.size(); ++j) {
      if ((stim[static_cast<std::size_t>(c)] >> j) & 1u) {
        blk.inputs[j] |= std::uint64_t{1} << c;
      }
    }
  }
  cfsim.loadBlock(blk);
  for (std::size_t i = 0; i < u.faults.size(); ++i) {
    const auto det = cfsim.detect(u.faults[i]);
    if (det.none()) {
      EXPECT_EQ(seq.first_detect[i], -1) << describeFault(nl, u.faults[i]);
    } else {
      EXPECT_EQ(seq.first_detect[i], det.firstLane())
          << describeFault(nl, u.faults[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCircuitProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

class MisrLinearity : public ::testing::TestWithParam<int> {};

TEST_P(MisrLinearity, SignatureIsLinearOverGf2) {
  // MISRs are linear: sig(x ^ y) == sig(x) ^ sig(y) for zero-initialized
  // registers. This is the algebraic basis of signature analysis.
  const int width = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(width) * 77);
  for (int trial = 0; trial < 20; ++trial) {
    Misr ma(width);
    Misr mb(width);
    Misr mab(width);
    for (int c = 0; c < 100; ++c) {
      const std::uint64_t a = rng();
      const std::uint64_t bword = rng();
      ma.stepWide(a, 48);
      mb.stepWide(bword, 48);
      mab.stepWide(a ^ bword, 48);
    }
    EXPECT_EQ(mab.state(), ma.state() ^ mb.state());
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, MisrLinearity,
                         ::testing::Values(8, 12, 16, 20, 24));

TEST(ScanProperty, CaptureEqualsFunctionalStep) {
  // scan_en=0 on the scanned module is exactly one functional clock: load
  // any state through the chain, capture once, and the flop contents equal
  // the original module's next-state function.
  Netlist nl("m");
  Builder b(nl);
  const Bus x = b.input("x", 6);
  const Bus q = b.state("q", 6);
  b.connect(q, b.add(q, x));
  b.output("q", q);
  nl.validate();

  const Netlist scanned = buildScannedModule(nl);
  SeqSim sim(scanned);
  sim.reset();
  std::mt19937_64 rng(9);
  for (int trial = 0; trial < 30; ++trial) {
    const unsigned state = static_cast<unsigned>(rng() & 0x3F);
    const unsigned input = static_cast<unsigned>(rng() & 0x3F);
    // Shift the state in (MSB-first so cell 0 ends with bit 0).
    sim.comb().setBusBroadcast(scanned.findPort("scan_en")->bits, 1);
    sim.comb().setBusBroadcast(scanned.findPort("x")->bits, 0);
    for (int i = 5; i >= 0; --i) {
      sim.comb().setBusBroadcast(scanned.findPort("scan_in_0")->bits,
                                 (state >> i) & 1u);
      sim.step();
    }
    // One functional capture.
    sim.comb().setBusBroadcast(scanned.findPort("scan_en")->bits, 0);
    sim.comb().setBusBroadcast(scanned.findPort("x")->bits, input);
    sim.step();
    sim.evalComb();
    EXPECT_EQ(sim.comb().getBusLane(scanned.findPort("q")->bits, 0),
              (state + input) & 0x3Fu);
  }
}

TEST(FaultProperty, DetectionMasksAreSubsetsOfLaneMask) {
  const Netlist nl = randomComb(42, 8, 40);
  const FaultUniverse u = enumerateStuckAt(nl);
  CombFaultSim fsim(nl, nl.primaryInputs(), nl.primaryOutputs());
  PatternBlock blk;
  blk.inputs.assign(nl.primaryInputs().size(), 0);
  std::mt19937_64 rng(42);
  for (auto& w : blk.inputs) w = rng();
  blk.count = 17;  // partial block
  fsim.loadBlock(blk);
  for (const Fault& f : u.faults) {
    const auto det = fsim.detect(f);
    EXPECT_EQ(det.word(0) & ~blk.laneMask(), 0u);
    for (int wi = 1; wi < CombFaultSim::kWords; ++wi) {
      EXPECT_EQ(det.word(wi), 0u);
    }
  }
}

TEST(FaultProperty, SaFaultOnNetWithConstantValueIsUndetectable) {
  // A stuck-at equal to the only value a net ever takes cannot be detected.
  Netlist nl("t");
  Builder b(nl);
  const Bus x = b.input("x", 2);
  const NetId t = b.and2(x[0], b.not1(x[0]));  // always 0
  b.output("y", Bus{b.or2(t, x[1])});
  CombFaultSim fsim(nl, nl.primaryInputs(), nl.primaryOutputs());
  PatternBlock blk;
  blk.inputs = {0b0110, 0b1010};  // exhaustive on 2 inputs (4 lanes)
  blk.count = 4;
  fsim.loadBlock(blk);
  const Fault sa0{t, Fault::kNoGate, 0, FaultKind::kSa0};
  EXPECT_TRUE(fsim.detect(sa0).none());
  const Fault sa1{t, Fault::kNoGate, 0, FaultKind::kSa1};
  EXPECT_TRUE(fsim.detect(sa1).any());
}

/// Random sequential circuit with flip-flop feedback: a combinational core
/// over the inputs and the state register, whose tail drives most D inputs.
/// Flop 0 captures a primary input and flop 1 captures flop 0 directly
/// (source-to-source captures), and the last flop is also an output.
Netlist randomFeedbackSeq(std::uint64_t seed, int width, int state_bits,
                          int gates) {
  Netlist nl("rand_fb");
  Builder b(nl);
  const Bus x = b.input("x", width);
  const Bus q = b.state("q", state_bits);
  std::vector<NetId> pool(x.begin(), x.end());
  pool.insert(pool.end(), q.begin(), q.end());
  std::mt19937_64 rng(seed);
  for (int g = 0; g < gates; ++g) {
    const auto t = static_cast<GateType>(2 + rng() % 9);  // kBuf .. kMux2
    const NetId a = pool[rng() % pool.size()];
    const NetId bnet = pool[rng() % pool.size()];
    const NetId s = pool[rng() % pool.size()];
    switch (gateArity(t)) {
      case 1:
        pool.push_back(nl.addGate1(t, a));
        break;
      case 2:
        pool.push_back(nl.addGate2(t, a, bnet));
        break;
      default:
        pool.push_back(nl.addMux(a, bnet, s));
        break;
    }
  }
  Bus d(pool.end() - state_bits, pool.end());
  d[0] = x[0];
  d[1] = q[0];
  b.connect(q, d);
  Bus outs(pool.end() - 5, pool.end());
  outs.push_back(q[static_cast<std::size_t>(state_bits - 1)]);
  b.output("y", outs);
  nl.validate();
  return nl;
}

/// Per-fault records of the scalar oracle, in FaultSimResult layout.
struct OracleRecords {
  std::vector<std::int32_t> first_detect;
  std::vector<std::uint64_t> window_mask;
  std::vector<char> misr_detect;
  std::vector<std::uint64_t> window_sig;
  std::vector<std::uint32_t> misr_curve;  // per cycle
};

/// Scalar sequential oracle: one machine at a time, one bool per net, each
/// net computed from its driver on demand. It shares no code with the
/// fault-parallel kernel: faults are single (stem or branch, stuck-at or
/// gross-delay transition), the MISR shifts bit by bit, and windows are
/// recomputed from the definition.
class ScalarSeqOracle {
 public:
  ScalarSeqOracle(const Netlist& nl, std::span<const std::uint64_t> stim,
                  int cycles, int windows, const MisrSpec& misr)
      : nl_(nl), stim_(stim), cycles_(cycles), windows_(windows), misr_(misr) {
    good_ = simulate(nullptr);
  }

  OracleRecords grade(std::span<const Fault> faults) const {
    OracleRecords r;
    const int sig_words = (windows_ * misr_.width + 63) / 64;
    r.window_sig.assign(faults.size() * static_cast<std::size_t>(sig_words), 0);
    r.misr_curve.assign(static_cast<std::size_t>(cycles_), 0);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const Trace bad = simulate(&faults[i]);
      for (int c = 0; c < cycles_; ++c) {
        const auto cu = static_cast<std::size_t>(c);
        if (bad.misr[cu] != good_.misr[cu]) ++r.misr_curve[cu];
      }
      std::int32_t first = -1;
      std::uint64_t mask = 0;
      for (int c = 0; c < cycles_; ++c) {
        const auto cu = static_cast<std::size_t>(c);
        if (bad.outputs[cu] == good_.outputs[cu]) continue;
        if (first < 0) first = c;
        mask |= std::uint64_t{1} << (c * windows_ / cycles_);
      }
      for (int c = 0; c < cycles_; ++c) {
        const int w = c * windows_ / cycles_;
        if ((c + 1) * windows_ / cycles_ == w && c + 1 != cycles_) continue;
        const auto cu = static_cast<std::size_t>(c);
        for (int j = 0; j < misr_.width; ++j) {
          if (bad.misr[cu][static_cast<std::size_t>(j)] ==
              good_.misr[cu][static_cast<std::size_t>(j)]) {
            continue;
          }
          const int bit = w * misr_.width + j;
          r.window_sig[i * static_cast<std::size_t>(sig_words) +
                       static_cast<std::size_t>(bit / 64)] |=
              std::uint64_t{1} << (bit % 64);
        }
      }
      r.first_detect.push_back(first);
      r.window_mask.push_back(mask);
      r.misr_detect.push_back(bad.misr.back() != good_.misr.back() ? 1 : 0);
    }
    return r;
  }

 private:
  struct Trace {
    std::vector<std::vector<bool>> outputs;  // per cycle, per output
    std::vector<std::vector<bool>> misr;     // per cycle, per tap
  };

  static bool evalGate(GateType t, bool a, bool b, bool s) {
    switch (t) {
      case GateType::kConst0: return false;
      case GateType::kConst1: return true;
      case GateType::kBuf: return a;
      case GateType::kNot: return !a;
      case GateType::kAnd: return a && b;
      case GateType::kNand: return !(a && b);
      case GateType::kOr: return a || b;
      case GateType::kNor: return !(a || b);
      case GateType::kXor: return a != b;
      case GateType::kXnor: return a == b;
      case GateType::kMux2: return s ? b : a;
    }
    return false;
  }

  /// What a faulty site shows in place of its raw value this cycle.
  static bool present(const Fault& f, bool raw, bool prev) {
    switch (f.kind) {
      case FaultKind::kSa0: return false;
      case FaultKind::kSa1: return true;
      case FaultKind::kSlowRise: return raw && prev;
      case FaultKind::kSlowFall: return raw || prev;
    }
    return raw;
  }

  Trace simulate(const Fault* f) const {
    const auto& dffs = nl_.dffs();
    std::vector<bool> state(dffs.size(), false);
    std::vector<bool> taps(static_cast<std::size_t>(misr_.width), false);
    bool prev = false;  // raw site value of the previous cycle
    Trace t;
    for (int c = 0; c < cycles_; ++c) {
      std::vector<int> v(nl_.numNets(), -1);
      bool raw = false;
      for (std::size_t j = 0; j < nl_.primaryInputs().size(); ++j) {
        v[nl_.primaryInputs()[j]] =
            static_cast<int>((stim_[static_cast<std::size_t>(c)] >> j) & 1u);
      }
      for (std::size_t i = 0; i < dffs.size(); ++i) {
        v[dffs[i].q] = state[i] ? 1 : 0;
      }
      if (f != nullptr && f->isStem() && v[f->net] >= 0) {
        raw = v[f->net] != 0;
        v[f->net] = present(*f, raw, prev) ? 1 : 0;
      }
      // On-demand evaluation from each net's driver.
      std::function<bool(NetId)> value = [&](NetId n) -> bool {
        if (v[n] >= 0) return v[n] != 0;
        const GateId g = nl_.driverOf(n);
        bool out = false;
        if (g != Netlist::kNoDriver) {
          const Gate& gate = nl_.gates()[g];
          bool in[3] = {false, false, false};
          for (int p = 0; p < gate.nin; ++p) {
            in[p] = value(gate.in[static_cast<std::size_t>(p)]);
            if (f != nullptr && f->gate == g && f->pin == p) {
              raw = in[p];
              in[p] = present(*f, raw, prev);
            }
          }
          out = evalGate(gate.type, in[0], in[1], in[2]);
        }
        if (f != nullptr && f->isStem() && f->net == n) {
          raw = out;
          out = present(*f, raw, prev);
        }
        v[n] = out ? 1 : 0;
        return out;
      };
      for (NetId n = 0; n < nl_.numNets(); ++n) value(n);
      prev = raw;

      std::vector<bool> outs;
      for (const NetId po : nl_.primaryOutputs()) outs.push_back(v[po] != 0);
      t.outputs.push_back(outs);
      // MISR: tap j takes tap j-1, the feedback where the polynomial has a
      // term, and the XOR of its feeds.
      const bool msb = taps.back();
      std::vector<bool> next(taps.size());
      for (int j = 0; j < misr_.width; ++j) {
        bool bit = j > 0 && taps[static_cast<std::size_t>(j - 1)];
        if (((misr_.poly >> j) & 1u) != 0) bit = bit != msb;
        for (const NetId n : misr_.feeds[static_cast<std::size_t>(j)]) {
          bit = bit != (v[n] != 0);
        }
        next[static_cast<std::size_t>(j)] = bit;
      }
      taps = next;
      t.misr.push_back(taps);
      for (std::size_t i = 0; i < dffs.size(); ++i) {
        state[i] = v[dffs[i].d] != 0;
      }
    }
    return t;
  }

  const Netlist& nl_;
  std::span<const std::uint64_t> stim_;
  int cycles_;
  int windows_;
  const MisrSpec& misr_;
  Trace good_;
};

class SeqOracleProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeqOracleProperty, SeqFaultSimMatchesScalarOracle) {
  const Netlist nl = randomFeedbackSeq(GetParam(), 6, 5, 45);
  const std::vector<Fault> saf =
      enumerateStuckAt(nl, /*collapse=*/false).faults;
  std::vector<Fault> faults = saf;
  for (const Fault& f : toTransitionFaults(saf)) faults.push_back(f);

  // The universe covers every kind of site the kernel injects differently.
  const auto has = [&](auto pred) {
    return std::any_of(faults.begin(), faults.end(), pred);
  };
  EXPECT_TRUE(has([&](const Fault& f) {
    return f.isStem() && nl.driverOf(f.net) == Netlist::kNoDriver &&
           !nl.isStateNet(f.net);
  }));  // primary-input stems
  EXPECT_TRUE(has([&](const Fault& f) {
    return f.isStem() && nl.isStateNet(f.net);
  }));  // flip-flop output stems
  EXPECT_TRUE(has([&](const Fault& f) {
    return f.isStem() && nl.driverOf(f.net) != Netlist::kNoDriver;
  }));  // gate-output stems
  EXPECT_TRUE(has([](const Fault& f) { return !f.isStem(); }));  // branches
  for (const FaultKind k : {FaultKind::kSa0, FaultKind::kSa1,
                            FaultKind::kSlowRise, FaultKind::kSlowFall}) {
    EXPECT_TRUE(has([k](const Fault& f) { return f.kind == k; }));
  }

  const int cycles = 96;
  const int windows = 8;
  std::mt19937_64 rng(GetParam() ^ 0x5EED);
  std::vector<std::uint64_t> stim(static_cast<std::size_t>(cycles));
  for (auto& w : stim) w = rng() & 0x3Fu;
  MisrSpec misr;
  misr.width = 5;
  misr.poly = 0b00101;  // x^5 + x^2 + 1
  misr.feeds.resize(5);
  const auto& pos = nl.primaryOutputs();
  for (std::size_t i = 0; i < pos.size(); ++i) {
    misr.feeds[i % 5].push_back(pos[i]);
  }

  const OracleRecords want =
      ScalarSeqOracle(nl, stim, cycles, windows, misr).grade(faults);
  EXPECT_GT(std::count_if(want.first_detect.begin(), want.first_detect.end(),
                          [](std::int32_t fd) { return fd >= 0; }),
            static_cast<std::ptrdiff_t>(faults.size() / 4));

  FaultSimOptions drop;
  drop.cycles = cycles;
  drop.prepass_cycles = 8;  // ladder 8, 32, 96
  drop.num_threads = 1;
  FaultSimOptions no_drop = drop;
  no_drop.drop_detected = false;
  no_drop.prepass_cycles = 0;
  FaultSimOptions records = drop;
  records.windows = windows;
  records.misr = misr;

  const CyclePatternSource patterns(stim, nl.primaryInputs().size());
  ParallelFsimOptions popts;
  popts.num_threads = 2;
  popts.shard_faults = 40;
  for (const FaultSimOptions* opts : {&drop, &no_drop, &records}) {
    // The serial side is the bare engine's own single pass; the ladder
    // runs in the sharded one.
    FaultSimOptions single = *opts;
    single.prepass_cycles = 0;
    single.num_threads = 1;
    const FaultSimResult serial = SeqFaultSim(nl).run(faults, patterns, single);
    ParallelFaultSim sharded(SeqFaultSim{nl}, popts);
    const FaultSimResult parallel = sharded.run(faults, patterns, *opts);
    for (const FaultSimResult* got : {&serial, &parallel}) {
      EXPECT_EQ(got->first_detect, want.first_detect);
      if (opts == &records) {
        EXPECT_EQ(got->window_mask, want.window_mask);
        EXPECT_EQ(got->misr_detect, want.misr_detect);
        EXPECT_EQ(got->window_sig, want.window_sig);
        EXPECT_EQ(got->misr_curve, want.misr_curve);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeqOracleProperty,
                         ::testing::Values(7, 19, 31, 43));

}  // namespace
}  // namespace corebist
