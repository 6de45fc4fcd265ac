// PODEM search checks.
//
//  * Per-call equivalence: the event-driven Podem against the frozen
//    full-sweep reference (podem_sweep_reference.hpp). For every targeted
//    fault the returned vector, backtracksUsed() and lastAborted() must be
//    identical, with and without SCOAP, on random netlists and on the
//    scanned case-study views.
//  * Exhaustive oracle: a scalar two-valued evaluator written here, sharing
//    no code with podem.cpp or the fault-sim engines. Every returned test
//    must detect its fault for every fill of its X bits, and every nullopt
//    reported as a proof (!lastAborted()) must be undetectable over all
//    input vectors.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "analyze/scoap.hpp"
#include "atpg/podem.hpp"
#include "fault/fault.hpp"
#include "ldpc/gatelevel.hpp"
#include "netlist/builder.hpp"
#include "podem_sweep_reference.hpp"
#include "scan/scan.hpp"

namespace corebist {
namespace {

/// Random combinational DAG over every gate type, constants included: each
/// gate reads earlier pool nets, so gate id order is a topological order.
/// Outputs are every net no gate reads, so no logic is trivially
/// unobservable, plus two random nets, so some fanout stems are observed
/// too.
Netlist randomComb(std::uint64_t seed, int width, int gates) {
  Netlist nl("podem" + std::to_string(seed));
  Builder b(nl);
  std::mt19937_64 rng(seed);
  const Bus x = b.input("x", width);
  std::vector<NetId> pool(x.begin(), x.end());
  for (int i = 0; i < gates; ++i) {
    const auto pick = [&] { return pool[rng() % pool.size()]; };
    const unsigned roll = static_cast<unsigned>(rng() % 40);
    NetId o = kNullNet;
    if (roll == 0) {
      o = nl.addGate(rng() % 2 != 0 ? GateType::kConst1 : GateType::kConst0,
                     {});
    } else {
      const GateType t = static_cast<GateType>(2 + roll % 9);
      if (t == GateType::kBuf || t == GateType::kNot) {
        o = b.g1(t, pick());
      } else if (t == GateType::kMux2) {
        o = b.mux(pick(), pick(), pick());
      } else {
        o = b.g2(t, pick(), pick());
      }
    }
    pool.push_back(o);
  }
  std::vector<char> read(nl.numNets(), 0);
  for (const Gate& g : nl.gates()) {
    for (int p = 0; p < g.nin; ++p) read[g.in[static_cast<std::size_t>(p)]] = 1;
  }
  Bus out;
  for (const NetId n : pool) {
    if (read[n] == 0) out.push_back(n);
  }
  for (int i = 0; i < 2; ++i) out.push_back(pool[rng() % pool.size()]);
  b.output("y", out);
  nl.validate();
  return nl;
}

// ---------------------------------------------------------------------------
// Per-call equivalence with the full-sweep reference
// ---------------------------------------------------------------------------

/// Run both searches on every fault; returns the number of faults checked.
std::size_t expectSameSearch(const Netlist& nl, std::span<const NetId> inputs,
                             std::span<const NetId> observed,
                             const std::vector<Fault>& faults, int limit,
                             const ScoapScores* scoap,
                             const std::string& what) {
  Podem fast(nl, inputs, observed, limit);
  testref::SweepPodem ref(nl, inputs, observed, limit);
  fast.setScoap(scoap);
  ref.setScoap(scoap);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const auto tf = fast.generate(faults[i]);
    const auto tr = ref.generate(faults[i]);
    EXPECT_EQ(tf, tr) << what << " fault " << i << " ("
                      << describeFault(nl, faults[i]) << ")";
    EXPECT_EQ(fast.backtracksUsed(), ref.backtracksUsed())
        << what << " fault " << i;
    EXPECT_EQ(fast.lastAborted(), ref.lastAborted()) << what << " fault " << i;
    if (::testing::Test::HasFailure()) return i + 1;
  }
  return faults.size();
}

/// Every `stride`-th fault, starting at a seeded offset.
std::vector<Fault> sampleFaults(const std::vector<Fault>& all,
                                std::size_t stride, std::uint64_t seed) {
  std::vector<Fault> out;
  for (std::size_t i = seed % stride; i < all.size(); i += stride) {
    out.push_back(all[i]);
  }
  return out;
}

class PodemEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PodemEquivalence, RandomNetlistsMatchTheSweepReference) {
  const std::uint64_t seed = GetParam();
  for (int k = 0; k < 4; ++k) {
    const std::uint64_t s = seed * 16 + static_cast<std::uint64_t>(k);
    const Netlist nl = randomComb(s, 6 + static_cast<int>(s % 10),
                                  20 + static_cast<int>(s % 50));
    // Uncollapsed: every stem and branch site, both polarities.
    const std::vector<Fault> faults = enumerateStuckAt(nl, false).faults;
    const ScoapScores sc = computeScoap(nl, nl.primaryOutputs());
    for (const int limit : {24, 4096}) {
      for (const ScoapScores* scoap : {static_cast<const ScoapScores*>(nullptr),
                                       &sc}) {
        const std::string what = "seed " + std::to_string(s) + " limit " +
                                 std::to_string(limit) +
                                 (scoap != nullptr ? " scoap" : " base");
        EXPECT_EQ(expectSameSearch(nl, nl.primaryInputs(),
                                   nl.primaryOutputs(), faults, limit, scoap,
                                   what),
                  faults.size());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PodemEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

struct ScannedView {
  Netlist scanned;
  ScanView view;
  std::vector<Fault> faults;
};

ScannedView scanCaseStudy(const Netlist& nl, const std::vector<int>& chains) {
  ScannedView s{buildScannedModule(nl, chains), {}, {}};
  s.view = makeScanView(s.scanned, chains);
  s.faults = enumerateStuckAt(s.scanned).faults;
  return s;
}

TEST(PodemCaseStudy, ControlUnitWithScoapMatchesTheSweepReference) {
  const ScannedView s = scanCaseStudy(ldpc::buildControlUnit(), {14, 28});
  const ScoapScores sc = computeScoap(s.scanned, s.view.observed);
  const std::vector<Fault> sample = sampleFaults(s.faults, 32, 1);
  EXPECT_EQ(expectSameSearch(s.scanned, s.view.inputs, s.view.observed,
                             sample, 4096, &sc, "CONTROL_UNIT scoap"),
            sample.size());
}

TEST(PodemCaseStudy, BitNodeMatchesTheSweepReference) {
  const ScannedView s = scanCaseStudy(ldpc::buildBitNode(), {});
  const std::vector<Fault> sample = sampleFaults(s.faults, 32, 2);
  EXPECT_EQ(expectSameSearch(s.scanned, s.view.inputs, s.view.observed,
                             sample, 24, nullptr, "BIT_NODE"),
            sample.size());
}

TEST(PodemCaseStudy, CheckNodeSampleMatchesTheSweepReference) {
  const ScannedView s = scanCaseStudy(ldpc::buildCheckNode(), {});
  const std::vector<Fault> sample = sampleFaults(s.faults, 3000, 3);
  EXPECT_EQ(expectSameSearch(s.scanned, s.view.inputs, s.view.observed,
                             sample, 24, nullptr, "CHECK_NODE"),
            sample.size());
}

// ---------------------------------------------------------------------------
// Exhaustive oracle
// ---------------------------------------------------------------------------

/// Scalar two-valued simulation, one input vector and one machine at a
/// time. Relies on gate id order being topological (true for randomComb
/// netlists). The good machine's outputs are tabulated once for every
/// input vector; a query simulates only the faulty machine.
class ScalarOracle {
 public:
  explicit ScalarOracle(const Netlist& nl) : nl_(nl), val_(nl.numNets(), 0) {
    const std::uint32_t vectors = 1u << nl.primaryInputs().size();
    good_.resize(vectors);
    for (std::uint32_t bits = 0; bits < vectors; ++bits) {
      good_[bits] = outputs(bits, nullptr);
    }
  }

  bool detects(std::uint32_t bits, const Fault& f) {
    return outputs(bits, &f) != good_[bits];
  }

 private:
  /// Outputs (bit k = primary output k) of the machine with `fault`, or of
  /// the good machine when null, under input vector `bits`.
  std::uint64_t outputs(std::uint32_t bits, const Fault* fault) {
    const char stuck =
        fault != nullptr && fault->kind == FaultKind::kSa1 ? 1 : 0;
    const auto& pis = nl_.primaryInputs();
    for (std::size_t i = 0; i < pis.size(); ++i) {
      val_[pis[i]] = static_cast<char>((bits >> i) & 1u);
      if (fault != nullptr && fault->isStem() && fault->net == pis[i]) {
        val_[pis[i]] = stuck;
      }
    }
    const auto& gates = nl_.gates();
    for (GateId g = 0; g < gates.size(); ++g) {
      const Gate& gate = gates[g];
      char in[3] = {0, 0, 0};
      for (int p = 0; p < gate.nin; ++p) {
        in[p] = val_[gate.in[static_cast<std::size_t>(p)]];
        if (fault != nullptr && fault->gate == g && fault->pin == p) {
          in[p] = stuck;
        }
      }
      char v = 0;
      switch (gate.type) {
        case GateType::kConst0: v = 0; break;
        case GateType::kConst1: v = 1; break;
        case GateType::kBuf: v = in[0]; break;
        case GateType::kNot: v = static_cast<char>(!in[0]); break;
        case GateType::kAnd: v = static_cast<char>(in[0] && in[1]); break;
        case GateType::kNand: v = static_cast<char>(!(in[0] && in[1])); break;
        case GateType::kOr: v = static_cast<char>(in[0] || in[1]); break;
        case GateType::kNor: v = static_cast<char>(!(in[0] || in[1])); break;
        case GateType::kXor: v = static_cast<char>(in[0] != in[1]); break;
        case GateType::kXnor: v = static_cast<char>(in[0] == in[1]); break;
        case GateType::kMux2: v = in[2] != 0 ? in[1] : in[0]; break;
      }
      if (fault != nullptr && fault->isStem() && fault->net == gate.out) {
        v = stuck;
      }
      val_[gate.out] = v;
    }
    std::uint64_t out = 0;
    const auto& pos = nl_.primaryOutputs();
    for (std::size_t k = 0; k < pos.size(); ++k) {
      out |= static_cast<std::uint64_t>(val_[pos[k]]) << k;
    }
    return out;
  }

  const Netlist& nl_;
  std::vector<char> val_;
  std::vector<std::uint64_t> good_;  // per input vector
};

TEST(PodemOracle, TestsDetectUnderEveryFillAndProofsAreExhaustive) {
  struct Case {
    std::uint64_t seed;
    int width;
    int gates;
  };
  const Case cases[] = {{1001, 4, 14},  {1002, 6, 20},  {1003, 8, 26},
                        {1004, 10, 30}, {1005, 11, 34}, {1006, 12, 36},
                        {1007, 13, 24}, {1008, 14, 20}};
  std::size_t tests = 0;
  std::size_t proofs = 0;
  for (const Case& c : cases) {
    const Netlist nl = randomComb(c.seed, c.width, c.gates);
    ASSERT_LE(nl.primaryOutputs().size(), 64u);  // one oracle output word
    const std::vector<Fault> faults = enumerateStuckAt(nl, false).faults;
    const ScoapScores sc = computeScoap(nl, nl.primaryOutputs());
    ScalarOracle oracle(nl);
    std::vector<char> proven(faults.size(), 0);  // checked exhaustively
    for (const ScoapScores* scoap :
         {static_cast<const ScoapScores*>(nullptr), &sc}) {
      Podem podem(nl, nl.primaryInputs(), nl.primaryOutputs(), 4096);
      podem.setScoap(scoap);
      for (std::size_t i = 0; i < faults.size(); ++i) {
        const Fault& f = faults[i];
        const std::string what = "seed " + std::to_string(c.seed) +
                                 " fault " + describeFault(nl, f) +
                                 (scoap != nullptr ? " scoap" : " base");
        const auto test = podem.generate(f);
        if (test.has_value()) {
          ++tests;
          ASSERT_EQ(test->size(), static_cast<std::size_t>(c.width)) << what;
          std::uint32_t care = 0;
          std::vector<int> xs;
          for (int j = 0; j < c.width; ++j) {
            const Tv v = (*test)[static_cast<std::size_t>(j)];
            if (v == Tv::kX) {
              xs.push_back(j);
            } else if (v == Tv::k1) {
              care |= 1u << j;
            }
          }
          for (std::uint32_t fill = 0; fill < (1u << xs.size()); ++fill) {
            std::uint32_t bits = care;
            for (std::size_t b = 0; b < xs.size(); ++b) {
              if ((fill >> b) & 1u) bits |= 1u << xs[b];
            }
            ASSERT_TRUE(oracle.detects(bits, f))
                << what << ": test misses under fill " << fill;
          }
        } else if (!podem.lastAborted() && proven[i] == 0) {
          ++proofs;
          proven[i] = 1;
          for (std::uint32_t bits = 0; bits < (1u << c.width); ++bits) {
            ASSERT_FALSE(oracle.detects(bits, f))
                << what << ": reported untestable, but input vector " << bits
                << " detects it";
          }
        }
      }
    }
  }
  EXPECT_GT(tests, 0u);
  EXPECT_GT(proofs, 0u);
}

TEST(PodemOracle, BacktraceIntoANetOutsideTheViewIsNotAProof) {
  // y = (u | b) & a, with u undriven and outside the view. For a-sa0 the
  // side objective z = 1 backtraces into u (the first X pin) and dead-ends
  // there, although a = b = 1 detects the fault: nothing was proven.
  Netlist nl("outside_view");
  const NetId a = nl.addPrimaryInput();
  const NetId b = nl.addPrimaryInput();
  const NetId u = nl.newNet();
  const NetId z = nl.addGate2(GateType::kOr, u, b);
  const NetId y = nl.addGate2(GateType::kAnd, z, a);
  const std::vector<NetId> inputs = {a, b};
  const std::vector<NetId> observed = {y};
  const Fault f{a, Fault::kNoGate, 0, FaultKind::kSa0};

  Podem podem(nl, inputs, observed);
  EXPECT_FALSE(podem.generate(f).has_value());
  EXPECT_TRUE(podem.lastAborted());
  testref::SweepPodem ref(nl, inputs, observed);
  EXPECT_FALSE(ref.generate(f).has_value());
  EXPECT_TRUE(ref.lastAborted());
}

}  // namespace
}  // namespace corebist
