// Unit tests for the netlist container, builder and levelization.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <array>
#include <memory>
#include <random>

#include "ldpc/gatelevel.hpp"
#include "netlist/builder.hpp"
#include "netlist/compiled.hpp"
#include "netlist/export.hpp"
#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"
#include "sim/comb_sim.hpp"

namespace corebist {
namespace {

TEST(Gate, ArityTable) {
  EXPECT_EQ(gateArity(GateType::kConst0), 0);
  EXPECT_EQ(gateArity(GateType::kNot), 1);
  EXPECT_EQ(gateArity(GateType::kNand), 2);
  EXPECT_EQ(gateArity(GateType::kMux2), 3);
}

TEST(Gate, WordEvalTruthTables) {
  const std::uint64_t a = 0b1100;
  const std::uint64_t b = 0b1010;
  EXPECT_EQ(evalGateWord(GateType::kAnd, a, b, 0) & 0xF, 0b1000u);
  EXPECT_EQ(evalGateWord(GateType::kOr, a, b, 0) & 0xF, 0b1110u);
  EXPECT_EQ(evalGateWord(GateType::kXor, a, b, 0) & 0xF, 0b0110u);
  EXPECT_EQ(evalGateWord(GateType::kNand, a, b, 0) & 0xF, 0b0111u);
  EXPECT_EQ(evalGateWord(GateType::kNor, a, b, 0) & 0xF, 0b0001u);
  EXPECT_EQ(evalGateWord(GateType::kXnor, a, b, 0) & 0xF, 0b1001u);
  EXPECT_EQ(evalGateWord(GateType::kNot, a, 0, 0) & 0xF, 0b0011u);
  // Mux: sel ? b : a
  EXPECT_EQ(evalGateWord(GateType::kMux2, a, b, 0b1111) & 0xF, b & 0xF);
  EXPECT_EQ(evalGateWord(GateType::kMux2, a, b, 0b0000) & 0xF, a & 0xF);
}

TEST(Netlist, BasicConstruction) {
  Netlist nl("t");
  const NetId a = nl.addPrimaryInput();
  const NetId b = nl.addPrimaryInput();
  const NetId y = nl.addGate2(GateType::kAnd, a, b);
  nl.markPrimaryOutput(y);
  EXPECT_EQ(nl.numGates(), 1u);
  EXPECT_EQ(nl.numNets(), 3u);
  EXPECT_EQ(nl.driverOf(y), 0u);
  EXPECT_EQ(nl.driverOf(a), Netlist::kNoDriver);
  EXPECT_NO_THROW(nl.validate());
}

TEST(Netlist, ValidateCatchesUnboundDff) {
  Netlist nl("t");
  const NetId q = nl.addDff();
  nl.markPrimaryOutput(q);
  EXPECT_THROW(nl.validate(), std::logic_error);
}

TEST(Netlist, ValidateCatchesUndrivenNet) {
  Netlist nl("t");
  const NetId a = nl.addPrimaryInput();
  const NetId dangling = nl.newNet();
  const NetId y = nl.addGate2(GateType::kOr, a, dangling);
  nl.markPrimaryOutput(y);
  EXPECT_THROW(nl.validate(), std::logic_error);
}

TEST(Netlist, DriveNetStitching) {
  Netlist nl("t");
  const NetId a = nl.addPrimaryInput();
  const NetId target = nl.newNet();
  nl.driveNet(target, a);
  EXPECT_NE(nl.driverOf(target), Netlist::kNoDriver);
  EXPECT_THROW(nl.driveNet(target, a), std::logic_error);
}

TEST(Netlist, AbsorbOffsetsEverything) {
  Netlist child("child");
  Builder cb(child);
  const Bus x = cb.input("x", 4);
  cb.output("y", cb.bwNot(x));

  Netlist parent("parent");
  Builder pb(parent);
  const Bus px = pb.input("px", 4);
  const NetId off = parent.absorb(child, "u0_");
  const PortBus* cx = parent.findPort("u0_x");
  ASSERT_NE(cx, nullptr);
  for (int i = 0; i < 4; ++i) {
    parent.driveNet(cx->bits[static_cast<std::size_t>(i)], px[static_cast<std::size_t>(i)]);
  }
  const PortBus* cy = parent.findPort("u0_y");
  ASSERT_NE(cy, nullptr);
  pb.output("py", cy->bits);
  EXPECT_NO_THROW(parent.validate());
  EXPECT_GT(off, 0u);

  CombSim sim(parent);
  sim.setBusBroadcast(px, 0b0101);
  sim.eval();
  EXPECT_EQ(sim.getBusLane(cy->bits, 0), 0b1010u);
}

TEST(Levelize, OrderRespectsDependencies) {
  Netlist nl("t");
  Builder b(nl);
  const Bus x = b.input("x", 8);
  const Bus y = b.input("y", 8);
  const Bus s = b.add(x, y);
  b.output("s", s);
  const Levelization lev = levelize(nl);
  EXPECT_EQ(lev.order.size(), nl.numGates());
  std::vector<int> pos(nl.numGates(), -1);
  for (std::size_t i = 0; i < lev.order.size(); ++i) {
    pos[lev.order[i]] = static_cast<int>(i);
  }
  for (GateId g = 0; g < nl.numGates(); ++g) {
    int level = 0;
    for (int p = 0; p < nl.gates()[g].nin; ++p) {
      const GateId drv = nl.driverOf(nl.gates()[g].in[static_cast<std::size_t>(p)]);
      if (drv != Netlist::kNoDriver) {
        EXPECT_LT(pos[drv], pos[g]);
        level = std::max(level, lev.level[drv] + 1);
      }
    }
    EXPECT_EQ(lev.level[g], level);
    EXPECT_LE(lev.level[g], lev.depth);
  }
}

TEST(Levelize, DetectsCombinationalLoop) {
  Netlist nl("t");
  const NetId a = nl.addPrimaryInput();
  const NetId loop = nl.newNet();
  const NetId y = nl.addGate2(GateType::kAnd, a, loop);
  nl.driveNet(loop, y);
  EXPECT_THROW(levelize(nl), std::logic_error);
}

/// Random sequential netlist over every gate type (constants and MUX2
/// included), with flip-flop shift paths, undriven non-input nets and gates
/// that read one net on two pins.
Netlist randomCompiledNetlist(std::uint64_t seed) {
  Netlist nl("compiled_rand");
  std::mt19937_64 rng(seed);
  std::vector<NetId> pool;
  for (int i = 0; i < 7; ++i) pool.push_back(nl.addPrimaryInput());
  std::vector<NetId> qs;
  for (int i = 0; i < 6; ++i) qs.push_back(nl.addDff());
  pool.insert(pool.end(), qs.begin(), qs.end());
  pool.push_back(nl.newNet());  // undriven, never an input
  for (int g = 0; g < 120; ++g) {
    const auto t = static_cast<GateType>(g < kNumGateTypes
                                             ? g
                                             : rng() % kNumGateTypes);
    const NetId a = pool[rng() % pool.size()];
    const NetId b = rng() % 8 == 0 ? a : pool[rng() % pool.size()];
    const NetId sel = pool[rng() % pool.size()];
    const std::array<NetId, 3> in{a, b, sel};
    pool.push_back(nl.addGate(
        t, std::span<const NetId>(in.data(),
                                  static_cast<std::size_t>(gateArity(t)))));
  }
  nl.connectDff(qs[0], qs[1]);
  for (std::size_t i = 1; i < qs.size(); ++i) {
    nl.connectDff(qs[i], pool[pool.size() - 1 - rng() % 30]);
  }
  for (std::size_t i = 0; i < 5; ++i) {
    nl.markPrimaryOutput(pool[pool.size() - 1 - i]);
  }
  return nl;
}

/// Checks every structural promise of `nl.compiled()` against `nl` itself.
void expectCompiledLayoutHolds(const Netlist& nl) {
  SCOPED_TRACE(nl.name());
  const auto c = nl.compiled();
  const auto& gates = nl.gates();
  const std::size_t ngates = gates.size();
  ASSERT_EQ(c->lev.order.size(), ngates);
  ASSERT_EQ(c->gateCount(), ngates);
  ASSERT_EQ(c->slots(), nl.numNets());

  // The order is topological, and each level is the longest path.
  std::vector<std::uint32_t> pos(ngates, 0);
  for (std::size_t p = 0; p < ngates; ++p) {
    pos[c->lev.order[p]] = static_cast<std::uint32_t>(p);
  }
  int depth = 0;
  for (const GateId g : c->lev.order) {
    int level = 0;
    for (int p = 0; p < gates[g].nin; ++p) {
      const GateId drv =
          nl.driverOf(gates[g].in[static_cast<std::size_t>(p)]);
      if (drv == Netlist::kNoDriver) continue;
      EXPECT_LT(pos[drv], pos[g]);
      level = std::max(level, c->lev.level[drv] + 1);
    }
    EXPECT_EQ(c->lev.level[g], level);
    depth = std::max(depth, level);
  }
  EXPECT_EQ(c->lev.depth, depth);

  // Source slots come first: primary inputs, flip-flop outputs, then the
  // other undriven nets; the gate at position p writes slot sources + p.
  const auto& pis = nl.primaryInputs();
  ASSERT_EQ(c->pi_slots.size(), pis.size());
  for (std::size_t j = 0; j < pis.size(); ++j) {
    EXPECT_EQ(c->pi_slots[j], j);
    EXPECT_EQ(c->slot_of[pis[j]], j);
  }
  ASSERT_EQ(c->q_slots.size(), nl.dffs().size());
  for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
    EXPECT_EQ(c->q_slots[i], pis.size() + i);
    EXPECT_EQ(c->d_slots[i], c->slot_of[nl.dffs()[i].d]);
  }
  std::vector<char> seen(nl.numNets(), 0);
  for (NetId n = 0; n < nl.numNets(); ++n) {
    const std::uint32_t slot = c->slot_of[n];
    ASSERT_LT(slot, nl.numNets());
    EXPECT_EQ(seen[slot], 0) << "slot " << slot << " used twice";
    seen[slot] = 1;
    EXPECT_EQ(slot < c->sources, nl.driverOf(n) == Netlist::kNoDriver);
  }
  for (std::size_t p = 0; p < ngates; ++p) {
    const Gate& g = gates[c->lev.order[p]];
    EXPECT_EQ(c->slot_of[g.out], c->sources + p);
    EXPECT_EQ(c->type[p], g.type);
    if (g.nin > 0) EXPECT_EQ(c->in_a[p], c->slot_of[g.in[0]]);
    if (g.nin > 1) EXPECT_EQ(c->in_b[p], c->slot_of[g.in[1]]);
    if (g.nin > 2) EXPECT_EQ(c->in_s[p], c->slot_of[g.in[2]]);
  }

  // Runs are maximal and cover every position.
  std::uint32_t next = 0;
  for (std::size_t r = 0; r < c->runs.size(); ++r) {
    const CompiledNetlist::Run& run = c->runs[r];
    EXPECT_EQ(run.begin, next);
    EXPECT_LT(run.begin, run.end);
    for (std::uint32_t p = run.begin; p < run.end; ++p) {
      EXPECT_EQ(c->type[p], run.type);
    }
    if (r > 0) EXPECT_NE(c->runs[r - 1].type, run.type);
    next = run.end;
  }
  EXPECT_EQ(next, ngates);

  // The fanout CSR is readerCsr() mapped to positions, duplicates removed.
  const ReaderCsr& readers = nl.readerCsr();
  ASSERT_EQ(c->fanout_off.size(), nl.numNets() + 1);
  for (NetId n = 0; n < nl.numNets(); ++n) {
    std::vector<std::uint32_t> want;
    GateId last = Netlist::kNoDriver;
    for (const NetReader& r : readers.of(n)) {
      if (r.gate != last) want.push_back(pos[r.gate]);
      last = r.gate;
    }
    const std::uint32_t slot = c->slot_of[n];
    const std::vector<std::uint32_t> got(
        c->fanout_pos.begin() + c->fanout_off[slot],
        c->fanout_pos.begin() + c->fanout_off[slot + 1]);
    EXPECT_EQ(got, want) << "net " << n;
  }
}

TEST(CompiledNetlist, LayoutHoldsOnRandomNetlists) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    expectCompiledLayoutHolds(randomCompiledNetlist(seed));
  }
}

TEST(CompiledNetlist, LayoutHoldsOnTheCaseStudyModules) {
  expectCompiledLayoutHolds(ldpc::buildBitNode());
  expectCompiledLayoutHolds(ldpc::buildCheckNode());
  expectCompiledLayoutHolds(ldpc::buildControlUnit());
}

TEST(CompiledNetlist, LoopsAndRogueDriversThrow) {
  Netlist loop("loop");
  const NetId a = loop.addPrimaryInput();
  const NetId back = loop.newNet();
  loop.driveNet(back, loop.addGate2(GateType::kAnd, a, back));
  EXPECT_THROW((void)loop.compiled(), std::logic_error);

  Netlist rogue = randomCompiledNetlist(1);
  ASSERT_NO_THROW((void)rogue.compiled());
  rogue.addRogueDriver(rogue.gates().back().out, rogue.primaryInputs()[0]);
  EXPECT_THROW((void)rogue.compiled(), std::logic_error);
}

TEST(CompiledNetlist, CopiesShareTheLayoutUntilTheirFirstEdit) {
  const Netlist nl = randomCompiledNetlist(3);
  const auto layout = nl.compiled();
  EXPECT_EQ(nl.compiled().get(), layout.get());
  const Netlist copy = nl;
  EXPECT_EQ(copy.compiled().get(), layout.get());

  // The undriven non-input net of randomCompiledNetlist.
  NetId floating = kNullNet;
  for (NetId n = 0; n < nl.numNets(); ++n) {
    if (nl.driverOf(n) == Netlist::kNoDriver && !nl.isStateNet(n) &&
        std::find(nl.primaryInputs().begin(), nl.primaryInputs().end(), n) ==
            nl.primaryInputs().end()) {
      floating = n;
    }
  }
  ASSERT_NE(floating, kNullNet);
  GateId two_input = 0;
  while (nl.gates()[two_input].nin != 2) ++two_input;
  const NetId pi = nl.primaryInputs()[0];
  const NetId q = nl.dffs()[0].q;

  const std::vector<std::pair<const char*, std::function<void(Netlist&)>>>
      edits = {
          {"mutateGateType",
           [&](Netlist& e) {
             e.mutateGateType(two_input,
                              e.gates()[two_input].type == GateType::kAnd
                                  ? GateType::kOr
                                  : GateType::kAnd);
           }},
          {"rebindGateInput",
           [&](Netlist& e) { e.rebindGateInput(two_input, 1, pi); }},
          {"rebindDff", [&](Netlist& e) { e.rebindDff(q, pi); }},
          {"driveNet", [&](Netlist& e) { e.driveNet(floating, pi); }},
          {"addGate",
           [&](Netlist& e) { (void)e.addGate2(GateType::kXor, pi, q); }},
      };
  for (const auto& [name, edit] : edits) {
    SCOPED_TRACE(name);
    Netlist edited = nl;
    ASSERT_EQ(edited.compiled().get(), layout.get());
    edit(edited);
    const auto fresh = edited.compiled();
    EXPECT_NE(fresh.get(), layout.get());
    EXPECT_EQ(nl.compiled().get(), layout.get());
    expectCompiledLayoutHolds(edited);
  }
}

class BuilderArithTest : public ::testing::TestWithParam<int> {};

TEST_P(BuilderArithTest, AdderMatchesReference) {
  const int width = GetParam();
  Netlist nl("t");
  Builder b(nl);
  const Bus x = b.input("x", width);
  const Bus y = b.input("y", width);
  b.output("sum", b.add(x, y));
  b.output("diff", b.sub(x, y));
  CombSim sim(nl);
  std::mt19937_64 rng(7);
  const std::uint64_t mask = width >= 64 ? ~std::uint64_t{0}
                                         : ((std::uint64_t{1} << width) - 1);
  for (int iter = 0; iter < 200; ++iter) {
    const std::uint64_t xv = rng() & mask;
    const std::uint64_t yv = rng() & mask;
    sim.setBusBroadcast(x, xv);
    sim.setBusBroadcast(y, yv);
    sim.eval();
    EXPECT_EQ(sim.getBusLane(nl.findPort("sum")->bits, 0), (xv + yv) & mask);
    EXPECT_EQ(sim.getBusLane(nl.findPort("diff")->bits, 0), (xv - yv) & mask);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BuilderArithTest,
                         ::testing::Values(1, 4, 8, 12, 16, 20, 32));

TEST(Builder, IncrementAndNegate) {
  Netlist nl("t");
  Builder b(nl);
  const Bus x = b.input("x", 8);
  b.output("inc", b.inc(x));
  b.output("neg", b.neg(x));
  CombSim sim(nl);
  for (std::uint64_t v : {0ull, 1ull, 0x7Full, 0x80ull, 0xFFull, 0x55ull}) {
    sim.setBusBroadcast(x, v);
    sim.eval();
    EXPECT_EQ(sim.getBusLane(nl.findPort("inc")->bits, 0), (v + 1) & 0xFF);
    EXPECT_EQ(sim.getBusLane(nl.findPort("neg")->bits, 0), (-v) & 0xFF);
  }
}

TEST(Builder, Comparisons) {
  Netlist nl("t");
  Builder b(nl);
  const Bus x = b.input("x", 8);
  const Bus y = b.input("y", 8);
  b.output("eq", Bus{b.eq(x, y)});
  b.output("lt", Bus{b.ltU(x, y)});
  b.output("eq42", Bus{b.eqConst(x, 42)});
  CombSim sim(nl);
  std::mt19937_64 rng(3);
  for (int iter = 0; iter < 300; ++iter) {
    const std::uint64_t xv = rng() & 0xFF;
    const std::uint64_t yv = rng() & 0xFF;
    sim.setBusBroadcast(x, xv);
    sim.setBusBroadcast(y, yv);
    sim.eval();
    EXPECT_EQ(sim.getBusLane(nl.findPort("eq")->bits, 0), xv == yv ? 1u : 0u);
    EXPECT_EQ(sim.getBusLane(nl.findPort("lt")->bits, 0), xv < yv ? 1u : 0u);
    EXPECT_EQ(sim.getBusLane(nl.findPort("eq42")->bits, 0),
              xv == 42 ? 1u : 0u);
  }
}

TEST(Builder, SaturatingSignedAdd) {
  Netlist nl("t");
  Builder b(nl);
  const Bus x = b.input("x", 6);
  const Bus y = b.input("y", 6);
  b.output("s", b.satAddSigned(x, y));
  CombSim sim(nl);
  auto ref = [](int a, int bb) {
    int s = a + bb;
    if (s > 31) s = 31;
    if (s < -32) s = -32;
    return s & 0x3F;
  };
  for (int a = -32; a < 32; a += 3) {
    for (int c = -32; c < 32; c += 5) {
      sim.setBusBroadcast(x, static_cast<std::uint64_t>(a & 0x3F));
      sim.setBusBroadcast(y, static_cast<std::uint64_t>(c & 0x3F));
      sim.eval();
      EXPECT_EQ(sim.getBusLane(nl.findPort("s")->bits, 0),
                static_cast<std::uint64_t>(ref(a, c)))
          << "a=" << a << " b=" << c;
    }
  }
}

TEST(Builder, AbsSigned) {
  Netlist nl("t");
  Builder b(nl);
  const Bus x = b.input("x", 6);
  b.output("abs", b.absSigned(x));
  CombSim sim(nl);
  for (int a = -31; a < 32; ++a) {
    sim.setBusBroadcast(x, static_cast<std::uint64_t>(a & 0x3F));
    sim.eval();
    EXPECT_EQ(sim.getBusLane(nl.findPort("abs")->bits, 0),
              static_cast<std::uint64_t>(a < 0 ? -a : a));
  }
}

TEST(Builder, MuxTreeSelectsCorrectInput) {
  Netlist nl("t");
  Builder b(nl);
  std::vector<Bus> ins;
  for (int i = 0; i < 8; ++i) ins.push_back(b.input("i" + std::to_string(i), 4));
  const Bus sel = b.input("sel", 3);
  b.output("y", b.muxN(ins, sel));
  CombSim sim(nl);
  for (int s = 0; s < 8; ++s) {
    for (int i = 0; i < 8; ++i) {
      sim.setBusBroadcast(ins[static_cast<std::size_t>(i)],
                          static_cast<std::uint64_t>(i + 3));
    }
    sim.setBusBroadcast(sel, static_cast<std::uint64_t>(s));
    sim.eval();
    EXPECT_EQ(sim.getBusLane(nl.findPort("y")->bits, 0),
              static_cast<std::uint64_t>(s + 3));
  }
}

TEST(Builder, RotateLeft) {
  Netlist nl("t");
  Builder b(nl);
  const Bus x = b.input("x", 8);
  const Bus amt = b.input("amt", 3);
  b.output("y", b.rotateLeft(x, amt));
  CombSim sim(nl);
  const std::uint64_t v = 0b10110001;
  for (int k = 0; k < 8; ++k) {
    sim.setBusBroadcast(x, v);
    sim.setBusBroadcast(amt, static_cast<std::uint64_t>(k));
    sim.eval();
    const std::uint64_t expect = ((v << k) | (v >> (8 - k))) & 0xFF;
    EXPECT_EQ(sim.getBusLane(nl.findPort("y")->bits, 0), expect) << k;
  }
}

TEST(Builder, DecodeOneHot) {
  Netlist nl("t");
  Builder b(nl);
  const Bus x = b.input("x", 3);
  b.output("d", b.decode(x));
  CombSim sim(nl);
  for (int v = 0; v < 8; ++v) {
    sim.setBusBroadcast(x, static_cast<std::uint64_t>(v));
    sim.eval();
    EXPECT_EQ(sim.getBusLane(nl.findPort("d")->bits, 0),
              std::uint64_t{1} << v);
  }
}

TEST(Builder, ReduceOps) {
  Netlist nl("t");
  Builder b(nl);
  const Bus x = b.input("x", 7);
  b.output("rand", Bus{b.reduceAnd(x)});
  b.output("ror", Bus{b.reduceOr(x)});
  b.output("rxor", Bus{b.reduceXor(x)});
  CombSim sim(nl);
  for (std::uint64_t v : {0ull, 0x7Full, 0x15ull, 0x40ull, 0x3Full}) {
    sim.setBusBroadcast(x, v);
    sim.eval();
    EXPECT_EQ(sim.getBusLane(nl.findPort("rand")->bits, 0),
              v == 0x7F ? 1u : 0u);
    EXPECT_EQ(sim.getBusLane(nl.findPort("ror")->bits, 0), v != 0 ? 1u : 0u);
    EXPECT_EQ(sim.getBusLane(nl.findPort("rxor")->bits, 0),
              static_cast<std::uint64_t>(std::popcount(v) & 1));
  }
}

TEST(Export, DotContainsPortsAndGates) {
  Netlist nl("dot");
  Builder b(nl);
  const Bus x = b.input("x", 2);
  b.output("y", Bus{b.and2(x[0], x[1])});
  const std::string dot = exportDot(nl);
  EXPECT_NE(dot.find("digraph \"dot\""), std::string::npos);
  EXPECT_NE(dot.find("AND2"), std::string::npos);
  EXPECT_NE(dot.find("x[0]"), std::string::npos);
  EXPECT_NE(dot.find("y[0]"), std::string::npos);
  // Truncation marker appears when the budget is tiny.
  EXPECT_NE(exportDot(nl, 0).find("truncated"), std::string::npos);
}

TEST(Builder, PortWidthAccounting) {
  Netlist nl("t");
  Builder b(nl);
  b.output("y", b.bwNot(b.input("a", 10)));
  (void)b.input("b", 7);
  EXPECT_EQ(nl.portWidth(true), 17);
  EXPECT_EQ(nl.portWidth(false), 10);
}

}  // namespace
}  // namespace corebist
