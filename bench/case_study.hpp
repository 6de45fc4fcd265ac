// Shared case-study setup for the Table/Figure benches: the three LDPC
// decoder modules hooked to the paper's BIST engine (20-bit ALFSR, one
// schedule CG on the 4-bit path_sel port of BIT_NODE and CHECK_NODE,
// 16-bit MISRs, 12-bit pattern counter).
#ifndef COREBIST_BENCH_CASE_STUDY_HPP_
#define COREBIST_BENCH_CASE_STUDY_HPP_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bist/engine.hpp"
#include "bist/misr.hpp"
#include "ldpc/gatelevel.hpp"
#include "netlist/levelize.hpp"
#include "sim/comb_sim.hpp"  // broadcast

namespace corebist::bench {

struct CaseStudy {
  Netlist bn = ldpc::buildBitNode();
  Netlist cn = ldpc::buildCheckNode();
  Netlist cu = ldpc::buildControlUnit();
  BistEngine engine;
  int m_bn = -1;
  int m_cn = -1;
  int m_cu = -1;
  std::shared_ptr<ScheduleConstraint> path_cg;
  std::shared_ptr<BiasedConstraint> bn_ctrl_cg;
  std::shared_ptr<BiasedConstraint> cn_ctrl_cg;
  /// The port bindings of BIT_NODE and CONTROL_UNIT, for hooking the same
  /// modules into another engine (e.g. a WrappedCore).
  std::vector<ConstrainedPort> bn_ports;
  std::vector<ConstrainedPort> cu_ports;

  CaseStudy() {
    // "holding selection values that maximize the used circuitry" while
    // still visiting the narrow datapath selections.
    path_cg = std::make_shared<ScheduleConstraint>(
        4, std::vector<ScheduleConstraint::Entry>{{0x0, 10},
                                                  {0x1, 2},
                                                  {0x2, 1},
                                                  {0x3, 1},
                                                  {0x4, 2},
                                                  {0x8, 1},
                                                  {0xC, 1}});
    // The ctrl ports are the other constrained inputs (paper §3.2: when the
    // reached coverage is insufficient, "redefine the Constraints
    // Generator"): start/flush/clr pulses must be rare or they keep wiping
    // the architectural state that the pseudo-random data is exercising.
    using B = BiasedConstraint::BitBias;
    // Reset-style pins (start/flush/clr) must be *pulses*, not coin flips:
    // a start every ~16 cycles never lets the accumulators reach their deep
    // bits.
    bn_ctrl_cg = std::make_shared<BiasedConstraint>(
        12,
        std::vector<B>{B::kRare6, B::kOften2, B::kFree, B::kFree, B::kRare4,
                       B::kFree, B::kFree, B::kFree, B::kFree, B::kFree,
                       B::kFree, B::kFree},
        24, 0xB17B1A5);
    cn_ctrl_cg = std::make_shared<BiasedConstraint>(
        12,
        std::vector<B>{B::kRare6, B::kOften2, B::kFree, B::kFree, B::kRare6,
                       B::kFree, B::kFree, B::kRare4, B::kFree, B::kFree,
                       B::kFree, B::kFree},
        24, 0xC47B1A5);
    bn_ports = {{"path_sel", path_cg}, {"ctrl", bn_ctrl_cg}};
    m_bn = engine.attachModule(bn, bn_ports);
    m_cn = engine.attachModule(cn, {{"path_sel", path_cg},
                                    {"ctrl", cn_ctrl_cg}});
    // CONTROL_UNIT: its run/stop pins are constrained inputs too — random
    // starts/halts would reset the counters every other cycle.
    auto one = [](BiasedConstraint::BitBias bias, std::uint64_t seed) {
      return std::make_shared<BiasedConstraint>(
          1, std::vector<BiasedConstraint::BitBias>{bias}, 12, seed);
    };
    // Short configured phases, otherwise edge wraps / iteration bookkeeping
    // are reached a handful of times in 4096 cycles.
    // Mix of short phases (phase/iteration logic toggles often) and long
    // ones (the deep counter bits must move): maximize the used circuitry.
    auto edge_cg = std::make_shared<ScheduleConstraint>(
        10, std::vector<ScheduleConstraint::Entry>{{9, 200},
                                                   {999, 1200},
                                                   {5, 100},
                                                   {517, 800},
                                                   {17, 150},
                                                   {260, 400}});
    auto iter_cg = std::make_shared<ScheduleConstraint>(
        5, std::vector<ScheduleConstraint::Entry>{
               {1, 100}, {29, 400}, {2, 100}, {18, 312}});
    auto pulse = [](int lead, int tail) {
      return std::make_shared<ScheduleConstraint>(
          1, std::vector<ScheduleConstraint::Entry>{{0, lead}, {1, 1},
                                                    {0, tail}});
    };
    cu_ports = {{"start", pulse(1, 680)},
                {"halt", pulse(2913, 800)},
                {"clr_stats", pulse(2048, 1200)},
                {"step_en", one(BiasedConstraint::BitBias::kOften2, 0x57E)},
                {"mem_ready", one(BiasedConstraint::BitBias::kOften2, 0x33D)},
                {"edge_count", edge_cg},
                {"cfg_iters", iter_cg}};
    m_cu = engine.attachModule(cu, cu_ports);
  }

  [[nodiscard]] const Netlist& module(int m) const {
    return engine.module(m);
  }
};

/// Fault-free signature of engine module `m` by a path that shares no code
/// with SignatureProgram or the compiled layout it runs on: a SeqSim-style
/// sweep of `levelize()` order over one word per net applies the engine's
/// stimulus, and a software `Misr` folds the module outputs every cycle.
inline std::uint64_t seqSimSignature(const BistEngine& engine, int m,
                                     int cycles) {
  const Netlist& nl = engine.module(m);
  const std::vector<std::uint64_t> stim = engine.stimulus(m, cycles);
  const MisrSpec spec = engine.misrSpec(m);
  Misr misr(spec.width, spec.poly);
  const Levelization lev = levelize(nl);
  std::vector<std::uint64_t> val(nl.numNets(), 0);
  std::vector<std::uint64_t> dcapt(nl.dffs().size(), 0);
  for (int c = 0; c < cycles; ++c) {
    const std::uint64_t in = stim[static_cast<std::size_t>(c)];
    for (std::size_t j = 0; j < nl.primaryInputs().size(); ++j) {
      val[nl.primaryInputs()[j]] = broadcast(((in >> j) & 1u) != 0);
    }
    for (const GateId g : lev.order) {
      const Gate& gate = nl.gates()[g];
      const std::uint64_t a = gate.nin > 0 ? val[gate.in[0]] : 0;
      const std::uint64_t b = gate.nin > 1 ? val[gate.in[1]] : 0;
      const std::uint64_t s = gate.nin > 2 ? val[gate.in[2]] : 0;
      val[gate.out] = evalGateWord(gate.type, a, b, s);
    }
    std::uint64_t folded = 0;
    for (std::size_t t = 0; t < spec.feeds.size(); ++t) {
      for (const NetId n : spec.feeds[t]) folded ^= (val[n] & 1u) << t;
    }
    misr.step(folded);
    const auto& dffs = nl.dffs();
    for (std::size_t i = 0; i < dffs.size(); ++i) dcapt[i] = val[dffs[i].d];
    for (std::size_t i = 0; i < dffs.size(); ++i) val[dffs[i].q] = dcapt[i];
  }
  return misr.state();
}

class Stopwatch {
 public:
  Stopwatch() : t0_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

/// Median (middle of the sorted times) and min of `repeats` timed runs of
/// `fn`. Single-shot timings on shared runners are noise, not measurements;
/// every BENCH_*.json row goes through this.
struct Timing {
  double median = 0.0;
  double min = 0.0;
};

template <typename Fn>
Timing timeRepeats(int repeats, Fn&& fn) {
  std::vector<double> secs;
  secs.reserve(static_cast<std::size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    Stopwatch sw;
    fn();
    secs.push_back(sw.seconds());
  }
  std::sort(secs.begin(), secs.end());
  return Timing{secs[secs.size() / 2], secs.front()};
}

/// True when "--quick" is on the command line (smoke-test scale).
inline bool quickMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") return true;
  }
  return false;
}

inline void printHeader(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

}  // namespace corebist::bench

#endif  // COREBIST_BENCH_CASE_STUDY_HPP_
