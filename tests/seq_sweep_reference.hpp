// Full-sweep reference for the sequential fault simulator.
//
// This is the fault-parallel kernel SeqFaultSim used before it became
// activity-gated: bit 0 of every 64-bit net word is the good machine, bits
// 1..63 are faulty machines, and every gate of the netlist is evaluated
// every cycle for every group. It is kept here, outside the library, as the
// byte-identical reference the gated kernel is checked against on
// randomized netlists. It runs serially and without the prepass ladder:
// first-detect cycles do not depend on either.
#ifndef COREBIST_TESTS_SEQ_SWEEP_REFERENCE_HPP_
#define COREBIST_TESTS_SEQ_SWEEP_REFERENCE_HPP_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "fault/fault_sim.hpp"
#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"

namespace corebist::testref {

struct SweepSite {
  std::uint64_t mask = 0;
  NetId net = kNullNet;
  int order_pos = -1;
  GateId branch_gate = Fault::kNoGate;
  std::uint8_t branch_pin = 0;
  FaultKind kind = FaultKind::kSa0;
  std::uint64_t prev = 0;
};

inline std::uint64_t sweepPresent(SweepSite& s, std::uint64_t cur) {
  std::uint64_t presented = 0;
  switch (s.kind) {
    case FaultKind::kSa0:
      presented = 0;
      break;
    case FaultKind::kSa1:
      presented = s.mask;
      break;
    case FaultKind::kSlowRise:
      presented = cur & s.prev;
      break;
    case FaultKind::kSlowFall:
      presented = cur | s.prev;
      break;
  }
  s.prev = cur;
  return presented;
}

inline std::uint64_t sweepGoodLane(std::uint64_t w) {
  return static_cast<std::uint64_t>(-static_cast<std::int64_t>(w & 1u));
}

inline void sweepMisrStep(const MisrSpec& m, std::vector<std::uint64_t>& s,
                          const std::vector<std::uint64_t>& val) {
  const std::uint64_t msb = s[static_cast<std::size_t>(m.width - 1)];
  for (int j = m.width - 1; j >= 0; --j) {
    std::uint64_t feed = 0;
    for (const NetId n : m.feeds[static_cast<std::size_t>(j)]) feed ^= val[n];
    const std::uint64_t shifted =
        j > 0 ? s[static_cast<std::size_t>(j - 1)] : 0;
    const std::uint64_t fb = ((m.poly >> j) & 1u) != 0 ? msb : 0;
    s[static_cast<std::size_t>(j)] = shifted ^ fb ^ feed;
  }
}

/// Grade `faults` against `stimulus` with the full-sweep kernel. Honours
/// cycles, drop_detected (group early exit), windows, misr, observe and
/// record_detections; ignores prepass_cycles and num_threads.
inline FaultSimResult sweepReferenceRun(const Netlist& nl,
                                        std::span<const Fault> faults,
                                        std::span<const std::uint64_t> stimulus,
                                        const FaultSimOptions& opts) {
  const Levelization lev = levelize(nl);
  std::vector<int> driver_pos(nl.numNets(), -1);
  for (std::size_t pos = 0; pos < lev.order.size(); ++pos) {
    driver_pos[nl.gates()[lev.order[pos]].out] = static_cast<int>(pos);
  }
  const std::vector<NetId>& observe =
      opts.observe.empty() ? nl.primaryOutputs() : opts.observe;
  const int cycles = opts.cycles;
  const bool want_windows = opts.windows > 0;
  const bool want_misr = opts.misr.has_value();
  const bool want_sigs = want_windows && want_misr;
  const int misr_w = want_misr ? opts.misr->width : 0;
  const int sig_words = want_sigs ? (opts.windows * misr_w + 63) / 64 : 0;

  FaultSimResult result;
  result.total = faults.size();
  result.first_detect.assign(faults.size(), -1);
  if (want_windows) result.window_mask.assign(faults.size(), 0);
  if (want_misr) result.misr_detect.assign(faults.size(), 0);
  if (want_sigs) {
    result.sig_words_per_fault = sig_words;
    result.window_sig.assign(
        faults.size() * static_cast<std::size_t>(sig_words), 0);
  }

  const auto& gates = nl.gates();
  const auto& dffs = nl.dffs();
  const auto& pis = nl.primaryInputs();
  std::vector<std::uint64_t> val(nl.numNets());
  std::vector<std::uint64_t> dcapt(dffs.size());
  std::vector<std::uint64_t> misr;

  for (std::size_t base = 0; base < faults.size(); base += 63) {
    const std::size_t count = std::min<std::size_t>(63, faults.size() - base);
    std::vector<SweepSite> source_sites;
    std::vector<SweepSite> gate_sites;
    std::uint64_t group_mask = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const Fault& f = faults[base + i];
      SweepSite s;
      s.mask = std::uint64_t{1} << (i + 1);
      group_mask |= s.mask;
      s.net = f.net;
      s.kind = f.kind;
      if (f.isStem()) {
        s.order_pos = driver_pos[f.net];
        (s.order_pos < 0 ? source_sites : gate_sites).push_back(s);
      } else {
        s.branch_gate = f.gate;
        s.branch_pin = f.pin;
        s.order_pos = driver_pos[gates[f.gate].out];
        gate_sites.push_back(s);
      }
    }
    std::stable_sort(gate_sites.begin(), gate_sites.end(),
                     [](const SweepSite& a, const SweepSite& b) {
                       return a.order_pos < b.order_pos;
                     });
    std::fill(val.begin(), val.end(), 0);
    misr.assign(static_cast<std::size_t>(misr_w), 0);
    std::uint64_t detected_word = 0;

    for (int cycle = 0; cycle < cycles; ++cycle) {
      const std::uint64_t in = stimulus[static_cast<std::size_t>(cycle)];
      for (std::size_t j = 0; j < pis.size(); ++j) {
        val[pis[j]] = ((in >> j) & 1u) != 0 ? ~std::uint64_t{0} : 0;
      }
      for (SweepSite& s : source_sites) {
        const std::uint64_t presented = sweepPresent(s, val[s.net] & s.mask);
        val[s.net] = (val[s.net] & ~s.mask) | presented;
      }
      std::size_t ev = 0;
      for (std::size_t pos = 0; pos < lev.order.size(); ++pos) {
        const Gate& gate = gates[lev.order[pos]];
        const std::uint64_t a = gate.nin > 0 ? val[gate.in[0]] : 0;
        const std::uint64_t b = gate.nin > 1 ? val[gate.in[1]] : 0;
        const std::uint64_t sv = gate.nin > 2 ? val[gate.in[2]] : 0;
        val[gate.out] = evalGateWord(gate.type, a, b, sv);
        for (; ev < gate_sites.size() &&
               gate_sites[ev].order_pos == static_cast<int>(pos);
             ++ev) {
          SweepSite& s = gate_sites[ev];
          if (s.branch_gate == Fault::kNoGate) {
            const std::uint64_t presented =
                sweepPresent(s, val[gate.out] & s.mask);
            val[gate.out] = (val[gate.out] & ~s.mask) | presented;
          } else {
            const Gate& bg = gates[s.branch_gate];
            std::uint64_t iv[3] = {0, 0, 0};
            for (int p = 0; p < bg.nin; ++p) {
              iv[p] = val[bg.in[static_cast<std::size_t>(p)]];
            }
            const std::uint64_t presented =
                sweepPresent(s, iv[s.branch_pin] & s.mask);
            iv[s.branch_pin] = (iv[s.branch_pin] & ~s.mask) | presented;
            const std::uint64_t out =
                evalGateWord(bg.type, iv[0], iv[1], iv[2]);
            val[bg.out] = (val[bg.out] & ~s.mask) | (out & s.mask);
          }
        }
      }

      std::uint64_t cycle_diff = 0;
      for (const NetId po : observe) {
        cycle_diff |= val[po] ^ sweepGoodLane(val[po]);
      }
      cycle_diff &= group_mask;
      std::uint64_t newly = cycle_diff & ~detected_word;
      detected_word |= cycle_diff;
      for (; newly != 0; newly &= newly - 1) {
        const int bit = std::countr_zero(newly);
        result.first_detect[base + static_cast<std::size_t>(bit - 1)] = cycle;
      }
      const int w_now =
          want_windows ? static_cast<int>(static_cast<std::int64_t>(cycle) *
                                          opts.windows / cycles)
                       : 0;
      if (want_windows) {
        for (std::uint64_t d = cycle_diff; d != 0; d &= d - 1) {
          const int bit = std::countr_zero(d);
          result.window_mask[base + static_cast<std::size_t>(bit - 1)] |=
              std::uint64_t{1} << w_now;
        }
      }
      if (want_misr) sweepMisrStep(*opts.misr, misr, val);
      if (want_sigs) {
        const int w_next = static_cast<int>(
            (static_cast<std::int64_t>(cycle + 1) * opts.windows) / cycles);
        if (w_next > w_now || cycle + 1 == cycles) {
          for (int j = 0; j < misr_w; ++j) {
            const std::uint64_t taps = misr[static_cast<std::size_t>(j)];
            const std::uint64_t diff = taps ^ sweepGoodLane(taps);
            const int bitpos = w_now * misr_w + j;
            for (std::size_t i = 0; i < count; ++i) {
              if ((diff >> (i + 1)) & 1u) {
                const std::size_t word =
                    (base + i) * static_cast<std::size_t>(sig_words) +
                    static_cast<std::size_t>(bitpos / 64);
                result.window_sig[word] |= std::uint64_t{1} << (bitpos % 64);
              }
            }
          }
        }
      }
      if (opts.drop_detected && !want_windows && !want_misr &&
          detected_word == group_mask) {
        break;
      }
      for (std::size_t i = 0; i < dffs.size(); ++i) dcapt[i] = val[dffs[i].d];
      for (std::size_t i = 0; i < dffs.size(); ++i) val[dffs[i].q] = dcapt[i];
    }

    if (want_misr) {
      for (std::size_t i = 0; i < count; ++i) {
        bool diff = false;
        for (const std::uint64_t w : misr) {
          diff = diff || ((w >> (i + 1)) & 1u) != (w & 1u);
        }
        result.misr_detect[base + i] = diff ? 1 : 0;
      }
    }
  }

  for (const auto fd : result.first_detect) {
    if (fd >= 0) ++result.detected;
  }
  result.patterns_applied = static_cast<std::size_t>(cycles);
  if (opts.record_detections > 0) {
    result.detect_patterns.assign(faults.size(), {});
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (result.first_detect[i] >= 0) {
        result.detect_patterns[i].push_back(
            static_cast<std::uint32_t>(result.first_detect[i]));
      }
    }
  }
  return result;
}

/// Good-machine MISR signature by full sweep (single-word result).
inline std::uint64_t sweepGoodSignature(const Netlist& nl,
                                        std::span<const std::uint64_t> stimulus,
                                        int cycles, const MisrSpec& misr) {
  const Levelization lev = levelize(nl);
  std::vector<std::uint64_t> val(nl.numNets(), 0);
  std::vector<std::uint64_t> dcapt(nl.dffs().size());
  std::vector<std::uint64_t> state(static_cast<std::size_t>(misr.width), 0);
  for (int cycle = 0; cycle < cycles; ++cycle) {
    const std::uint64_t in = stimulus[static_cast<std::size_t>(cycle)];
    for (std::size_t j = 0; j < nl.primaryInputs().size(); ++j) {
      val[nl.primaryInputs()[j]] =
          ((in >> j) & 1u) != 0 ? ~std::uint64_t{0} : 0;
    }
    for (const GateId g : lev.order) {
      const Gate& gate = nl.gates()[g];
      const std::uint64_t a = gate.nin > 0 ? val[gate.in[0]] : 0;
      const std::uint64_t b = gate.nin > 1 ? val[gate.in[1]] : 0;
      const std::uint64_t s = gate.nin > 2 ? val[gate.in[2]] : 0;
      val[gate.out] = evalGateWord(gate.type, a, b, s);
    }
    sweepMisrStep(misr, state, val);
    const auto& dffs = nl.dffs();
    for (std::size_t i = 0; i < dffs.size(); ++i) dcapt[i] = val[dffs[i].d];
    for (std::size_t i = 0; i < dffs.size(); ++i) val[dffs[i].q] = dcapt[i];
  }
  std::uint64_t sig = 0;
  for (int j = 0; j < misr.width; ++j) {
    sig |= (state[static_cast<std::size_t>(j)] & 1u) << j;
  }
  return sig;
}

}  // namespace corebist::testref

#endif  // COREBIST_TESTS_SEQ_SWEEP_REFERENCE_HPP_
