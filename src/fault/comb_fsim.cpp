#include "fault/comb_fsim.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <stdexcept>

namespace corebist {

template <int W>
CombFaultSimT<W>::CombFaultSimT(const Netlist& nl,
                                std::span<const NetId> inputs,
                                std::span<const NetId> observed)
    : nl_(nl),
      compiled_(nl.compiled()),
      readers_(&nl.readerCsr()),
      inputs_(inputs.begin(), inputs.end()),
      observed_(observed.begin(), observed.end()),
      observed_flag_(nl.numNets(), 0),
      good_(nl.numNets(), Word::zero()),
      goodv1_(nl.numNets(), Word::zero()),
      fval_(nl.numNets(), Word::zero()),
      stamp_(nl.numNets(), 0),
      in_queue_(nl.numGates(), 0),
      level_buckets_(static_cast<std::size_t>(compiled_->lev.depth) + 1) {
  for (const NetId n : observed_) observed_flag_[n] = 1;
}

template <int W>
FaultSimResult CombFaultSimT<W>::run(std::span<const Fault> faults,
                                     const PatternSource& patterns,
                                     const FaultSimOptions& opts) {
  if (opts.misr.has_value()) {
    throw std::invalid_argument(
        "CombFaultSim: MISR compaction is a sequential-engine feature");
  }
  if (!opts.observe.empty()) {
    throw std::invalid_argument(
        "CombFaultSim: observation points are fixed at construction");
  }
  requireWindowCount(opts.windows, "CombFaultSim");
  // Pair campaigns: opts.launch serves the v1 (launch) vectors, `patterns`
  // the v2 (capture) vectors, and every block pair goes through
  // loadPairBlock — the FaultSim::run spelling of the LOS pair path the
  // transition ATPG used to drive by hand.
  const PatternSource* launch = opts.launch;
  // Per-fault validation and forced-word polarity, hoisted out of the
  // per-block live loop: detect() re-derives them per call for the ad-hoc
  // ATPG entry points, but a campaign pays once per fault per run.
  // (Transition forced words depend on each block's good values, so pair
  // campaigns go through detect() instead.)
  std::vector<std::uint8_t> sa1(faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (launch == nullptr && !isStuckAt(faults[i].kind)) {
      throw std::invalid_argument(
          "CombFaultSim::run: transition faults need launch/capture pairs "
          "(set FaultSimOptions::launch)");
    }
    if (launch != nullptr && isStuckAt(faults[i].kind)) {
      throw std::invalid_argument(
          "CombFaultSim::run: pair campaigns grade transition faults; "
          "stuck-at faults take the single-vector path");
    }
    sa1[i] = faults[i].kind == FaultKind::kSa1 ? 1 : 0;
  }
  const int total = opts.cycles > 0 ? opts.cycles : patterns.patternCount();
  if (total > patterns.patternCount()) {
    throw std::invalid_argument(
        "CombFaultSim: pattern source shorter than requested budget");
  }
  if (launch != nullptr && (launch->patternCount() < total ||
                            launch->width() != patterns.width())) {
    throw std::invalid_argument(
        "CombFaultSim: launch source must match the capture source in "
        "width and cover the pattern budget");
  }

  FaultSimResult res;
  res.total = faults.size();
  res.first_detect.assign(faults.size(), -1);
  if (opts.windows > 0) res.window_mask.assign(faults.size(), 0);
  const int record = opts.record_detections;
  if (record > 0) res.detect_patterns.assign(faults.size(), {});
  // Window masks and dictionary lists must see every pattern, so detection
  // alone cannot retire a fault (mirrors the sequential engine, which runs
  // every machine full-length in windowed/MISR modes).
  const bool dropping = opts.drop_detected && opts.windows == 0;

  std::vector<std::uint32_t> live(faults.size());
  std::iota(live.begin(), live.end(), 0u);

  PatternBlock block;
  PatternBlock launch_block;
  std::vector<Word> det_buf;
  // Pair mode re-derives the per-block forced word inside detect(); the
  // stuck-at path keeps the hoisted polarity.
  auto detectOne = [&](std::size_t idx) {
    return launch != nullptr ? detect(faults[idx])
                             : detectStuckAt(faults[idx], sa1[idx] != 0);
  };
  // The stall exit stays in 64-pattern units at every lane width: the
  // narrow kernel's "consecutive no-yield 64-pattern blocks" counter is
  // replayed over the 64-lane sub-blocks of each wide pass, so the exit
  // fires at the same global pattern boundary and the detected set cannot
  // change with W.
  int stall = 0;

  for (int start = 0; start < total && !live.empty(); start += kLanes) {
    patterns.fillWide(start, W, block);
    block.count = std::min(block.clampedCount(), total - start);
    if (launch != nullptr) {
      launch->fillWide(start, W, launch_block);
      launch_block.count = block.count;
      loadPairBlock(launch_block, block);
    } else {
      loadBlock(block);
    }
    const int lanes = block.count;
    const int nsub = (lanes + 63) / 64;

    // With a stall exit armed the pass is two-phase: compute every live
    // fault's detection mask first, then walk the sub-blocks to find where
    // the narrow kernel would have stopped, and only record lanes before
    // that cut.
    const bool stalling = opts.stall_blocks > 0;
    int cut_sub = nsub;
    bool stall_exit = false;
    if (stalling) {
      det_buf.resize(live.size());
      std::array<char, static_cast<std::size_t>(W)> newly{};
      for (std::size_t k = 0; k < live.size(); ++k) {
        const std::uint32_t idx = live[k];
        const Word det = detectOne(idx);
        det_buf[k] = det;
        if (res.first_detect[idx] < 0 && det.any()) {
          newly[static_cast<std::size_t>(det.firstLane() / 64)] = 1;
        }
      }
      for (int s = 0; s < nsub; ++s) {
        stall = newly[static_cast<std::size_t>(s)] ? 0 : stall + 1;
        if (stall >= opts.stall_blocks) {
          cut_sub = s + 1;
          stall_exit = true;
          break;
        }
      }
    }
    const int cut_lanes = std::min(lanes, 64 * cut_sub);
    const Word cut_mask = Word::lowLanes(cut_lanes);

    // Record detections (within the cut) and retire dropped faults. The
    // narrow kernel stops mid-pass once the live list empties, so the
    // sub-block of the last retirement bounds patterns_applied below.
    int last_retire_sub = -1;
    std::size_t out = 0;
    for (std::size_t k = 0; k < live.size(); ++k) {
      const std::uint32_t idx = live[k];
      const Word det = (stalling ? det_buf[k] : detectOne(idx)) & cut_mask;
      bool retire = false;
      int retire_lane = 0;
      if (det.any()) {
        if (res.first_detect[idx] < 0) {
          res.first_detect[idx] = start + det.firstLane();
        }
        if (opts.windows > 0) {
          for (int wi = 0; wi < W; ++wi) {
            std::uint64_t d = det.word(wi);
            while (d != 0) {
              const int lane = 64 * wi + std::countr_zero(d);
              d &= d - 1;
              const int w = static_cast<int>(
                  (static_cast<std::int64_t>(start + lane) * opts.windows) /
                  total);
              res.window_mask[idx] |= std::uint64_t{1} << w;
            }
          }
        }
        if (record > 0) {
          auto& list = res.detect_patterns[idx];
          for (int wi = 0;
               wi < W && list.size() < static_cast<std::size_t>(record);
               ++wi) {
            std::uint64_t d = det.word(wi);
            while (d != 0 &&
                   list.size() < static_cast<std::size_t>(record)) {
              const int lane = 64 * wi + std::countr_zero(d);
              d &= d - 1;
              list.push_back(static_cast<std::uint32_t>(start + lane));
              retire_lane = lane;
            }
          }
          retire = list.size() >= static_cast<std::size_t>(record);
        } else {
          retire = true;
          retire_lane = det.firstLane();
        }
      }
      if (dropping && retire) {
        if (retire_lane / 64 > last_retire_sub) {
          last_retire_sub = retire_lane / 64;
        }
      } else {
        live[out++] = idx;
      }
    }
    live.resize(out);

    // patterns_applied replays the narrow kernel's early stops: blocks end
    // at the stall cut, or at the sub-block whose retirement emptied the
    // live list, whichever the narrow loop reached first.
    int applied_sub = cut_sub;
    if (live.empty() && last_retire_sub + 1 < applied_sub) {
      applied_sub = last_retire_sub + 1;
    }
    res.patterns_applied +=
        static_cast<std::size_t>(std::min(lanes, 64 * applied_sub));
    if (stall_exit) break;
  }

  for (const auto fd : res.first_detect) {
    if (fd >= 0) ++res.detected;
  }
  return res;
}

template <int W>
std::unique_ptr<FaultSim> CombFaultSimT<W>::clone() const {
  // A copy shares the compiled layout instead of compiling again; the
  // scratch it copies is consistent (stamps never exceed the epoch).
  return std::make_unique<CombFaultSimT<W>>(*this);
}

template <int W>
void CombFaultSimT<W>::simulateGood(const PatternBlock& block,
                                    std::vector<Word>& dst) {
  const int wpi = block.clampedWords();
  if (wpi > W ||
      block.inputs.size() != inputs_.size() * static_cast<std::size_t>(wpi)) {
    throw std::invalid_argument("CombFaultSim: pattern width mismatch");
  }
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    Word v = Word::zero();
    for (int k = 0; k < wpi; ++k) {
      v.w[k] = block.inputs[i * static_cast<std::size_t>(wpi) +
                            static_cast<std::size_t>(k)];
    }
    dst[inputs_[i]] = v;
  }
  const Word zero = Word::zero();
  const auto& gates = nl_.gates();
  for (const GateId g : compiled_->lev.order) {
    const Gate& gate = gates[g];
    const Word& a = gate.nin > 0 ? dst[gate.in[0]] : zero;
    const Word& b = gate.nin > 1 ? dst[gate.in[1]] : zero;
    const Word& s = gate.nin > 2 ? dst[gate.in[2]] : zero;
    dst[gate.out] = evalGateWide<W>(gate.type, a, b, s);
  }
}

template <int W>
void CombFaultSimT<W>::loadBlock(const PatternBlock& block) {
  simulateGood(block, good_);
  lane_mask_ = Word::lowLanes(block.clampedCount());
  pair_mode_ = false;
}

template <int W>
void CombFaultSimT<W>::loadPairBlock(const PatternBlock& v1,
                                     const PatternBlock& v2) {
  simulateGood(v1, goodv1_);
  simulateGood(v2, good_);
  lane_mask_ = Word::lowLanes(std::min(v1.clampedCount(), v2.clampedCount()));
  pair_mode_ = true;
}

template <int W>
typename CombFaultSimT<W>::Word CombFaultSimT<W>::detect(const Fault& f) {
  // Faulty word presented at the site.
  Word forced = Word::zero();
  switch (f.kind) {
    case FaultKind::kSa0:
      break;
    case FaultKind::kSa1:
      forced = Word::ones();
      break;
    case FaultKind::kSlowRise:
      if (!pair_mode_) {
        throw std::logic_error("transition fault requires loadPairBlock");
      }
      // The rising edge arrives after capture: the site still shows the old
      // value whenever v1=0, v2=1; all other lanes are fault-free.
      forced = good_[f.net] & goodv1_[f.net];
      break;
    case FaultKind::kSlowFall:
      if (!pair_mode_) {
        throw std::logic_error("transition fault requires loadPairBlock");
      }
      forced = good_[f.net] | goodv1_[f.net];
      break;
  }
  return propagate(f.net, forced, f.isStem() ? Fault::kNoGate : f.gate,
                   f.pin) &
         lane_mask_;
}

template <int W>
typename CombFaultSimT<W>::Word CombFaultSimT<W>::detectStuckAt(
    const Fault& f, bool sa1) {
  return propagate(f.net, sa1 ? Word::ones() : Word::zero(),
                   f.isStem() ? Fault::kNoGate : f.gate, f.pin) &
         lane_mask_;
}

template <int W>
typename CombFaultSimT<W>::Word CombFaultSimT<W>::propagate(
    NetId site_net, const Word& faulty_word, GateId branch_gate,
    std::uint8_t branch_pin) {
  const auto& gates = nl_.gates();
  const ReaderCsr& readers = *readers_;
  ++epoch_;
  Word detected = Word::zero();

  const Levelization& lev = compiled_->lev;
  int min_level = lev.depth + 1;
  auto enqueue = [this, &lev, &min_level](GateId g) {
    if (in_queue_[g] == epoch_) return;
    in_queue_[g] = epoch_;
    const int lvl = lev.level[g];
    level_buckets_[static_cast<std::size_t>(lvl)].push_back(g);
    if (lvl < min_level) min_level = lvl;
  };
  auto enqueueReaders = [&readers, &enqueue](NetId n) {
    for (const NetReader& r : readers.of(n)) enqueue(r.gate);
  };

  if (branch_gate == Fault::kNoGate) {
    // Stem fault: all readers see the forced value.
    const Word diff = faulty_word ^ good_[site_net];
    if (diff.none()) return Word::zero();
    fval_[site_net] = faulty_word;
    stamp_[site_net] = epoch_;
    if (observed_flag_[site_net]) detected |= diff;
    enqueueReaders(site_net);
  } else {
    // Branch fault: only (gate, pin) sees the forced value. Upstream values
    // are fault-free, so this gate is re-evaluated exactly once.
    const Gate& gate = gates[branch_gate];
    Word in[3] = {Word::zero(), Word::zero(), Word::zero()};
    for (int p = 0; p < gate.nin; ++p) {
      in[p] = good_[gate.in[static_cast<std::size_t>(p)]];
    }
    in[branch_pin] = faulty_word;
    const Word out = evalGateWide<W>(gate.type, in[0], in[1], in[2]);
    const Word diff = out ^ good_[gate.out];
    if (diff.none()) return Word::zero();
    fval_[gate.out] = out;
    stamp_[gate.out] = epoch_;
    if (observed_flag_[gate.out]) detected |= diff;
    enqueueReaders(gate.out);
  }

  const Word zero = Word::zero();
  for (int lvl = min_level; lvl <= lev.depth; ++lvl) {
    auto& bucket = level_buckets_[static_cast<std::size_t>(lvl)];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const GateId g = bucket[i];
      const Gate& gate = gates[g];
      const Word& a = gate.nin > 0 ? readFaulty(gate.in[0]) : zero;
      const Word& b = gate.nin > 1 ? readFaulty(gate.in[1]) : zero;
      const Word& s = gate.nin > 2 ? readFaulty(gate.in[2]) : zero;
      const Word out = evalGateWide<W>(gate.type, a, b, s);
      if (out == good_[gate.out] && stamp_[gate.out] != epoch_) continue;
      const Word diff = out ^ good_[gate.out];
      fval_[gate.out] = out;
      stamp_[gate.out] = epoch_;
      if (diff.any()) {
        if (observed_flag_[gate.out]) detected |= diff;
        enqueueReaders(gate.out);
      }
    }
    bucket.clear();
  }
  return detected;
}

template class CombFaultSimT<1>;
template class CombFaultSimT<2>;
template class CombFaultSimT<4>;
template class CombFaultSimT<8>;
#if COREBIST_LANE_WORDS != 1 && COREBIST_LANE_WORDS != 2 && \
    COREBIST_LANE_WORDS != 4 && COREBIST_LANE_WORDS != 8
template class CombFaultSimT<kLaneWords>;
#endif

}  // namespace corebist
