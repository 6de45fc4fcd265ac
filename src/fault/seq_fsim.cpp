#include "fault/seq_fsim.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "fault/parallel_fsim.hpp"
#include "netlist/compiled.hpp"

namespace corebist {

namespace seq_detail {

/// Immutable per-netlist tables, built once per engine family: the
/// netlist's compiled layout (slots, gate positions, fanout CSR; see
/// netlist/compiled.hpp) plus what only this engine reads.
struct Topology {
  std::shared_ptr<const CompiledNetlist> net;
  std::vector<std::uint32_t> capture_off;  // slot -> Q slots it feeds (CSR)
  std::vector<std::uint32_t> capture_q;
  std::size_t row_words = 0;               // trace words per cycle
  double mean_fanout = 0.0;                // reader positions per slot
};

/// The good machine over one stimulus: one bit per slot per cycle.
struct GoodTrace {
  std::vector<std::uint64_t> stimulus;  // the words it was built from (key)
  std::vector<std::uint64_t> bits;      // cycle-major rows of row_words
};

struct TraceMemo {
  std::mutex mu;
  std::shared_ptr<const GoodTrace> last;  // the most recently built trace
};

}  // namespace seq_detail

namespace {

using seq_detail::GoodTrace;
using seq_detail::Topology;

/// A group sweeps every gate for a cycle when the previous cycle's
/// divergence woke more than this many gate evaluations per gate. A woken
/// evaluation (bitmap pop, scattered reads, fanout walk) costs about seven
/// swept ones: ~30 ns against ~4 ns on a 4-vCPU AVX-512 Xeon.
constexpr double kSweepLoadPerGate = 0.15;

/// Replicates lane 0 (the good machine) of `w` across all 64 lanes.
inline std::uint64_t goodLane(std::uint64_t w) {
  return static_cast<std::uint64_t>(-static_cast<std::int64_t>(w & 1u));
}

/// The good value of `slot` in trace row `row`, broadcast.
inline std::uint64_t goodWord(const std::uint64_t* row, std::uint32_t slot) {
  return static_cast<std::uint64_t>(
      -static_cast<std::int64_t>((row[slot >> 6] >> (slot & 63)) & 1u));
}

std::shared_ptr<const Topology> buildTopology(const Netlist& nl) {
  auto t = std::make_shared<Topology>();
  t->net = nl.compiled();
  const CompiledNetlist& net = *t->net;
  const std::size_t slots = net.slots();
  t->capture_off.assign(slots + 1, 0);
  for (const std::uint32_t d : net.d_slots) ++t->capture_off[d + 1];
  for (std::size_t n = 1; n <= slots; ++n) {
    t->capture_off[n] += t->capture_off[n - 1];
  }
  t->capture_q.resize(net.d_slots.size());
  std::vector<std::uint32_t> cursor(t->capture_off.begin(),
                                    t->capture_off.end() - 1);
  for (std::size_t i = 0; i < net.d_slots.size(); ++i) {
    t->capture_q[cursor[net.d_slots[i]]++] = net.q_slots[i];
  }
  t->row_words = (slots + 63) / 64;
  t->mean_fanout = slots == 0 ? 0.0
                              : static_cast<double>(net.fanout_pos.size()) /
                                    static_cast<double>(slots);
  return t;
}

/// Packs 64 byte values (0 or 1) into one bit each, eight at a time: the
/// multiply gathers bit 0 of byte i into bit 56 + i without carries.
inline std::uint64_t packBytes(const std::uint8_t* v) {
  static_assert(std::endian::native == std::endian::little);  // byte i: bit 8i
  std::uint64_t bits = 0;
  for (int k = 0; k < 8; ++k) {
    std::uint64_t bytes = 0;
    std::memcpy(&bytes, v + 8 * k, sizeof bytes);
    bits |= ((bytes * 0x0102040810204080u) >> 56) << (8 * k);
  }
  return bits;
}

/// The good machine's trace over the whole stimulus: the compiled kernel,
/// one row of packed slot bits per cycle.
std::shared_ptr<const GoodTrace> simulateGood(
    const Topology& t, std::span<const std::uint64_t> stimulus) {
  const CompiledNetlist& net = *t.net;
  auto trace = std::make_shared<GoodTrace>();
  trace->stimulus.assign(stimulus.begin(), stimulus.end());
  trace->bits.assign(stimulus.size() * t.row_words, 0);
  // Padded to whole rows so every row word packs 64 slots.
  std::vector<std::uint8_t> val(64 * t.row_words, 0);
  std::vector<std::uint8_t> scratch(net.d_slots.size(), 0);
  for (std::size_t c = 0; c < stimulus.size(); ++c) {
    net.evaluate(stimulus[c], val.data());
    std::uint64_t* row = trace->bits.data() + c * t.row_words;
    for (std::size_t w = 0; w < t.row_words; ++w) {
      row[w] = packBytes(val.data() + 64 * w);
    }
    net.capture(val.data(), scratch.data());
  }
  return trace;
}

/// One injected fault inside a simulation group.
struct InjectSite {
  std::uint64_t mask = 0;  // the machine bit this fault owns
  std::uint32_t slot = 0;  // the site net
  std::int32_t pos = -1;   // position of the gate it patches, -1 for sources
  bool branch = false;     // patches one input pin of the gate at `pos`
  std::uint8_t pin = 0;
  FaultKind kind = FaultKind::kSa0;
  std::uint64_t prev = 0;  // TDF: previous raw site value (in `mask` bit)
};

/// `w` with the site's machine bit replaced by what the fault presents in
/// place of that raw value; advances the TDF history.
inline std::uint64_t inject(InjectSite& s, std::uint64_t w) {
  const std::uint64_t cur = w & s.mask;
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
  return (w & ~s.mask) | presented;
}

/// Applies the injection events at gate position `pos` (the next ones from
/// cursor `ev` in the position-sorted `sites`) to the gate's output word
/// `w`, given its input words.
inline std::uint64_t injectAt(std::vector<InjectSite>& sites, std::size_t& ev,
                              std::uint32_t pos, GateType type,
                              std::uint64_t a, std::uint64_t b,
                              std::uint64_t s, std::uint64_t w) {
  for (; ev < sites.size() &&
         sites[ev].pos == static_cast<std::int32_t>(pos);
       ++ev) {
    InjectSite& site = sites[ev];
    if (!site.branch) {
      w = inject(site, w);
    } else {
      // Branch fault: recompute this gate for one machine with the pin
      // view patched.
      std::uint64_t iv[3] = {a, b, s};
      iv[site.pin] = inject(site, iv[site.pin]);
      const std::uint64_t out = evalGateWord(type, iv[0], iv[1], iv[2]);
      w = (w & ~site.mask) | (out & site.mask);
    }
  }
  return w;
}

struct GroupScratch {
  /// Event mode: each slot's word XOR its good value; zero off the
  /// diverged set, and all zero between cycles.
  std::vector<std::uint64_t> diff;
  std::vector<std::uint64_t> val;      // sweep mode: every slot's word
  std::vector<std::uint64_t> pending;  // gate positions to evaluate (bitmap)
  std::vector<std::uint32_t> written;  // slots given a diff this cycle
  /// Flip-flops whose captured D word diverged: (Q slot, diff).
  std::vector<std::pair<std::uint32_t, std::uint64_t>> seeds;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> next_seeds;
  std::vector<std::uint64_t> misr;     // sliced MISR state
};

/// Everything constant across the groups of one pass.
struct RunContext {
  const Netlist* nl;
  const Topology* topo;
  const GoodTrace* trace;
  std::vector<std::uint32_t> observe;                  // slots
  std::vector<std::vector<std::uint32_t>> misr_feeds;  // slots per tap
};

/// Grades one group into `result`'s per-fault rows and, when the MISR is
/// modelled, adds the group's per-cycle MISR-difference counts into
/// `result.misr_curve`.
void simulateGroup(const RunContext& ctx, const FaultSimOptions& opts,
                   std::span<const Fault> faults,
                   std::span<const std::uint32_t> members,
                   GroupScratch& scratch, FaultSimResult& result) {
  const Topology& topo = *ctx.topo;
  const CompiledNetlist& net = *topo.net;
  const int cycles = opts.cycles;
  const bool want_windows = opts.windows > 0;
  const bool want_misr = opts.misr.has_value();

  // Build injection tables for this group.
  std::vector<InjectSite> source_sites;  // PI/state-net stems
  std::vector<InjectSite> gate_sites;    // gate-output stems + branches
  std::uint64_t group_mask = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const Fault& f = faults[members[i]];
    InjectSite s;
    s.mask = std::uint64_t{1} << (i + 1);  // bit 0 is the good machine
    group_mask |= s.mask;
    s.slot = net.slot_of[f.net];
    s.kind = f.kind;
    if (f.isStem()) {
      s.pos = s.slot < net.sources
                  ? -1
                  : static_cast<std::int32_t>(s.slot - net.sources);
      (s.pos < 0 ? source_sites : gate_sites).push_back(s);
    } else {
      s.branch = true;
      s.pin = f.pin;
      s.pos = static_cast<std::int32_t>(
          net.slot_of[ctx.nl->gates()[f.gate].out] - net.sources);
      gate_sites.push_back(s);
    }
  }
  std::sort(gate_sites.begin(), gate_sites.end(),
            [](const InjectSite& a, const InjectSite& b) {
              return a.pos < b.pos;
            });

  const GateType* const type = net.type.data();
  const std::uint32_t* const ia = net.in_a.data();
  const std::uint32_t* const ib = net.in_b.data();
  const std::uint32_t* const is = net.in_s.data();
  const auto ngates = static_cast<std::uint32_t>(net.gateCount());
  const double sweep_load = kSweepLoadPerGate * static_cast<double>(ngates);
  std::uint64_t* const diff = scratch.diff.data();
  std::uint64_t* const val = scratch.val.data();
  std::uint64_t* const out = val + net.sources;
  std::uint64_t* const pending = scratch.pending.data();
  const std::size_t pending_words = scratch.pending.size();
  auto& written = scratch.written;
  auto& seeds = scratch.seeds;
  auto& next = scratch.next_seeds;
  seeds.clear();
  written.clear();

  const int misr_w = want_misr ? opts.misr->width : 0;
  scratch.misr.assign(static_cast<std::size_t>(misr_w), 0);

  std::uint64_t detected_word = 0;  // machines that diffed at an output
  std::vector<std::uint64_t> window_masks(want_windows ? members.size() : 0,
                                          0);
  const bool want_sigs = want_windows && want_misr;
  const int sig_words =
      want_sigs ? (opts.windows * misr_w + 63) / 64 : 0;
  std::vector<std::uint64_t> window_sigs(
      want_sigs ? members.size() * static_cast<std::size_t>(sig_words) : 0,
      0);

  std::size_t load = 0;  // gate evaluations the last cycle's divergence woke
  for (int cycle = 0; cycle < cycles; ++cycle) {
    const std::uint64_t* row = ctx.trace->bits.data() +
                               static_cast<std::size_t>(cycle) * topo.row_words;
    const bool sweep = static_cast<double>(load) > sweep_load;
    load = 0;
    // The word of `slot` this cycle, in either mode.
    auto word = [&](std::uint32_t slot) {
      return sweep ? val[slot] : diff[slot] ^ goodWord(row, slot);
    };

    std::size_t ev = 0;
    if (sweep) {
      // Dense cycle: every source from the good trace and the seeds, then
      // every gate in order.
      for (std::uint32_t slot = 0; slot < net.sources; ++slot) {
        val[slot] = goodWord(row, slot);
      }
      for (const auto& [q, d] : seeds) {
        val[q] ^= d;
        load += net.fanout_off[q + 1] - net.fanout_off[q];
      }
      for (InjectSite& s : source_sites) val[s.slot] = inject(s, val[s.slot]);
      // Runs of site-free gates between the sorted fault sites.
      std::size_t diverged = 0;
      for (std::uint32_t pos = 0; pos < ngates;) {
        const std::uint32_t stop =
            ev < gate_sites.size()
                ? static_cast<std::uint32_t>(gate_sites[ev].pos)
                : ngates;
        for (; pos < stop; ++pos) {
          const std::uint64_t w =
              evalGateWord(type[pos], val[ia[pos]], val[ib[pos]], val[is[pos]]);
          out[pos] = w;
          diverged += (w ^ goodLane(w)) != 0 ? 1 : 0;
        }
        if (pos == ngates) break;
        const std::uint64_t a = val[ia[pos]];
        const std::uint64_t b = val[ib[pos]];
        const std::uint64_t sv = val[is[pos]];
        const std::uint64_t w = injectAt(gate_sites, ev, pos, type[pos], a, b,
                                         sv, evalGateWord(type[pos], a, b, sv));
        out[pos] = w;
        diverged += (w ^ goodLane(w)) != 0 ? 1 : 0;
        ++pos;
      }
      load += static_cast<std::size_t>(static_cast<double>(diverged) *
                                       topo.mean_fanout);
    } else {
      // Event cycle: a net diverges from the good machine -> record its
      // diff and wake its readers.
      auto diverge = [&](std::uint32_t slot, std::uint64_t d) {
        diff[slot] = d;
        written.push_back(slot);
        const std::uint32_t b = net.fanout_off[slot];
        const std::uint32_t e = net.fanout_off[slot + 1];
        load += e - b;
        for (std::uint32_t k = b; k < e; ++k) {
          const std::uint32_t p = net.fanout_pos[k];
          pending[p >> 6] |= std::uint64_t{1} << (p & 63);
        }
      };
      for (const auto& [q, d] : seeds) diverge(q, d);
      for (InjectSite& s : source_sites) {
        const std::uint64_t g = goodWord(row, s.slot);
        const std::uint64_t d = inject(s, diff[s.slot] ^ g) ^ g;
        if (diff[s.slot] != 0) {
          diff[s.slot] = d;  // already woken by its seed
        } else if (d != 0) {
          diverge(s.slot, d);
        }
      }
      for (const InjectSite& s : gate_sites) {
        pending[s.pos >> 6] |= std::uint64_t{1} << (s.pos & 63);
      }
      for (std::size_t wi = 0; wi < pending_words; ++wi) {
        while (pending[wi] != 0) {
          const std::uint64_t bits = pending[wi];
          pending[wi] = bits & (bits - 1);
          const auto pos = static_cast<std::uint32_t>(
              64 * wi + static_cast<std::size_t>(std::countr_zero(bits)));
          const std::uint64_t a = diff[ia[pos]] ^ goodWord(row, ia[pos]);
          const std::uint64_t b = diff[ib[pos]] ^ goodWord(row, ib[pos]);
          const std::uint64_t sv = diff[is[pos]] ^ goodWord(row, is[pos]);
          std::uint64_t w = evalGateWord(type[pos], a, b, sv);
          w = injectAt(gate_sites, ev, pos, type[pos], a, b, sv, w);
          const std::uint64_t d = w ^ goodLane(w);
          if (d != 0) diverge(net.sources + pos, d);
        }
      }
    }

    // Observe outputs.
    std::uint64_t cycle_diff = 0;
    for (const std::uint32_t po : ctx.observe) {
      const std::uint64_t w = word(po);
      cycle_diff |= w ^ goodLane(w);
    }
    cycle_diff &= group_mask;
    std::uint64_t newly = cycle_diff & ~detected_word;
    detected_word |= cycle_diff;
    while (newly != 0) {
      const int bit = std::countr_zero(newly);
      newly &= newly - 1;
      result.first_detect[members[static_cast<std::size_t>(bit - 1)]] = cycle;
    }
    if (want_windows && cycle_diff != 0) {
      const int w =
          static_cast<int>((static_cast<std::int64_t>(cycle) * opts.windows) /
                           cycles);
      std::uint64_t d = cycle_diff;
      while (d != 0) {
        const int bit = std::countr_zero(d);
        d &= d - 1;
        window_masks[static_cast<std::size_t>(bit - 1)] |=
            std::uint64_t{1} << w;
      }
    }

    // MISR compaction (bit-sliced across machines), then the count of
    // machines whose state now differs from the good one.
    if (want_misr) {
      auto& s = scratch.misr;
      const std::uint64_t msb = s[static_cast<std::size_t>(misr_w - 1)];
      std::uint64_t differs = 0;
      for (int j = misr_w - 1; j >= 0; --j) {
        std::uint64_t feed = 0;
        for (const std::uint32_t n :
             ctx.misr_feeds[static_cast<std::size_t>(j)]) {
          feed ^= word(n);
        }
        const std::uint64_t shifted =
            j > 0 ? s[static_cast<std::size_t>(j - 1)] : 0;
        const std::uint64_t fb = ((opts.misr->poly >> j) & 1u) != 0 ? msb : 0;
        const std::uint64_t tap = shifted ^ fb ^ feed;
        s[static_cast<std::size_t>(j)] = tap;
        differs |= tap ^ goodLane(tap);
      }
      result.misr_curve[static_cast<std::size_t>(cycle)] +=
          static_cast<std::uint32_t>(std::popcount(differs & group_mask));
    }

    // Window-boundary MISR read-out (signature syndrome capture).
    if (want_sigs) {
      const int w_now = static_cast<int>(
          (static_cast<std::int64_t>(cycle) * opts.windows) / cycles);
      const int w_next = static_cast<int>(
          (static_cast<std::int64_t>(cycle + 1) * opts.windows) / cycles);
      if (w_next > w_now || cycle + 1 == cycles) {
        for (int j = 0; j < misr_w; ++j) {
          const std::uint64_t taps = scratch.misr[static_cast<std::size_t>(j)];
          const std::uint64_t d = taps ^ goodLane(taps);
          if (d == 0) continue;
          const int bitpos = w_now * misr_w + j;
          for (std::size_t i = 0; i < members.size(); ++i) {
            if ((d >> (i + 1)) & 1u) {
              window_sigs[i * static_cast<std::size_t>(sig_words) +
                          static_cast<std::size_t>(bitpos / 64)] |=
                  std::uint64_t{1} << (bitpos % 64);
            }
          }
        }
      }
    }

    // Early exit: everything in the group already detected and no one needs
    // the full-length run.
    if (opts.drop_detected && !want_windows && !want_misr &&
        detected_word == group_mask) {
      break;
    }

    // Clock edge: only diverged D words are carried into the next cycle.
    next.clear();
    if (sweep) {
      for (std::size_t i = 0; i < net.d_slots.size(); ++i) {
        const std::uint64_t w = val[net.d_slots[i]];
        const std::uint64_t d = w ^ goodLane(w);
        if (d != 0) next.emplace_back(net.q_slots[i], d);
      }
    } else {
      for (const std::uint32_t slot : written) {
        const std::uint64_t d = diff[slot];
        diff[slot] = 0;
        if (d == 0) continue;
        for (std::uint32_t k = topo.capture_off[slot];
             k < topo.capture_off[slot + 1]; ++k) {
          next.emplace_back(topo.capture_q[k], d);
        }
      }
      written.clear();
    }
    seeds.swap(next);
  }
  for (const std::uint32_t slot : written) diff[slot] = 0;  // early exit

  // Fold group results back (first_detect was written at detection time).
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (want_windows) result.window_mask[members[i]] = window_masks[i];
    if (want_sigs) {
      for (int w = 0; w < sig_words; ++w) {
        result.window_sig[members[i] * static_cast<std::size_t>(sig_words) +
                          static_cast<std::size_t>(w)] =
            window_sigs[i * static_cast<std::size_t>(sig_words) +
                        static_cast<std::size_t>(w)];
      }
    }
    if (want_misr) {
      bool differs = false;
      for (int j = 0; j < misr_w; ++j) {
        const std::uint64_t w = scratch.misr[static_cast<std::size_t>(j)];
        if (((w >> (i + 1)) & 1u) != (w & 1u)) {
          differs = true;
          break;
        }
      }
      result.misr_detect[members[i]] = differs ? 1 : 0;
    }
  }
}

}  // namespace

SeqFaultSim::SeqFaultSim(const Netlist& nl)
    : nl_(nl), memo_(std::make_shared<seq_detail::TraceMemo>()) {
  if (nl.primaryInputs().size() > 64) {
    throw std::invalid_argument(
        "SeqFaultSim: more than 64 primary inputs; pack the stimulus "
        "differently");
  }
  topo_ = buildTopology(nl);
}

std::shared_ptr<const GoodTrace> SeqFaultSim::goodTrace(
    std::span<const std::uint64_t> stimulus, int cycles) const {
  const auto n = static_cast<std::size_t>(cycles);
  std::lock_guard<std::mutex> lock(memo_->mu);
  const auto& last = memo_->last;
  if (last != nullptr && last->stimulus.size() >= n &&
      std::equal(stimulus.begin(), stimulus.begin() + cycles,
                 last->stimulus.begin())) {
    return last;
  }
  // Built under the lock: concurrent shards of one campaign wait for the
  // first one's trace instead of each simulating the good machine again.
  memo_->last = simulateGood(*topo_, stimulus);
  return memo_->last;
}

FaultSimResult SeqFaultSim::run(std::span<const Fault> faults,
                                const PatternSource& patterns,
                                const FaultSimOptions& opts) {
  if (opts.launch != nullptr) {
    throw std::invalid_argument(
        "SeqFaultSim: launch/capture pair campaigns are a combinational "
        "(full-scan) notion; sequential stimulus launches transitions "
        "between consecutive cycles");
  }
  const int cycles = opts.cycles > 0 ? opts.cycles : patterns.patternCount();
  if (opts.num_threads > 1 || runsStageLadder(opts, cycles)) {
    // Worker threads and the stage ladder belong to ParallelFaultSim,
    // whose workers call back in here with one thread and no prepass.
    return ParallelFaultSim(*this, {std::max(1, opts.num_threads)})
        .run(faults, patterns, opts);
  }
  requireWindowCount(opts.windows, "SeqFaultSim");
  const std::span<const std::uint64_t> stimulus = patterns.packedWords();
  if (static_cast<int>(stimulus.size()) < cycles) {
    throw std::invalid_argument(
        stimulus.empty() ? "SeqFaultSim: the pattern source serves no packed "
                           "per-cycle words; use a CyclePatternSource"
                         : "SeqFaultSim: stimulus shorter than cycles");
  }
  FaultSimOptions o = opts;
  o.cycles = cycles;

  FaultSimResult result;
  result.total = faults.size();
  result.first_detect.assign(faults.size(), -1);
  if (o.windows > 0) result.window_mask.assign(faults.size(), 0);
  if (o.misr) {
    result.misr_detect.assign(faults.size(), 0);
    result.misr_curve.assign(static_cast<std::size_t>(cycles), 0);
  }
  if (o.windows > 0 && o.misr) {
    result.sig_words_per_fault = (o.windows * o.misr->width + 63) / 64;
    result.window_sig.assign(
        faults.size() * static_cast<std::size_t>(result.sig_words_per_fault),
        0);
  }

  std::shared_ptr<const GoodTrace> trace;
  if (!faults.empty() && cycles > 0) trace = goodTrace(stimulus, cycles);
  RunContext ctx;
  ctx.nl = &nl_;
  ctx.topo = topo_.get();
  ctx.trace = trace.get();
  for (const NetId n : o.observe.empty() ? nl_.primaryOutputs() : o.observe) {
    ctx.observe.push_back(topo_->net->slot_of[n]);
  }
  if (o.misr) {
    for (const auto& feeds : o.misr->feeds) {
      auto& slots = ctx.misr_feeds.emplace_back();
      for (const NetId n : feeds) slots.push_back(topo_->net->slot_of[n]);
    }
  }

  // One pass over every fault, 63 machines per group.
  GroupScratch scratch;
  scratch.diff.assign(topo_->net->slots(), 0);
  scratch.val.assign(topo_->net->slots(), 0);
  scratch.pending.assign((topo_->net->gateCount() + 63) / 64, 0);
  std::vector<std::uint32_t> all(faults.size());
  std::iota(all.begin(), all.end(), 0u);
  const std::span<const std::uint32_t> members(all);
  for (std::size_t at = 0; at < members.size(); at += 63) {
    simulateGroup(ctx, o, faults,
                  members.subspan(at, std::min<std::size_t>(
                                          63, members.size() - at)),
                  scratch, result);
  }

  for (const auto fd : result.first_detect) {
    if (fd >= 0) ++result.detected;
  }
  result.patterns_applied = static_cast<std::size_t>(cycles);
  // Sequential machines latch only the first divergence; dictionary
  // consumers get a one-entry list per detected fault.
  if (o.record_detections > 0) {
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

std::unique_ptr<FaultSim> SeqFaultSim::clone() const {
  return std::make_unique<SeqFaultSim>(*this);
}

}  // namespace corebist
