#include "fault/seq_fsim.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "fault/parallel_fsim.hpp"
#include "netlist/levelize.hpp"
#include "sim/comb_sim.hpp"

namespace corebist {

namespace seq_detail {

/// A gate record in topological order; fanins are slots.
struct PosGate {
  std::array<std::uint32_t, 3> in{};  // unused pins read slot 0 (ignored)
  GateType type = GateType::kConst0;
};

/// Immutable per-netlist tables, built once per engine family. Nets are
/// renumbered into slots: undriven nets (primary inputs, flip-flop outputs,
/// anything else without a driver) first, then gate outputs in topological
/// order, so the gate at position p writes slot `sources + p` and a sweep
/// walks gate records, output words and fanout offsets sequentially.
struct Topology {
  std::uint32_t sources = 0;               // slots [0, sources) are undriven
  std::vector<std::uint32_t> slot_of;      // net -> slot
  std::vector<PosGate> gates;
  std::vector<std::uint32_t> fanout_off;   // slot -> reader positions (CSR)
  std::vector<std::uint32_t> fanout_pos;
  std::vector<std::uint32_t> capture_off;  // slot -> Q slots it feeds (CSR)
  std::vector<std::uint32_t> capture_q;
  std::vector<std::uint32_t> pi_slots;     // primary input j -> slot
  std::vector<std::uint32_t> d_slots;      // flip-flop i: D slot
  std::vector<std::uint32_t> q_slots;      // flip-flop i: Q slot
  std::size_t row_words = 0;               // trace words per cycle
  double mean_fanout = 0.0;                // reader positions per slot

  [[nodiscard]] std::size_t slots() const { return slot_of.size(); }
  [[nodiscard]] std::uint32_t fanout(std::uint32_t slot) const {
    return fanout_off[slot + 1] - fanout_off[slot];
  }
};

/// The good machine over one stimulus: one bit per slot per cycle.
struct GoodTrace {
  std::vector<std::uint64_t> stimulus;  // the words it was built from (key)
  std::size_t row_words = 0;
  std::vector<std::uint64_t> bits;      // cycle-major rows of row_words

  [[nodiscard]] const std::uint64_t* row(int cycle) const {
    return bits.data() + static_cast<std::size_t>(cycle) * row_words;
  }
};

struct TraceMemo {
  std::mutex mu;
  std::shared_ptr<const GoodTrace> last;  // the most recently built trace
};

}  // namespace seq_detail

namespace {

using seq_detail::GoodTrace;
using seq_detail::PosGate;
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
  const std::vector<GateId> order = levelize(nl).order;
  const auto nets = static_cast<NetId>(nl.numNets());
  const auto& gates = nl.gates();
  constexpr std::uint32_t kUnset = 0xFFFF'FFFFu;
  t->slot_of.assign(nets, kUnset);
  for (const GateId g : order) {
    if (t->slot_of[gates[g].out] != kUnset) {
      throw std::logic_error(nl.name() + ": multiply-driven net");
    }
    t->slot_of[gates[g].out] = 0;  // placeholder: driven
  }
  for (NetId n = 0; n < nets; ++n) {
    if (t->slot_of[n] == kUnset) t->slot_of[n] = t->sources++;
  }
  t->gates.resize(order.size());
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const Gate& g = gates[order[pos]];
    t->slot_of[g.out] = t->sources + static_cast<std::uint32_t>(pos);
  }
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const Gate& g = gates[order[pos]];
    PosGate& r = t->gates[pos];
    r.type = g.type;
    for (std::size_t p = 0; p < g.nin; ++p) r.in[p] = t->slot_of[g.in[p]];
  }
  // Reader positions per slot; a gate reading a net on two pins is listed
  // once (readers come sorted by gate, so duplicates are adjacent).
  const ReaderCsr& readers = nl.readerCsr();
  std::vector<NetId> net_of(nets);
  for (NetId n = 0; n < nets; ++n) net_of[t->slot_of[n]] = n;
  t->fanout_off.assign(nets + 1, 0);
  for (std::uint32_t slot = 0; slot < nets; ++slot) {
    GateId last = Fault::kNoGate;
    for (const NetReader& r : readers.of(net_of[slot])) {
      if (r.gate == last) continue;
      last = r.gate;
      t->fanout_pos.push_back(t->slot_of[gates[r.gate].out] - t->sources);
    }
    t->fanout_off[slot + 1] = static_cast<std::uint32_t>(t->fanout_pos.size());
  }
  for (const Dff& f : nl.dffs()) {
    t->d_slots.push_back(t->slot_of[f.d]);
    t->q_slots.push_back(t->slot_of[f.q]);
  }
  t->capture_off.assign(nets + 1, 0);
  for (const std::uint32_t d : t->d_slots) ++t->capture_off[d + 1];
  for (NetId n = 1; n <= nets; ++n) {
    t->capture_off[n] += t->capture_off[n - 1];
  }
  t->capture_q.resize(t->d_slots.size());
  std::vector<std::uint32_t> cursor(t->capture_off.begin(),
                                    t->capture_off.end() - 1);
  for (std::size_t i = 0; i < t->d_slots.size(); ++i) {
    t->capture_q[cursor[t->d_slots[i]]++] = t->q_slots[i];
  }
  for (const NetId n : nl.primaryInputs()) t->pi_slots.push_back(t->slot_of[n]);
  t->row_words = (nets + 63) / 64;
  t->mean_fanout = nets == 0 ? 0.0
                             : static_cast<double>(t->fanout_pos.size()) /
                                   static_cast<double>(nets);
  return t;
}

/// Packs 64 broadcast (all-0 / all-1) words into one bit each, eight at a
/// time: word i of a group contributes byte i, the mask keeps bit i of
/// byte i, and the multiply gathers those eight bits into the top byte.
inline std::uint64_t packBroadcastWords(const std::uint64_t* v) {
  std::uint64_t bits = 0;
  for (int k = 0; k < 8; ++k) {
    std::uint64_t bytes = 0;
    for (int i = 0; i < 8; ++i) {
      bytes |= v[8 * k + i] & (std::uint64_t{0xFF} << (8 * i));
    }
    bits |= ((bytes & 0x8040201008040201u) * 0x0101010101010101u >> 56)
            << (8 * k);
  }
  return bits;
}

/// The good machine's trace over the whole stimulus.
std::shared_ptr<const GoodTrace> simulateGood(
    const Topology& t, std::span<const std::uint64_t> stimulus) {
  auto trace = std::make_shared<GoodTrace>();
  trace->stimulus.assign(stimulus.begin(), stimulus.end());
  trace->row_words = t.row_words;
  trace->bits.assign(stimulus.size() * t.row_words, 0);
  // Padded to whole rows so every row word packs 64 slots.
  std::vector<std::uint64_t> val(64 * t.row_words, 0);
  std::vector<std::uint64_t> dcapt(t.d_slots.size(), 0);
  std::uint64_t* out = val.data() + t.sources;
  for (std::size_t c = 0; c < stimulus.size(); ++c) {
    const std::uint64_t in = stimulus[c];
    for (std::size_t j = 0; j < t.pi_slots.size(); ++j) {
      val[t.pi_slots[j]] = broadcast(((in >> j) & 1u) != 0);
    }
    for (std::size_t pos = 0; pos < t.gates.size(); ++pos) {
      const PosGate& g = t.gates[pos];
      out[pos] = evalGateWord(g.type, val[g.in[0]], val[g.in[1]], val[g.in[2]]);
    }
    std::uint64_t* row = trace->bits.data() + c * t.row_words;
    for (std::size_t w = 0; w < t.row_words; ++w) {
      row[w] = packBroadcastWords(val.data() + 64 * w);
    }
    for (std::size_t i = 0; i < dcapt.size(); ++i) dcapt[i] = val[t.d_slots[i]];
    for (std::size_t i = 0; i < dcapt.size(); ++i) val[t.q_slots[i]] = dcapt[i];
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
    s.slot = topo.slot_of[f.net];
    s.kind = f.kind;
    if (f.isStem()) {
      s.pos = s.slot < topo.sources
                  ? -1
                  : static_cast<std::int32_t>(s.slot - topo.sources);
      (s.pos < 0 ? source_sites : gate_sites).push_back(s);
    } else {
      s.branch = true;
      s.pin = f.pin;
      s.pos = static_cast<std::int32_t>(
          topo.slot_of[ctx.nl->gates()[f.gate].out] - topo.sources);
      gate_sites.push_back(s);
    }
  }
  std::sort(gate_sites.begin(), gate_sites.end(),
            [](const InjectSite& a, const InjectSite& b) {
              return a.pos < b.pos;
            });

  const auto& gates = topo.gates;
  const auto ngates = static_cast<std::uint32_t>(gates.size());
  const double sweep_load = kSweepLoadPerGate * static_cast<double>(ngates);
  std::uint64_t* const diff = scratch.diff.data();
  std::uint64_t* const val = scratch.val.data();
  std::uint64_t* const out = val + topo.sources;
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
    const std::uint64_t* row = ctx.trace->row(cycle);
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
      for (std::uint32_t slot = 0; slot < topo.sources; ++slot) {
        val[slot] = goodWord(row, slot);
      }
      for (const auto& [q, d] : seeds) {
        val[q] ^= d;
        load += topo.fanout(q);
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
          const PosGate& g = gates[pos];
          const std::uint64_t w =
              evalGateWord(g.type, val[g.in[0]], val[g.in[1]], val[g.in[2]]);
          out[pos] = w;
          diverged += (w ^ goodLane(w)) != 0 ? 1 : 0;
        }
        if (pos == ngates) break;
        const PosGate& g = gates[pos];
        const std::uint64_t a = val[g.in[0]];
        const std::uint64_t b = val[g.in[1]];
        const std::uint64_t sv = val[g.in[2]];
        const std::uint64_t w = injectAt(gate_sites, ev, pos, g.type, a, b, sv,
                                         evalGateWord(g.type, a, b, sv));
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
        const std::uint32_t b = topo.fanout_off[slot];
        const std::uint32_t e = topo.fanout_off[slot + 1];
        load += e - b;
        for (std::uint32_t k = b; k < e; ++k) {
          const std::uint32_t p = topo.fanout_pos[k];
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
          const PosGate& g = gates[pos];
          const std::uint64_t a = diff[g.in[0]] ^ goodWord(row, g.in[0]);
          const std::uint64_t b = diff[g.in[1]] ^ goodWord(row, g.in[1]);
          const std::uint64_t sv = diff[g.in[2]] ^ goodWord(row, g.in[2]);
          std::uint64_t w = evalGateWord(g.type, a, b, sv);
          w = injectAt(gate_sites, ev, pos, g.type, a, b, sv, w);
          const std::uint64_t d = w ^ goodLane(w);
          if (d != 0) diverge(topo.sources + pos, d);
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
      for (std::size_t i = 0; i < topo.d_slots.size(); ++i) {
        const std::uint64_t w = val[topo.d_slots[i]];
        const std::uint64_t d = w ^ goodLane(w);
        if (d != 0) next.emplace_back(topo.q_slots[i], d);
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
    ctx.observe.push_back(topo_->slot_of[n]);
  }
  if (o.misr) {
    for (const auto& feeds : o.misr->feeds) {
      auto& slots = ctx.misr_feeds.emplace_back();
      for (const NetId n : feeds) slots.push_back(topo_->slot_of[n]);
    }
  }

  // One pass over every fault, 63 machines per group.
  GroupScratch scratch;
  scratch.diff.assign(topo_->slots(), 0);
  scratch.val.assign(topo_->slots(), 0);
  scratch.pending.assign((topo_->gates.size() + 63) / 64, 0);
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
