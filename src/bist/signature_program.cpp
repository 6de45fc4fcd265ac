#include "bist/signature_program.hpp"

#include <algorithm>
#include <stdexcept>

#include "netlist/levelize.hpp"

namespace corebist {

SignatureProgram::SignatureProgram(const Netlist& nl, const MisrSpec& misr)
    : misr_width_(misr.width), misr_poly_(misr.poly) {
  if (nl.primaryInputs().size() > 64) {
    throw std::invalid_argument("SignatureProgram: more than 64 inputs");
  }
  if (misr.width < 1 || misr.width > 64) {
    throw std::invalid_argument("SignatureProgram: MISR width outside [1, 64]");
  }
  const Levelization lev = levelize(nl);
  const auto& gates = nl.gates();
  std::vector<GateId> order = lev.order;
  std::stable_sort(order.begin(), order.end(), [&](GateId x, GateId y) {
    if (lev.level[x] != lev.level[y]) return lev.level[x] < lev.level[y];
    return gates[x].type < gates[y].type;
  });

  // Slots: primary inputs, flip-flop outputs, other undriven nets, then
  // gate outputs in evaluation order.
  constexpr std::uint32_t kUnset = 0xFFFF'FFFFu;
  constexpr std::uint32_t kDriven = kUnset - 1;
  const auto nets = static_cast<std::uint32_t>(nl.numNets());
  std::vector<std::uint32_t> slot_of(nets, kUnset);
  for (const GateId g : order) {
    if (slot_of[gates[g].out] != kUnset) {
      throw std::logic_error(nl.name() + ": multiply-driven net");
    }
    slot_of[gates[g].out] = kDriven;
  }
  const auto place = [&](NetId n) {
    if (slot_of[n] == kUnset) slot_of[n] = sources_++;
  };
  for (const NetId n : nl.primaryInputs()) place(n);
  for (const Dff& f : nl.dffs()) place(f.q);
  for (NetId n = 0; n < nets; ++n) place(n);
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    slot_of[gates[order[pos]].out] =
        sources_ + static_cast<std::uint32_t>(pos);
  }
  slots_ = nets;

  in_a_.assign(order.size(), 0);
  in_b_.assign(order.size(), 0);
  in_s_.assign(order.size(), 0);
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const Gate& g = gates[order[pos]];
    if (g.nin > 0) in_a_[pos] = slot_of[g.in[0]];
    if (g.nin > 1) in_b_[pos] = slot_of[g.in[1]];
    if (g.nin > 2) in_s_[pos] = slot_of[g.in[2]];
    const auto p = static_cast<std::uint32_t>(pos);
    if (runs_.empty() || runs_.back().type != g.type) {
      runs_.push_back(Run{g.type, p, p + 1});
    } else {
      runs_.back().end = p + 1;
    }
  }

  for (const NetId n : nl.primaryInputs()) pi_slots_.push_back(slot_of[n]);
  for (const Dff& f : nl.dffs()) {
    d_slots_.push_back(slot_of[f.d]);
    q_slots_.push_back(slot_of[f.q]);
  }
  const std::size_t taps =
      std::min(misr.feeds.size(), static_cast<std::size_t>(misr.width));
  for (std::size_t j = 0; j < taps; ++j) {
    for (const NetId n : misr.feeds[j]) {
      feed_slots_.push_back(slot_of[n]);
      feed_taps_.push_back(static_cast<std::uint8_t>(j));
    }
  }
}

std::uint64_t SignatureProgram::sign(std::span<const std::uint64_t> stimulus,
                                     int cycles,
                                     std::span<std::uint64_t> per_cycle) const {
  if (static_cast<int>(stimulus.size()) < cycles) {
    throw std::invalid_argument(
        "SignatureProgram::sign: stimulus shorter than cycles");
  }
  if (!per_cycle.empty() && static_cast<int>(per_cycle.size()) < cycles) {
    throw std::invalid_argument(
        "SignatureProgram::sign: per-cycle output shorter than cycles");
  }
  std::uint64_t* const states = per_cycle.data();
  const std::uint64_t keep = misr_width_ == 64
                                 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << misr_width_) - 1;
  const std::uint64_t poly = misr_poly_ & keep;
  const int msb_shift = misr_width_ - 1;

  std::vector<std::uint8_t> v(slots_, 0);
  std::vector<std::uint8_t> dcapt(d_slots_.size(), 0);
  std::uint8_t* const val = v.data();
  std::uint8_t* const gate_out = val + sources_;
  const std::uint32_t* const ia = in_a_.data();
  const std::uint32_t* const ib = in_b_.data();
  const std::uint32_t* const is = in_s_.data();
  std::uint64_t state = 0;

  for (int c = 0; c < cycles; ++c) {
    const std::uint64_t in = stimulus[static_cast<std::size_t>(c)];
    for (std::size_t j = 0; j < pi_slots_.size(); ++j) {
      val[pi_slots_[j]] = static_cast<std::uint8_t>((in >> j) & 1u);
    }
    for (const Run& r : runs_) {
      std::uint8_t* const out = gate_out + r.begin;
      const std::uint32_t* const a = ia + r.begin;
      const std::uint32_t* const b = ib + r.begin;
      const std::uint32_t* const s = is + r.begin;
      const std::uint32_t n = r.end - r.begin;
      switch (r.type) {
        case GateType::kConst0:
          std::fill_n(out, n, std::uint8_t{0});
          break;
        case GateType::kConst1:
          std::fill_n(out, n, std::uint8_t{1});
          break;
        case GateType::kBuf:
          for (std::uint32_t k = 0; k < n; ++k) out[k] = val[a[k]];
          break;
        case GateType::kNot:
          for (std::uint32_t k = 0; k < n; ++k) out[k] = val[a[k]] ^ 1u;
          break;
        case GateType::kAnd:
          for (std::uint32_t k = 0; k < n; ++k) out[k] = val[a[k]] & val[b[k]];
          break;
        case GateType::kNand:
          for (std::uint32_t k = 0; k < n; ++k) {
            out[k] = (val[a[k]] & val[b[k]]) ^ 1u;
          }
          break;
        case GateType::kOr:
          for (std::uint32_t k = 0; k < n; ++k) out[k] = val[a[k]] | val[b[k]];
          break;
        case GateType::kNor:
          for (std::uint32_t k = 0; k < n; ++k) {
            out[k] = (val[a[k]] | val[b[k]]) ^ 1u;
          }
          break;
        case GateType::kXor:
          for (std::uint32_t k = 0; k < n; ++k) out[k] = val[a[k]] ^ val[b[k]];
          break;
        case GateType::kXnor:
          for (std::uint32_t k = 0; k < n; ++k) {
            out[k] = (val[a[k]] ^ val[b[k]]) ^ 1u;
          }
          break;
        case GateType::kMux2:
          for (std::uint32_t k = 0; k < n; ++k) {
            const std::uint8_t x = val[a[k]];
            out[k] = x ^ ((x ^ val[b[k]]) & val[s[k]]);
          }
          break;
      }
    }
    std::uint64_t feed = 0;
    for (std::size_t i = 0; i < feed_slots_.size(); ++i) {
      feed ^= std::uint64_t{val[feed_slots_[i]]} << feed_taps_[i];
    }
    const std::uint64_t msb = (state >> msb_shift) & 1u;
    state = ((state << 1) ^ (poly & (0 - msb)) ^ feed) & keep;
    if (states != nullptr) states[c] = state;
    for (std::size_t i = 0; i < dcapt.size(); ++i) dcapt[i] = val[d_slots_[i]];
    for (std::size_t i = 0; i < dcapt.size(); ++i) val[q_slots_[i]] = dcapt[i];
  }
  return state;
}

}  // namespace corebist
