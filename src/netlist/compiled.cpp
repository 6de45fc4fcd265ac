#include "netlist/compiled.hpp"

#include <memory>
#include <stdexcept>

namespace corebist {

CompiledNetlist::CompiledNetlist(const Netlist& nl) : lev(levelize(nl)) {
  const auto& gates = nl.gates();
  const auto nets = static_cast<std::uint32_t>(nl.numNets());
  constexpr std::uint32_t kUnset = 0xFFFF'FFFFu;
  constexpr std::uint32_t kDriven = kUnset - 1;
  slot_of.assign(nets, kUnset);
  for (const Gate& g : gates) {
    if (slot_of[g.out] != kUnset) {
      throw std::logic_error(nl.name() + ": multiply-driven net");
    }
    slot_of[g.out] = kDriven;
  }
  const auto place = [&](NetId n) {
    if (slot_of[n] == kUnset) slot_of[n] = sources++;
  };
  for (const NetId n : nl.primaryInputs()) place(n);
  for (const Dff& f : nl.dffs()) place(f.q);
  for (NetId n = 0; n < nets; ++n) place(n);
  const std::vector<GateId>& order = lev.order;
  type.resize(order.size());
  in_a.assign(order.size(), 0);
  in_b.assign(order.size(), 0);
  in_s.assign(order.size(), 0);
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const Gate& g = gates[order[pos]];
    const auto p = static_cast<std::uint32_t>(pos);
    // In topological order every fanin already has its slot.
    slot_of[g.out] = sources + p;
    type[pos] = g.type;
    if (g.nin > 0) in_a[pos] = slot_of[g.in[0]];
    if (g.nin > 1) in_b[pos] = slot_of[g.in[1]];
    if (g.nin > 2) in_s[pos] = slot_of[g.in[2]];
    if (runs.empty() || runs.back().type != g.type) {
      runs.push_back(Run{g.type, p, p + 1});
    } else {
      runs.back().end = p + 1;
    }
  }

  // Readers come sorted by gate, so a gate reading one net on two pins
  // shows up as adjacent duplicates.
  const ReaderCsr& readers = nl.readerCsr();
  std::vector<NetId> net_of(nets);
  for (NetId n = 0; n < nets; ++n) net_of[slot_of[n]] = n;
  fanout_off.assign(nets + 1, 0);
  for (std::uint32_t slot = 0; slot < nets; ++slot) {
    GateId last = Netlist::kNoDriver;
    for (const NetReader& r : readers.of(net_of[slot])) {
      if (r.gate == last) continue;
      last = r.gate;
      fanout_pos.push_back(slot_of[gates[r.gate].out] - sources);
    }
    fanout_off[slot + 1] = static_cast<std::uint32_t>(fanout_pos.size());
  }

  for (const NetId n : nl.primaryInputs()) pi_slots.push_back(slot_of[n]);
  for (const Dff& f : nl.dffs()) {
    if (f.d == kNullNet) {
      throw std::logic_error(nl.name() + ": flip-flop with unbound D input");
    }
    d_slots.push_back(slot_of[f.d]);
    q_slots.push_back(slot_of[f.q]);
  }
}

void CompiledNetlist::evaluate(std::uint64_t inputs,
                               std::uint8_t* val) const noexcept {
  for (std::size_t j = 0; j < pi_slots.size(); ++j) {
    val[pi_slots[j]] = static_cast<std::uint8_t>((inputs >> j) & 1u);
  }
  for (const Run& r : runs) {
    std::uint8_t* const out = val + sources + r.begin;
    const std::uint32_t* const a = in_a.data() + r.begin;
    const std::uint32_t* const b = in_b.data() + r.begin;
    const std::uint32_t* const s = in_s.data() + r.begin;
    const std::uint32_t n = r.end - r.begin;
    // One loop per type, with `op` inlined and the reads of pins it
    // ignores dropped. A run may read its own earlier outputs, so each
    // iteration reads val[] after the previous one's store.
    const auto each = [&](auto op) {
      for (std::uint32_t k = 0; k < n; ++k) {
        out[k] =
            static_cast<std::uint8_t>(op(val[a[k]], val[b[k]], val[s[k]]));
      }
    };
    using B = std::uint8_t;
    switch (r.type) {
      case GateType::kConst0:
        each([](B, B, B) { return 0u; });
        break;
      case GateType::kConst1:
        each([](B, B, B) { return 1u; });
        break;
      case GateType::kBuf:
        each([](B x, B, B) { return x; });
        break;
      case GateType::kNot:
        each([](B x, B, B) { return x ^ 1u; });
        break;
      case GateType::kAnd:
        each([](B x, B y, B) { return x & y; });
        break;
      case GateType::kNand:
        each([](B x, B y, B) { return (x & y) ^ 1u; });
        break;
      case GateType::kOr:
        each([](B x, B y, B) { return x | y; });
        break;
      case GateType::kNor:
        each([](B x, B y, B) { return (x | y) ^ 1u; });
        break;
      case GateType::kXor:
        each([](B x, B y, B) { return x ^ y; });
        break;
      case GateType::kXnor:
        each([](B x, B y, B) { return (x ^ y) ^ 1u; });
        break;
      case GateType::kMux2:
        each([](B x, B y, B sel) { return x ^ ((x ^ y) & sel); });
        break;
    }
  }
}

void CompiledNetlist::capture(std::uint8_t* val,
                              std::uint8_t* scratch) const noexcept {
  // Through `scratch`: a D slot may be another flip-flop's Q.
  for (std::size_t i = 0; i < d_slots.size(); ++i) {
    scratch[i] = val[d_slots[i]];
  }
  for (std::size_t i = 0; i < q_slots.size(); ++i) {
    val[q_slots[i]] = scratch[i];
  }
}

std::shared_ptr<const CompiledNetlist> Netlist::compiled() const {
  if (!compiled_) compiled_ = std::make_shared<const CompiledNetlist>(*this);
  return compiled_;
}

}  // namespace corebist
