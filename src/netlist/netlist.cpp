#include "netlist/netlist.hpp"

#include <algorithm>
#include <stdexcept>

namespace corebist {

NetId Netlist::newNet() {
  const NetId n = static_cast<NetId>(num_nets_++);
  driver_.push_back(kNoDriver);
  invalidateCaches();
  return n;
}

std::vector<NetId> Netlist::newNets(int n) {
  std::vector<NetId> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(newNet());
  return out;
}

NetId Netlist::addGate(GateType type, std::span<const NetId> inputs) {
  const int arity = gateArity(type);
  if (static_cast<int>(inputs.size()) != arity) {
    throw std::invalid_argument("addGate: wrong fanin count for " +
                                std::string(gateName(type)));
  }
  for (const NetId in : inputs) {
    if (in >= num_nets_) throw std::invalid_argument("addGate: bad input net");
  }
  Gate g;
  g.type = type;
  g.nin = static_cast<std::uint8_t>(arity);
  for (int i = 0; i < arity; ++i) g.in[static_cast<std::size_t>(i)] = inputs[static_cast<std::size_t>(i)];
  g.out = newNet();
  driver_[g.out] = static_cast<GateId>(gates_.size());
  gates_.push_back(g);
  invalidateCaches();
  return g.out;
}

NetId Netlist::addGate1(GateType type, NetId a) {
  const NetId ins[1] = {a};
  return addGate(type, ins);
}

NetId Netlist::addGate2(GateType type, NetId a, NetId b) {
  const NetId ins[2] = {a, b};
  return addGate(type, ins);
}

NetId Netlist::addMux(NetId a, NetId b, NetId sel) {
  const NetId ins[3] = {a, b, sel};
  return addGate(GateType::kMux2, ins);
}

void Netlist::driveNet(NetId target, NetId source) {
  if (target >= num_nets_ || source >= num_nets_) {
    throw std::invalid_argument("driveNet: bad net id");
  }
  if (driver_[target] != kNoDriver || isStateNet(target)) {
    throw std::logic_error("driveNet: target already driven");
  }
  Gate g;
  g.type = GateType::kBuf;
  g.nin = 1;
  g.in[0] = source;
  g.out = target;
  driver_[target] = static_cast<GateId>(gates_.size());
  gates_.push_back(g);
  invalidateCaches();
}

NetId Netlist::addDff() {
  Dff ff;
  ff.q = newNet();
  ff.d = kNullNet;
  dff_of_q_.emplace(ff.q, static_cast<int>(dffs_.size()));
  dffs_.push_back(ff);
  invalidateCaches();
  return ff.q;
}

void Netlist::connectDff(NetId q, NetId d) {
  const auto it = dff_of_q_.find(q);
  if (it == dff_of_q_.end()) {
    throw std::invalid_argument("connectDff: net is not a DFF output");
  }
  if (d >= num_nets_) throw std::invalid_argument("connectDff: bad D net");
  dffs_[static_cast<std::size_t>(it->second)].d = d;
  invalidateCaches();
}

void Netlist::rebindDff(NetId q, NetId new_d) {
  const auto it = dff_of_q_.find(q);
  if (it == dff_of_q_.end()) {
    throw std::invalid_argument("rebindDff: net is not a DFF output");
  }
  if (new_d >= num_nets_) throw std::invalid_argument("rebindDff: bad D net");
  dffs_[static_cast<std::size_t>(it->second)].d = new_d;
  invalidateCaches();
}

NetId Netlist::addPrimaryInput() {
  const NetId n = newNet();
  pis_.push_back(n);
  return n;
}

void Netlist::markPrimaryOutput(NetId n) {
  if (n >= num_nets_) throw std::invalid_argument("markPrimaryOutput: bad net");
  pos_.push_back(n);
}

void Netlist::registerPort(std::string name, std::span<const NetId> bits,
                           bool is_input) {
  PortBus bus;
  bus.name = std::move(name);
  bus.bits.assign(bits.begin(), bits.end());
  bus.is_input = is_input;
  ports_.push_back(std::move(bus));
}

void Netlist::mutateGateType(GateId g, GateType t) {
  if (g >= gates_.size()) throw std::invalid_argument("mutateGateType: bad id");
  if (gateArity(t) != gates_[g].nin) {
    throw std::invalid_argument("mutateGateType: arity mismatch");
  }
  gates_[g].type = t;
  invalidateCaches();
}

void Netlist::rebindGateInput(GateId g, std::uint8_t pin, NetId n) {
  if (g >= gates_.size()) {
    throw std::invalid_argument("rebindGateInput: bad gate id");
  }
  if (pin >= gates_[g].nin) {
    throw std::invalid_argument("rebindGateInput: bad pin");
  }
  if (n >= num_nets_) throw std::invalid_argument("rebindGateInput: bad net");
  gates_[g].in[pin] = n;
  invalidateCaches();
}

void Netlist::addRogueDriver(NetId target, NetId source) {
  if (target >= num_nets_ || source >= num_nets_) {
    throw std::invalid_argument("addRogueDriver: bad net id");
  }
  Gate g;
  g.type = GateType::kBuf;
  g.nin = 1;
  g.in[0] = source;
  g.out = target;
  // Deliberately no driver_ update: the original driver keeps driverOf()
  // so downstream queries stay stable while the lint reports the clash.
  if (driver_[target] == kNoDriver && !isStateNet(target)) {
    driver_[target] = static_cast<GateId>(gates_.size());
  }
  gates_.push_back(g);
  invalidateCaches();
}

void Netlist::setNetName(NetId n, std::string name) {
  net_names_[n] = std::move(name);
}

std::string Netlist::netName(NetId n) const {
  const auto it = net_names_.find(n);
  if (it != net_names_.end()) return it->second;
  return "n" + std::to_string(n);
}

const PortBus* Netlist::findPort(std::string_view name) const {
  for (const auto& p : ports_) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

int Netlist::portWidth(bool inputs) const {
  int w = 0;
  for (const auto& p : ports_) {
    if (p.is_input == inputs) w += static_cast<int>(p.bits.size());
  }
  return w;
}

GateId Netlist::driverOf(NetId n) const {
  if (n >= driver_.size()) return kNoDriver;
  return driver_[n];
}

bool Netlist::isStateNet(NetId n) const { return dff_of_q_.contains(n); }

int Netlist::dffIndexOf(NetId n) const {
  const auto it = dff_of_q_.find(n);
  return it == dff_of_q_.end() ? -1 : it->second;
}

const ReaderCsr& Netlist::readerCsr() const {
  if (reader_csr_.offsets.empty() && num_nets_ > 0) {
    auto& offsets = reader_csr_.offsets;
    offsets.assign(num_nets_ + 1, 0);
    for (const Gate& gate : gates_) {
      for (int p = 0; p < gate.nin; ++p) {
        ++offsets[gate.in[static_cast<std::size_t>(p)] + 1];
      }
    }
    for (std::size_t n = 1; n <= num_nets_; ++n) offsets[n] += offsets[n - 1];
    reader_csr_.flat.resize(offsets.back());
    std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (GateId g = 0; g < gates_.size(); ++g) {
      const Gate& gate = gates_[g];
      for (int p = 0; p < gate.nin; ++p) {
        const NetId in = gate.in[static_cast<std::size_t>(p)];
        reader_csr_.flat[cursor[in]++] =
            NetReader{g, static_cast<std::uint8_t>(p)};
      }
    }
  }
  return reader_csr_;
}

void Netlist::validate() const {
  for (std::size_t i = 0; i < dffs_.size(); ++i) {
    if (dffs_[i].d == kNullNet) {
      throw std::logic_error(name_ + ": DFF " + std::to_string(i) +
                             " has unbound D input");
    }
  }
  for (const Gate& g : gates_) {
    for (int p = 0; p < g.nin; ++p) {
      if (g.in[static_cast<std::size_t>(p)] >= num_nets_) {
        throw std::logic_error(name_ + ": gate reads nonexistent net");
      }
    }
  }
  // Undriven nets must be PIs or state nets.
  std::vector<char> ok(num_nets_, 0);
  for (const NetId n : pis_) ok[n] = 1;
  for (const Dff& ff : dffs_) ok[ff.q] = 1;
  for (const Gate& g : gates_) ok[g.out] = 1;
  for (const Gate& g : gates_) {
    for (int p = 0; p < g.nin; ++p) {
      if (!ok[g.in[static_cast<std::size_t>(p)]]) {
        throw std::logic_error(name_ + ": gate reads undriven net " +
                               netName(g.in[static_cast<std::size_t>(p)]));
      }
    }
  }
  for (const NetId n : pos_) {
    if (!ok[n]) throw std::logic_error(name_ + ": undriven primary output");
  }
}

void Netlist::adoptPortNets(const Netlist& other, NetId offset) {
  for (const NetId pi : other.pis_) pis_.push_back(pi + offset);
  for (const NetId po : other.pos_) pos_.push_back(po + offset);
  invalidateCaches();
}

NetId Netlist::absorb(const Netlist& other, const std::string& prefix) {
  const NetId offset = static_cast<NetId>(num_nets_);
  num_nets_ += other.num_nets_;
  driver_.resize(num_nets_, kNoDriver);
  const GateId goffset = static_cast<GateId>(gates_.size());
  for (const Gate& g : other.gates_) {
    Gate ng = g;
    ng.out = g.out + offset;
    for (int p = 0; p < g.nin; ++p) ng.in[static_cast<std::size_t>(p)] = g.in[static_cast<std::size_t>(p)] + offset;
    driver_[ng.out] = goffset + static_cast<GateId>(&g - other.gates_.data());
    gates_.push_back(ng);
  }
  for (const Dff& ff : other.dffs_) {
    Dff nf;
    nf.d = ff.d + offset;
    nf.q = ff.q + offset;
    dff_of_q_.emplace(nf.q, static_cast<int>(dffs_.size()));
    dffs_.push_back(nf);
  }
  for (const auto& p : other.ports_) {
    PortBus bus;
    bus.name = prefix + p.name;
    bus.is_input = p.is_input;
    bus.bits.reserve(p.bits.size());
    for (const NetId b : p.bits) bus.bits.push_back(b + offset);
    ports_.push_back(std::move(bus));
  }
  for (const auto& [n, nm] : other.net_names_) {
    net_names_.emplace(n + offset, prefix + nm);
  }
  invalidateCaches();
  return offset;
}

}  // namespace corebist
