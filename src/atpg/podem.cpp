#include "atpg/podem.hpp"

#include <algorithm>

namespace corebist {

namespace {

/// 3-valued gate evaluation.
Tv tvEval(GateType t, Tv a, Tv b, Tv s) {
  auto is01 = [](Tv v) { return v != Tv::kX; };
  auto band = [&](Tv x, Tv y) {
    if (x == Tv::k0 || y == Tv::k0) return Tv::k0;
    if (x == Tv::k1 && y == Tv::k1) return Tv::k1;
    return Tv::kX;
  };
  auto bor = [&](Tv x, Tv y) {
    if (x == Tv::k1 || y == Tv::k1) return Tv::k1;
    if (x == Tv::k0 && y == Tv::k0) return Tv::k0;
    return Tv::kX;
  };
  auto bnot = [&](Tv x) {
    if (x == Tv::kX) return Tv::kX;
    return x == Tv::k0 ? Tv::k1 : Tv::k0;
  };
  switch (t) {
    case GateType::kConst0:
      return Tv::k0;
    case GateType::kConst1:
      return Tv::k1;
    case GateType::kBuf:
      return a;
    case GateType::kNot:
      return bnot(a);
    case GateType::kAnd:
      return band(a, b);
    case GateType::kNand:
      return bnot(band(a, b));
    case GateType::kOr:
      return bor(a, b);
    case GateType::kNor:
      return bnot(bor(a, b));
    case GateType::kXor:
      return (is01(a) && is01(b)) ? (a == b ? Tv::k0 : Tv::k1) : Tv::kX;
    case GateType::kXnor:
      return (is01(a) && is01(b)) ? (a == b ? Tv::k1 : Tv::k0) : Tv::kX;
    case GateType::kMux2:
      if (s == Tv::k0) return a;
      if (s == Tv::k1) return b;
      // sel unknown: output known only if both data agree.
      return (is01(a) && a == b) ? a : Tv::kX;
  }
  return Tv::kX;
}

/// Controlling value of a gate's inputs, if any.
std::optional<Tv> controllingValue(GateType t) {
  switch (t) {
    case GateType::kAnd:
    case GateType::kNand:
      return Tv::k0;
    case GateType::kOr:
    case GateType::kNor:
      return Tv::k1;
    default:
      return std::nullopt;
  }
}

/// Good and faulty values both binary and different: the fault effect is
/// visible on this net.
bool isDivergent(Tv g, Tv f) { return g != Tv::kX && f != Tv::kX && g != f; }

constexpr std::uint32_t kNotDivergent = 0xFFFF'FFFFu;

/// Does the gate invert (for backtrace parity)?
bool inverts(GateType t) {
  return t == GateType::kNot || t == GateType::kNand || t == GateType::kNor ||
         t == GateType::kXnor;
}

}  // namespace

Podem::Podem(const Netlist& nl, std::span<const NetId> inputs,
             std::span<const NetId> observed, int backtrack_limit)
    : nl_(nl),
      lev_(levelize(nl)),
      inputs_(inputs.begin(), inputs.end()),
      observed_flag_(nl.numNets(), 0),
      input_of_net_(nl.numNets(), -1),
      readers_(nl.readerCsr()),
      backtrack_limit_(backtrack_limit),
      bucket_(static_cast<std::size_t>(lev_.depth) + 1),
      queued_(nl.numGates(), 0),
      lo_level_(lev_.depth + 1) {
  for (const NetId n : observed) observed_flag_[n] = 1;
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    input_of_net_[inputs_[i]] = static_cast<int>(i);
  }
}

void Podem::implyAll() {
  // Load input assignment, then forward-simulate both planes.
  gval_.assign(nl_.numNets(), Tv::kX);
  fval_.assign(nl_.numNets(), Tv::kX);
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    gval_[inputs_[i]] = assignment_[i];
    fval_[inputs_[i]] = assignment_[i];
  }
  // Stem fault on an input/source net.
  if (fault_.isStem()) fval_[fault_.net] = stuck_;
  const auto& gates = nl_.gates();
  for (const GateId g : lev_.order) {
    const NetId out = gates[g].out;
    evalGate(g, gval_[out], fval_[out]);
  }

  trail_.clear();
  divergent_.clear();
  divergent_slot_.assign(nl_.numNets(), kNotDivergent);
  divergent_sorted_ = true;
  observed_divergent_ = 0;
  for (NetId n = 0; n < nl_.numNets(); ++n) {
    if (isDivergent(gval_[n], fval_[n])) markDivergent(n, true);
  }
}

void Podem::evalGate(GateId g, Tv& gv, Tv& fv) const {
  const Gate& gate = nl_.gates()[g];
  const Tv ga = gate.nin > 0 ? gval_[gate.in[0]] : Tv::kX;
  const Tv gb = gate.nin > 1 ? gval_[gate.in[1]] : Tv::kX;
  const Tv gs = gate.nin > 2 ? gval_[gate.in[2]] : Tv::kX;
  gv = tvEval(gate.type, ga, gb, gs);
  Tv fa = gate.nin > 0 ? fval_[gate.in[0]] : Tv::kX;
  Tv fb = gate.nin > 1 ? fval_[gate.in[1]] : Tv::kX;
  Tv fs = gate.nin > 2 ? fval_[gate.in[2]] : Tv::kX;
  if (fault_.gate == g) {  // branch fault: force the pin
    if (fault_.pin == 0) fa = stuck_;
    if (fault_.pin == 1) fb = stuck_;
    if (fault_.pin == 2) fs = stuck_;
  }
  fv = tvEval(gate.type, fa, fb, fs);
  if (fault_.isStem() && gate.out == fault_.net) fv = stuck_;
}

void Podem::markDivergent(NetId n, bool divergent) {
  if (divergent) {
    divergent_slot_[n] = static_cast<std::uint32_t>(divergent_.size());
    if (!divergent_.empty() && divergent_.back() > n) divergent_sorted_ = false;
    divergent_.push_back(n);
  } else {
    // Swap-remove; the moved net takes over the freed slot.
    const std::uint32_t slot = divergent_slot_[n];
    const NetId last = divergent_.back();
    divergent_[slot] = last;
    divergent_slot_[last] = slot;
    divergent_.pop_back();
    divergent_slot_[n] = kNotDivergent;
    if (last != n) divergent_sorted_ = false;
  }
  if (observed_flag_[n] != 0) {
    if (divergent) {
      ++observed_divergent_;
    } else {
      --observed_divergent_;
    }
  }
}

void Podem::writeNet(NetId n, Tv g, Tv f) {
  const bool was = isDivergent(gval_[n], fval_[n]);
  gval_[n] = g;
  fval_[n] = f;
  const bool now = isDivergent(g, f);
  if (was != now) markDivergent(n, now);
}

void Podem::setNet(NetId n, Tv g, Tv f) {
  trail_.push_back(TrailEntry{n, gval_[n], fval_[n]});
  writeNet(n, g, f);
  for (const NetReader& r : readers_.of(n)) {
    if (queued_[r.gate] != 0) continue;
    queued_[r.gate] = 1;
    const int lvl = lev_.level[r.gate];
    bucket_[static_cast<std::size_t>(lvl)].push_back(r.gate);
    lo_level_ = std::min(lo_level_, lvl);
    hi_level_ = std::max(hi_level_, lvl);
  }
}

void Podem::propagate() {
  // Readers sit at strictly higher levels than their drivers, so one
  // ascending pass settles every scheduled gate after all of its inputs.
  const auto& gates = nl_.gates();
  for (int lvl = lo_level_; lvl <= hi_level_; ++lvl) {
    std::vector<GateId>& due = bucket_[static_cast<std::size_t>(lvl)];
    for (const GateId g : due) {
      queued_[g] = 0;
      const NetId out = gates[g].out;
      Tv gv = Tv::kX;
      Tv fv = Tv::kX;
      evalGate(g, gv, fv);
      if (gv != gval_[out] || fv != fval_[out]) setNet(out, gv, fv);
    }
    due.clear();
  }
  lo_level_ = lev_.depth + 1;
  hi_level_ = -1;
}

void Podem::assign(int input_index, Tv v) {
  assignment_[static_cast<std::size_t>(input_index)] = v;
  const NetId n = inputs_[static_cast<std::size_t>(input_index)];
  const Tv f = fault_.isStem() && n == fault_.net ? stuck_ : v;
  if (gval_[n] == v && fval_[n] == f) return;
  setNet(n, v, f);
  propagate();
}

void Podem::undoTo(std::size_t mark) {
  while (trail_.size() > mark) {
    const TrailEntry& e = trail_.back();
    writeNet(e.net, e.g, e.f);
    trail_.pop_back();
  }
}

bool Podem::pickObjective(NetId& net, Tv& val) {
  // 1) Activate the fault.
  const Tv site_g = gval_[fault_.net];
  if (site_g == Tv::kX) {
    net = fault_.net;
    val = stuck_ == Tv::k1 ? Tv::k0 : Tv::k1;
    return true;
  }
  if (site_g == stuck_) return false;  // activation impossible now

  // 2) Advance the D-frontier: find a gate with a divergent input and an
  // unknown output; ask for a non-controlling value on an X input.
  //
  // Unguided, the first frontier candidate in net order wins. With SCOAP
  // installed the whole frontier is scanned and the candidate behind the
  // most observable gate output (min CO) wins, hardest side input (max CC)
  // first — fail fast on the side conditions before investing in the rest.
  if (!divergent_sorted_) {
    std::sort(divergent_.begin(), divergent_.end());
    for (std::size_t i = 0; i < divergent_.size(); ++i) {
      divergent_slot_[divergent_[i]] = static_cast<std::uint32_t>(i);
    }
    divergent_sorted_ = true;
  }
  const auto& gates = nl_.gates();
  bool found = false;
  std::uint32_t best_co = 0;
  std::uint32_t best_cc = 0;
  for (const NetId n : divergent_) {
    for (const NetReader& r : readers_.of(n)) {
      const Gate& gate = gates[r.gate];
      if (isDivergent(gval_[gate.out], fval_[gate.out])) {
        continue;  // already propagated through here
      }
      const auto cv = controllingValue(gate.type);
      // Find an X input to justify.
      for (int p = 0; p < gate.nin; ++p) {
        const NetId in = gate.in[static_cast<std::size_t>(p)];
        if (in == n) continue;
        if (gval_[in] != Tv::kX) continue;
        Tv want = Tv::k1;
        if (cv.has_value()) {
          want = (*cv == Tv::k0) ? Tv::k1 : Tv::k0;  // non-controlling
        } else if (gate.type == GateType::kMux2 && p == 2) {
          // Select the divergent data input.
          want = (gate.in[0] == n) ? Tv::k0 : Tv::k1;
        } else {
          want = Tv::k0;  // XOR-family: any binary value sensitizes
        }
        if (scoap_ == nullptr) {
          net = in;
          val = want;
          return true;
        }
        const std::uint32_t co = scoap_->co[gate.out];
        const std::uint32_t cc = scoap_->cc(in, want == Tv::k1);
        if (!found || co < best_co || (co == best_co && cc > best_cc)) {
          found = true;
          best_co = co;
          best_cc = cc;
          net = in;
          val = want;
        }
      }
    }
  }
  if (!found && !fault_.isStem()) {
    // A branch fault diverges on a pin, not on a net, so its gate is on the
    // frontier without any divergent net showing it. While that gate's
    // output is still unknown this dead end proves nothing.
    const NetId out = gates[fault_.gate].out;
    if (gval_[out] == Tv::kX || fval_[out] == Tv::kX) incomplete_ = true;
  }
  return found;
}

bool Podem::backtrace(NetId obj_net, Tv obj_val, int& input_index,
                      Tv& value) {
  NetId n = obj_net;
  Tv v = obj_val;
  const auto& gates = nl_.gates();
  for (int guard = 0; guard < 100000; ++guard) {
    if (input_of_net_[n] >= 0) {
      if (assignment_[static_cast<std::size_t>(input_of_net_[n])] != Tv::kX) {
        return false;  // objective collides with an assigned input
      }
      input_index = input_of_net_[n];
      value = v;
      return true;
    }
    const GateId d = nl_.driverOf(n);
    if (d == Netlist::kNoDriver) {
      // A net outside the view stays X; another X pin might still have
      // justified the objective, so this dead end proves nothing.
      incomplete_ = true;
      return false;
    }
    const Gate& gate = gates[d];
    if (gate.nin == 0) return false;  // constant
    // Collect the X inputs; unguided takes the first, SCOAP reorders.
    int xpins[3];
    int nx = 0;
    for (int p = 0; p < gate.nin; ++p) {
      if (gval_[gate.in[static_cast<std::size_t>(p)]] == Tv::kX) xpins[nx++] = p;
    }
    if (nx == 0) return false;
    int pick = xpins[0];
    const auto ccOf = [&](int p, Tv val) {
      return scoap_->cc(gate.in[static_cast<std::size_t>(p)], val == Tv::k1);
    };
    if (gate.type == GateType::kMux2) {
      // Steer: value heuristic keeps v for data pins, 0 for select. Guided,
      // take the cheapest pin to justify.
      if (scoap_ != nullptr) {
        for (int i = 1; i < nx; ++i) {
          const Tv cand_v = (xpins[i] == 2) ? Tv::k0 : v;
          const Tv pick_v = (pick == 2) ? Tv::k0 : v;
          if (ccOf(xpins[i], cand_v) < ccOf(pick, pick_v)) pick = xpins[i];
        }
      }
      n = gate.in[static_cast<std::size_t>(pick)];
      v = (pick == 2) ? Tv::k0 : v;
      continue;
    }
    if (gate.type == GateType::kXor || gate.type == GateType::kXnor) {
      // Parity gates: pin and value are both free choices. Guided, take the
      // pin whose cheaper polarity is cheapest, at that polarity.
      Tv free_v = Tv::k0;
      if (scoap_ != nullptr) {
        const auto minCc = [&](int p) {
          return std::min(ccOf(p, Tv::k0), ccOf(p, Tv::k1));
        };
        for (int i = 1; i < nx; ++i) {
          if (minCc(xpins[i]) < minCc(pick)) pick = xpins[i];
        }
        free_v = ccOf(pick, Tv::k0) <= ccOf(pick, Tv::k1) ? Tv::k0 : Tv::k1;
      }
      n = gate.in[static_cast<std::size_t>(pick)];
      v = free_v;
      continue;
    }
    // BUF/NOT/AND/NAND/OR/NOR: every input wants the same value (parity
    // adjusted). Guided: when any single input settles the output (the
    // wanted input value is the controlling value), justify the easiest
    // input; when all inputs are needed, the hardest — fail fast.
    const Tv v_in =
        inverts(gate.type) ? (v == Tv::k0 ? Tv::k1 : Tv::k0) : v;
    if (scoap_ != nullptr && nx > 1) {
      const auto cv = controllingValue(gate.type);
      const bool any_suffices = cv.has_value() && v_in == *cv;
      for (int i = 1; i < nx; ++i) {
        const bool better = any_suffices
                                ? ccOf(xpins[i], v_in) < ccOf(pick, v_in)
                                : ccOf(xpins[i], v_in) > ccOf(pick, v_in);
        if (better) pick = xpins[i];
      }
    }
    n = gate.in[static_cast<std::size_t>(pick)];
    v = v_in;
  }
  return false;
}

std::optional<std::vector<Tv>> Podem::generate(const Fault& f) {
  fault_ = f;
  stuck_ = f.kind == FaultKind::kSa1 ? Tv::k1 : Tv::k0;
  assignment_.assign(inputs_.size(), Tv::kX);
  backtracks_ = 0;
  aborted_ = false;
  incomplete_ = false;
  decisions_.clear();
  implyAll();  // the one full sweep: constants and the all-X state

  for (int guard = 0; guard < 200000; ++guard) {
    if (observed_divergent_ > 0) return assignment_;
    NetId obj_net = kNullNet;
    Tv obj_val = Tv::kX;
    int input_index = -1;
    Tv input_val = Tv::kX;
    const bool have_obj = pickObjective(obj_net, obj_val) &&
                          backtrace(obj_net, obj_val, input_index, input_val);
    if (have_obj) {
      decisions_.push_back(Decision{input_index, false, trail_.size()});
      assign(input_index, input_val);
      continue;
    }
    // Dead end: drop the exhausted decisions, then flip the newest one
    // that has a value left to try.
    while (!decisions_.empty() && decisions_.back().tried_both) {
      assignment_[static_cast<std::size_t>(decisions_.back().input_index)] =
          Tv::kX;
      decisions_.pop_back();
    }
    if (decisions_.empty()) {
      aborted_ = incomplete_;  // otherwise untestable: the search was complete
      return std::nullopt;
    }
    Decision& d = decisions_.back();
    d.tried_both = true;
    ++backtracks_;
    if (backtracks_ > static_cast<std::size_t>(backtrack_limit_)) {
      aborted_ = true;
      return std::nullopt;
    }
    const Tv old = assignment_[static_cast<std::size_t>(d.input_index)];
    undoTo(d.mark);
    assign(d.input_index, old == Tv::k0 ? Tv::k1 : Tv::k0);
  }
  aborted_ = true;  // iteration guard: search space not exhausted
  return std::nullopt;
}

}  // namespace corebist
