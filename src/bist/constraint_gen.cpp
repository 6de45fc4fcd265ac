#include "bist/constraint_gen.hpp"

#include <bit>
#include <sstream>
#include <stdexcept>

#include "bist/lfsr.hpp"

namespace corebist {

namespace {
/// Number of ALFSR taps combined for a bias mode.
int biasTapCount(BiasedConstraint::BitBias b) {
  switch (b) {
    case BiasedConstraint::BitBias::kFree:
      return 1;
    case BiasedConstraint::BitBias::kRare2:
    case BiasedConstraint::BitBias::kOften2:
      return 2;
    case BiasedConstraint::BitBias::kRare3:
      return 3;
    case BiasedConstraint::BitBias::kRare4:
      return 4;
    case BiasedConstraint::BitBias::kRare6:
      return 6;
    default:
      return 0;
  }
}
}  // namespace

BiasedConstraint::BiasedConstraint(int width, std::vector<BitBias> bias,
                                   int lfsr_width, std::uint64_t seed)
    : width_(width),
      bias_(std::move(bias)),
      lfsr_width_(lfsr_width),
      seed_(seed),
      lfsr_(lfsr_width, seed) {
  if (static_cast<int>(bias_.size()) != width) {
    throw std::invalid_argument("BiasedConstraint: bias per bit required");
  }
}

std::uint64_t BiasedConstraint::valueForState(std::uint64_t state) const {
  std::uint64_t out = 0;
  int tap = 0;
  for (int j = 0; j < width_; ++j) {
    const BitBias b = bias_[static_cast<std::size_t>(j)];
    const int n = biasTapCount(b);
    bool v = false;
    if (b == BitBias::kOne) {
      v = true;
    } else if (b == BitBias::kZero) {
      v = false;
    } else if (b == BitBias::kOften2) {
      v = false;
      for (int k = 0; k < n; ++k) {
        v = v || (((state >> ((tap + k) % lfsr_width_)) & 1u) != 0);
      }
    } else {
      v = true;
      for (int k = 0; k < n; ++k) {
        v = v && (((state >> ((tap + k) % lfsr_width_)) & 1u) != 0);
      }
    }
    tap += n;
    if (v) out |= std::uint64_t{1} << j;
  }
  return out;
}

std::uint64_t BiasedConstraint::valueAt(std::int64_t cycle) const {
  const std::lock_guard<std::mutex> lock(cache_mu_);
  // Resume from the closest cached walk at or before `cycle`.
  Walk* slot = nullptr;
  for (Walk& w : walks_) {
    if (w.cycle >= 0 && w.cycle <= cycle &&
        (slot == nullptr || w.cycle > slot->cycle)) {
      slot = &w;
    }
  }
  if (slot == nullptr) {
    // No usable resume point: restart from the seed in the stalest slot
    // (unused slots have cycle -1 and are evicted first).
    slot = &walks_[0];
    for (Walk& w : walks_) {
      if (w.cycle < slot->cycle) slot = &w;
    }
    lfsr_.seed(seed_);
    slot->state = lfsr_.state();
    slot->cycle = 0;
  }
  if (slot->cycle < cycle) {
    lfsr_.seed(slot->state);
    while (slot->cycle < cycle) {
      slot->state = lfsr_.step();
      ++slot->cycle;
    }
  }
  return valueForState(slot->state);
}

std::string BiasedConstraint::describe() const {
  std::ostringstream os;
  os << "biased(w" << width_ << ", lfsr" << lfsr_width_ << ")";
  return os.str();
}

Bus buildBiasedCgHw(Builder& b, const BiasedConstraint& cg, NetId en,
                    NetId load) {
  const AlfsrHw lfsr = buildAlfsrHw(b, cg.lfsrWidth(),
                                    primitiveTaps(cg.lfsrWidth()), cg.seed(),
                                    en, load);
  Bus out;
  int tap = 0;
  for (int j = 0; j < cg.width(); ++j) {
    const auto bias = cg.bias()[static_cast<std::size_t>(j)];
    const int n = biasTapCount(bias);
    NetId v = kNullNet;
    if (bias == BiasedConstraint::BitBias::kOne) {
      v = b.hi();
    } else if (bias == BiasedConstraint::BitBias::kZero) {
      v = b.lo();
    } else {
      v = lfsr.state[static_cast<std::size_t>(tap % cg.lfsrWidth())];
      for (int k = 1; k < n; ++k) {
        const NetId t =
            lfsr.state[static_cast<std::size_t>((tap + k) % cg.lfsrWidth())];
        v = bias == BiasedConstraint::BitBias::kOften2 ? b.or2(v, t)
                                                       : b.and2(v, t);
      }
    }
    tap += n;
    out.push_back(v);
  }
  return out;
}

std::string HoldConstraint::describe() const {
  std::ostringstream os;
  os << "hold(" << width_ << "'d" << value_ << ")";
  return os.str();
}

ScheduleConstraint::ScheduleConstraint(int width, std::vector<Entry> schedule)
    : width_(width), schedule_(std::move(schedule)) {
  if (schedule_.empty()) {
    throw std::invalid_argument("ScheduleConstraint: empty schedule");
  }
  int total = 0;
  for (const Entry& e : schedule_) {
    if (e.dwell <= 0) {
      throw std::invalid_argument("ScheduleConstraint: dwell must be > 0");
    }
    total += e.dwell;
    prefix_.push_back(total);
  }
  period_ = total;
}

std::uint64_t ScheduleConstraint::valueAt(std::int64_t cycle) const {
  const int r = static_cast<int>(cycle % period_);
  for (std::size_t i = 0; i < prefix_.size(); ++i) {
    if (r < prefix_[i]) return schedule_[i].value;
  }
  return schedule_.back().value;  // unreachable
}

std::string ScheduleConstraint::describe() const {
  std::ostringstream os;
  os << "schedule(w" << width_ << ",";
  for (const Entry& e : schedule_) os << " " << e.value << "x" << e.dwell;
  os << ")";
  return os.str();
}

Bus buildScheduleCgHw(Builder& b, const ScheduleConstraint& cg, NetId en,
                      NetId clear) {
  const int period = cg.period();
  int cw = 1;
  while ((1 << cw) < period) ++cw;
  // Counter counts 0..period-1 and wraps.
  const Bus cnt = b.state("cg_cnt", cw);
  const NetId at_top = b.eqConst(cnt, static_cast<std::uint64_t>(period - 1));
  const NetId wrap = b.or2(at_top, clear);
  b.connectEnClr(cnt, b.inc(cnt), en, wrap);
  // Select the dwell window by cascaded range compares: value_i is chosen
  // when cnt < prefix_i and no earlier window matched.
  Bus value = b.constant(cg.width(), cg.schedule().back().value);
  int prefix = 0;
  // Build from last window backwards so the first match wins.
  std::vector<int> prefixes;
  for (const auto& e : cg.schedule()) {
    prefix += e.dwell;
    prefixes.push_back(prefix);
  }
  for (int i = static_cast<int>(cg.schedule().size()) - 1; i >= 0; --i) {
    const NetId in_window =
        b.ltU(cnt, b.constant(cw, static_cast<std::uint64_t>(
                                      prefixes[static_cast<std::size_t>(i)])));
    value = b.mux(value,
                  b.constant(cg.width(), cg.schedule()[static_cast<std::size_t>(i)].value),
                  in_window);
  }
  return value;
}

}  // namespace corebist
