// Constraint Generators (paper §3.1, Pattern Generator).
//
// A Constraint Generator is "a custom circuitry able to drive constrained
// inputs": ports that must not receive free pseudo-random values (mode
// selects, one-hot enables, handshake bits) are driven by a small state
// machine instead of the ALFSR. The paper's case study uses one CG managing
// a 4-bit path-select port, holding "selection values that maximize the
// used circuitry" for most of the run while still visiting small-datapath
// selections.
#ifndef COREBIST_BIST_CONSTRAINT_GEN_HPP_
#define COREBIST_BIST_CONSTRAINT_GEN_HPP_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bist/lfsr.hpp"
#include "netlist/builder.hpp"

namespace corebist {

class ConstraintGenerator {
 public:
  virtual ~ConstraintGenerator() = default;
  [[nodiscard]] virtual int width() const = 0;
  /// Value driven on the constrained port at `cycle` (deterministic).
  [[nodiscard]] virtual std::uint64_t valueAt(std::int64_t cycle) const = 0;
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// Holds one constant value for the whole test (degenerate CG; used by the
/// ablation benches as the "no exploration" extreme).
class HoldConstraint final : public ConstraintGenerator {
 public:
  HoldConstraint(int width, std::uint64_t value)
      : width_(width), value_(value) {}
  [[nodiscard]] int width() const override { return width_; }
  [[nodiscard]] std::uint64_t valueAt(std::int64_t) const override {
    return value_;
  }
  [[nodiscard]] std::string describe() const override;

 private:
  int width_;
  std::uint64_t value_;
};

/// Cycles through a weighted schedule of values: each entry is held for
/// `dwell` consecutive patterns, then the next entry follows; the schedule
/// wraps. Dwell weights express "maximize the used circuitry".
class ScheduleConstraint final : public ConstraintGenerator {
 public:
  struct Entry {
    std::uint64_t value = 0;
    int dwell = 1;
  };
  ScheduleConstraint(int width, std::vector<Entry> schedule);

  [[nodiscard]] int width() const override { return width_; }
  [[nodiscard]] std::uint64_t valueAt(std::int64_t cycle) const override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] const std::vector<Entry>& schedule() const noexcept {
    return schedule_;
  }
  [[nodiscard]] int period() const noexcept { return period_; }

 private:
  int width_;
  std::vector<Entry> schedule_;
  std::vector<int> prefix_;  // cumulative dwell
  int period_;
};

/// Structural schedule CG: modulo-period counter plus range-compare value
/// selection; matches ScheduleConstraint::valueAt cycle-exactly when enabled
/// every cycle from reset.
[[nodiscard]] Bus buildScheduleCgHw(Builder& b,
                                    const ScheduleConstraint& schedule,
                                    NetId en, NetId clear);

/// Biased pseudo-random CG: a private ALFSR plus per-bit AND/OR tap
/// networks, so control-style inputs can be pseudo-random but *rare* (e.g.
/// a flush asserted 1/16 of the cycles instead of 1/2). This is the paper's
/// "particular state machine controls the behavior of the circuit" in its
/// simplest hardware form: a handful of gates off a dedicated LFSR.
class BiasedConstraint final : public ConstraintGenerator {
 public:
  enum class BitBias : std::uint8_t {
    kFree,    // one LFSR tap, p(1) = 1/2
    kRare2,   // AND of 2 taps, p(1) = 1/4
    kRare3,   // AND of 3 taps, p(1) = 1/8
    kRare4,   // AND of 4 taps, p(1) = 1/16
    kRare6,   // AND of 6 taps, p(1) = 1/64 (reset-style pulses)
    kOften2,  // OR of 2 taps, p(1) = 3/4
    kZero,    // constant 0
    kOne,     // constant 1
  };

  /// Throws std::invalid_argument unless `bias` has `width` entries and
  /// `lfsr_width` has built-in primitive taps (3..32).
  BiasedConstraint(int width, std::vector<BitBias> bias,
                   int lfsr_width = 24, std::uint64_t seed = 0xB1A5);

  [[nodiscard]] int width() const override { return width_; }
  [[nodiscard]] std::uint64_t valueAt(std::int64_t cycle) const override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] const std::vector<BitBias>& bias() const noexcept {
    return bias_;
  }
  [[nodiscard]] int lfsrWidth() const noexcept { return lfsr_width_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Value for a given LFSR state (shared by software and hardware paths).
  [[nodiscard]] std::uint64_t valueForState(std::uint64_t state) const;

 private:
  int width_;
  std::vector<BitBias> bias_;
  int lfsr_width_;
  std::uint64_t seed_;
  // Sequential walk caches (valueAt is called with monotone cycles). Two
  // independent resume points so two interleaved monotone walks — golden
  // signatures of two cores sharing this CG instance, computed on
  // different scheduler shards — both advance incrementally instead of
  // replaying the LFSR from the seed on every call; the mutex keeps the
  // walks safe to share.
  struct Walk {
    std::uint64_t state = 0;
    std::int64_t cycle = -1;  // -1 = slot unused
  };
  mutable std::mutex cache_mu_;
  mutable std::array<Walk, 2> walks_;
  /// The private ALFSR, built once (taps included) and re-seeded by each
  /// walk, so valueAt allocates nothing. Guarded by cache_mu_.
  mutable Alfsr lfsr_;
};

[[nodiscard]] Bus buildBiasedCgHw(Builder& b, const BiasedConstraint& cg,
                                  NetId en, NetId load);

}  // namespace corebist

#endif  // COREBIST_BIST_CONSTRAINT_GEN_HPP_
