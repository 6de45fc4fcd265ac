#include "bist/signature_program.hpp"

#include <algorithm>
#include <stdexcept>

namespace corebist {

SignatureProgram::SignatureProgram(const Netlist& nl, const MisrSpec& misr)
    : misr_width_(misr.width), misr_poly_(misr.poly) {
  if (nl.primaryInputs().size() > 64) {
    throw std::invalid_argument("SignatureProgram: more than 64 inputs");
  }
  if (misr.width < 1 || misr.width > 64) {
    throw std::invalid_argument("SignatureProgram: MISR width outside [1, 64]");
  }
  compiled_ = nl.compiled();
  const std::size_t taps =
      std::min(misr.feeds.size(), static_cast<std::size_t>(misr.width));
  for (std::size_t j = 0; j < taps; ++j) {
    for (const NetId n : misr.feeds[j]) {
      feed_slots_.push_back(compiled_->slot_of[n]);
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

  const CompiledNetlist& net = *compiled_;
  std::vector<std::uint8_t> val(net.slots(), 0);
  std::vector<std::uint8_t> scratch(net.d_slots.size(), 0);
  std::uint64_t state = 0;

  for (int c = 0; c < cycles; ++c) {
    net.evaluate(stimulus[static_cast<std::size_t>(c)], val.data());
    std::uint64_t feed = 0;
    for (std::size_t i = 0; i < feed_slots_.size(); ++i) {
      feed ^= std::uint64_t{val[feed_slots_[i]]} << feed_taps_[i];
    }
    const std::uint64_t msb = (state >> msb_shift) & 1u;
    state = ((state << 1) ^ (poly & (0 - msb)) ^ feed) & keep;
    if (states != nullptr) states[c] = state;
    net.capture(val.data(), scratch.data());
  }
  return state;
}

}  // namespace corebist
