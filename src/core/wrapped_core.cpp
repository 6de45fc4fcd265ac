#include "core/wrapped_core.hpp"

#include <stdexcept>

namespace corebist {

WrappedCore::WrappedCore(std::string name, BistEngineConfig cfg)
    : name_(std::move(name)), engine_(std::move(cfg)) {}

int WrappedCore::addModule(const Netlist& reference,
                           std::vector<ConstrainedPort> constraints) {
  if (wrapper_ != nullptr) {
    throw std::logic_error("addModule after finalize");
  }
  const int m = engine_.attachModule(reference, std::move(constraints));
  physical_.push_back(reference);  // pin-compatible manufactured instance
  programs_.emplace_back();
  return m;
}

void WrappedCore::injectDefect(int module, GateId gate, GateType new_type) {
  Netlist& nl = physical_.at(static_cast<std::size_t>(module));
  nl.mutateGateType(gate, new_type);
  programs_[static_cast<std::size_t>(module)] = engine_.compile(module, nl);
  run_complete_ = false;
  signatures_.clear();
}

void WrappedCore::healModule(int module) {
  physical_.at(static_cast<std::size_t>(module)) = engine_.module(module);
  programs_[static_cast<std::size_t>(module)] =
      engine_.referenceProgram(module);
  run_complete_ = false;
  signatures_.clear();
}

void WrappedCore::finalize() {
  if (wrapper_ != nullptr) return;
  int wbr_bits = 0;
  for (int m = 0; m < engine_.moduleCount(); ++m) {
    wbr_bits += engine_.module(m).portWidth(true) +
                engine_.module(m).portWidth(false);
  }
  P1500Wrapper::Hooks hooks;
  hooks.command = [this](BistCommand cmd, std::uint16_t data) {
    onCommand(cmd, data);
  };
  hooks.read_data = [this] { return readData(); };
  wrapper_ = std::make_unique<P1500Wrapper>(wbr_bits, std::move(hooks));
}

int WrappedCore::addChild(WrappedCore* child) {
  if (child == nullptr) {
    throw std::invalid_argument("WrappedCore: null child core");
  }
  if (wrapper_ == nullptr || child->wrapper_ == nullptr) {
    throw std::logic_error(
        "WrappedCore: both cores must be finalized before addChild");
  }
  const int slot = wrapper_->attachChild(&child->wrapper());
  children_.push_back(child);
  return slot;
}

void WrappedCore::onCommand(BistCommand cmd, std::uint16_t data) {
  cu_.command(cmd, data);
  if (cmd == BistCommand::kReset || cmd == BistCommand::kStart) {
    run_complete_ = false;
    signatures_.clear();
  }
}

void WrappedCore::systemClockTick() {
  const bool was_running = cu_.testEnable();
  cu_.tick();
  if (was_running && cu_.endTest() && !run_complete_) completeRun();
  for (WrappedCore* c : children_) c->systemClockTick();
}

void WrappedCore::completeRun() {
  // The at-speed BIST run finished: collect the MISR signatures of every
  // physical module (paper: patterns applied one per clock, results read
  // at the end of the execution).
  signatures_.clear();
  const int patterns = static_cast<int>(cu_.patternLimit());
  for (int m = 0; m < engine_.moduleCount(); ++m) {
    signatures_.push_back(static_cast<std::uint16_t>(
        engine_.runAndSign(m, *physicalProgram(m), patterns)));
  }
  run_complete_ = true;
}

std::shared_ptr<const SignatureProgram> WrappedCore::physicalProgram(int m) {
  auto& p = programs_.at(static_cast<std::size_t>(m));
  if (p == nullptr) p = engine_.referenceProgram(m);
  return p;
}

std::uint16_t WrappedCore::goldenSignature(int m, int patterns) const {
  return static_cast<std::uint16_t>(engine_.goldenSignature(m, patterns));
}

std::uint32_t WrappedCore::readData() const {
  const unsigned sel = cu_.resultSelect();
  if (run_complete_ && sel < signatures_.size()) {
    return signatures_[sel];
  }
  return cu_.statusWord() & 0xFFFFu;
}

}  // namespace corebist
