// The compiled, immutable layout of a netlist that every simulation engine
// runs on: BIST signing, the sequential and combinational fault simulators,
// PODEM and the logic simulator.
//
// Compilation levelizes once (levelize.hpp's run-extending order) and
// renumbers nets into slots: primary inputs, flip-flop outputs, the other
// undriven nets, then gate outputs in evaluation order, so the gate at
// position p writes slot `sources + p`. Gates are stored as
// structure-of-arrays and grouped into maximal runs of one type, which the
// good-machine kernel evaluates without per-gate dispatch. A run may read
// its own earlier outputs (a chain of inverters is one run).
//
// It holds no reference back to its Netlist: Netlist::compiled() builds it
// lazily, and copies of the netlist share it until one of them is edited.
#ifndef COREBIST_NETLIST_COMPILED_HPP_
#define COREBIST_NETLIST_COMPILED_HPP_

#include <cstdint>
#include <vector>

#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"

namespace corebist {

struct CompiledNetlist {
  /// Gate positions [begin, end) all of one type.
  struct Run {
    GateType type = GateType::kConst0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  /// Compiles `nl`. Throws std::logic_error on a combinational loop, a net
  /// driven by two gates, or a flip-flop with an unbound D input.
  explicit CompiledNetlist(const Netlist& nl);

  /// The one levelization; position p evaluates gate lev.order[p].
  Levelization lev;
  std::uint32_t sources = 0;           // slots [0, sources) are undriven
  std::vector<std::uint32_t> slot_of;  // net -> slot
  std::vector<GateType> type;          // per position
  std::vector<std::uint32_t> in_a;     // per position: pin slots; unused
  std::vector<std::uint32_t> in_b;     // pins read slot 0 (ignored)
  std::vector<std::uint32_t> in_s;
  std::vector<Run> runs;               // maximal, covering every position
  /// Reader positions of each slot (CSR): a gate reading a net on two pins
  /// is listed once, in ascending gate-id order.
  std::vector<std::uint32_t> fanout_off;
  std::vector<std::uint32_t> fanout_pos;
  std::vector<std::uint32_t> pi_slots;  // primary input j -> slot
  std::vector<std::uint32_t> d_slots;   // flip-flop i: D slot
  std::vector<std::uint32_t> q_slots;   // flip-flop i: Q slot

  [[nodiscard]] std::size_t slots() const noexcept { return slot_of.size(); }
  [[nodiscard]] std::size_t gateCount() const noexcept { return type.size(); }

  /// The good-machine kernel over one byte (0 or 1) per slot: drives
  /// primary input j from bit j of `inputs` (at most 64 inputs), then
  /// evaluates every run in order. `val` holds at least slots() bytes.
  void evaluate(std::uint64_t inputs, std::uint8_t* val) const noexcept;
  /// The clock edge over the same values: every flip-flop Q takes its D.
  /// `scratch` holds at least d_slots.size() bytes.
  void capture(std::uint8_t* val, std::uint8_t* scratch) const noexcept;
};

}  // namespace corebist

#endif  // COREBIST_NETLIST_COMPILED_HPP_
