// PODEM combinational ATPG (full-scan baseline of Table 3).
//
// Classic PODEM: objectives are solved by backtracing to an unassigned
// primary input of the combinational view, and a bounded backtrack stack
// explores input assignments. Faults that exhaust the backtrack budget are
// counted as aborted — exactly how the commercial tool the paper used
// reports its sub-100% full-scan coverage.
//
// Implication is event-driven over two three-valued planes (good machine /
// faulty machine). generate() sweeps the netlist once on entry (constants
// and the all-X state); after that a decision re-evaluates only the gates
// whose inputs changed, in level order, and records every net it changes
// on an undo trail. A backtrack rewinds the trail to the flipped decision's
// mark instead of re-simulating. The D-frontier is maintained from the set
// of divergent nets (good and faulty values both binary and different),
// updated wherever a value changes or is undone, and detection is a count
// of divergent observed nets. The search — objectives, decisions, returned
// vectors, backtrack counts — is identical to a full re-simulation after
// every step (tests/podem_sweep_reference.hpp is that reference).
#ifndef COREBIST_ATPG_PODEM_HPP_
#define COREBIST_ATPG_PODEM_HPP_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "analyze/scoap.hpp"
#include "fault/fault.hpp"
#include "netlist/compiled.hpp"
#include "netlist/netlist.hpp"

namespace corebist {

/// Three-valued logic constant.
enum class Tv : std::uint8_t { k0 = 0, k1 = 1, kX = 2 };

class Podem {
 public:
  /// `inputs` are the undriven nets the search assigns (primary and
  /// pseudo-primary inputs of the view); `observed` are the nets where a
  /// fault effect counts as detected.
  Podem(const Netlist& nl, std::span<const NetId> inputs,
        std::span<const NetId> observed, int backtrack_limit = 24);

  /// Try to generate a test for `f` (stuck-at only). Returns one value per
  /// input (Tv::kX = don't care) or nullopt on abort/untestable.
  [[nodiscard]] std::optional<std::vector<Tv>> generate(const Fault& f);

  [[nodiscard]] std::size_t backtracksUsed() const noexcept {
    return backtracks_;
  }

  /// True when the last generate() returned nullopt without a proof: a
  /// search budget (backtrack limit or iteration guard) ran out, or the
  /// search dead-ended somewhere its objectives cannot see (an undriven
  /// net outside the view, or a branch fault whose gate output is still
  /// unknown). False after a nullopt means the complete search space was
  /// exhausted: the fault is untestable, and so is every fault with the
  /// same faulty function (the distinction equivalence-collapsed targeting
  /// relies on).
  [[nodiscard]] bool lastAborted() const noexcept { return aborted_; }

  /// Install SCOAP scores as the objective-ordering heuristic: the
  /// D-frontier advances through the most observable gate (min CO) and
  /// backtrace picks the easiest input when any suffices / the hardest when
  /// all are needed. Purely an ordering hint — with `scores == nullptr`
  /// (the default) the search is bit-identical to the unguided baseline,
  /// and either way the set of testable faults is unchanged; only the
  /// decision order (and therefore the backtrack count) moves. The caller
  /// keeps `scores` alive for the Podem's lifetime; scores must be computed
  /// with the same observed set.
  void setScoap(const ScoapScores* scores) noexcept { scoap_ = scores; }

 private:
  struct Decision {
    int input_index;
    bool tried_both;
    std::size_t mark;  // trail size before this decision's assignment
  };
  struct TrailEntry {
    NetId net;
    Tv g;
    Tv f;
  };

  /// Full sweep of both planes from the current assignment; rebuilds the
  /// divergent set and clears the trail. Runs once per generate().
  void implyAll();
  /// Both planes of gate `g`'s output from its current inputs, with the
  /// fault injected.
  void evalGate(GateId g, Tv& gv, Tv& fv) const;
  /// Assign input `input_index` and propagate the change event-driven.
  void assign(int input_index, Tv v);
  /// Change net `n` to (g, f): trail it, update the divergent set, and
  /// schedule its readers.
  void setNet(NetId n, Tv g, Tv f);
  /// Store (g, f) on net `n` and update the divergent set; no trail, no
  /// events.
  void writeNet(NetId n, Tv g, Tv f);
  /// Evaluate the scheduled gates in level order until nothing changes.
  void propagate();
  /// Restore every net changed since trail size `mark`.
  void undoTo(std::size_t mark);
  /// Add `n` to (or remove it from) the divergent set and keep the count
  /// of divergent observed nets.
  void markDivergent(NetId n, bool divergent);
  /// Find (input, value) for the current objective; false if none exists.
  [[nodiscard]] bool backtrace(NetId obj_net, Tv obj_val, int& input_index,
                               Tv& value);
  [[nodiscard]] bool pickObjective(NetId& net, Tv& val);

  const Netlist& nl_;
  std::shared_ptr<const CompiledNetlist> compiled_;
  std::vector<NetId> inputs_;
  std::vector<char> observed_flag_;
  std::vector<int> input_of_net_;  // net -> input index or -1
  const ReaderCsr& readers_;
  int backtrack_limit_;
  std::size_t backtracks_ = 0;
  bool aborted_ = false;
  bool incomplete_ = false;  // a dead end that proves nothing was reached
  const ScoapScores* scoap_ = nullptr;  // optional ordering heuristic

  // Current fault.
  Fault fault_{};
  Tv stuck_ = Tv::k0;
  // Per-net 3-valued planes.
  std::vector<Tv> gval_;
  std::vector<Tv> fval_;
  std::vector<Tv> assignment_;  // per input
  std::vector<Decision> decisions_;

  // Undo trail: old values of every changed net, oldest first.
  std::vector<TrailEntry> trail_;
  // Event queue: scheduled gates bucketed by level, lowest level first.
  std::vector<std::vector<GateId>> bucket_;
  std::vector<char> queued_;  // per gate
  int lo_level_ = 0;
  int hi_level_ = -1;
  // Divergent nets (unordered) and each one's slot; sorted on demand.
  std::vector<NetId> divergent_;
  std::vector<std::uint32_t> divergent_slot_;  // per net; kNotDivergent if out
  bool divergent_sorted_ = true;
  std::size_t observed_divergent_ = 0;
};

}  // namespace corebist

#endif  // COREBIST_ATPG_PODEM_HPP_
