// The one compiled form of a configuration's FSM, shared by every
// interpreter: the event engine's FsmExecutor, levelized and batched.
//
// Kept apart from levelized.hpp so that fsm_exec.hpp can use it without
// pulling in the engine headers (which include the elaborator, which
// includes fsm_exec.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fti/ir/rtg.hpp"
#include "fti/sim/coverage.hpp"

namespace fti::elab {

/// A configuration's FSM with every wire resolved to an interpreter's
/// dense index.  Controls are Moore outputs, and ir::validate rejects any
/// unit that drives a control wire, so only the FSM ever writes one.
/// Driving `power_up` once and then committing each taken transition's
/// `delta` therefore keeps every control wire equal to the current
/// state's vector, with exactly the change-detected commits (events,
/// trace entries) that re-driving the full vector every cycle would make.
struct CompiledFsm {
  /// One control write: (wire index, value).
  using Drive = std::pair<std::size_t, std::uint64_t>;
  struct Transition {
    /// (status wire index, expected level); the transition is taken when
    /// every literal holds.
    std::vector<std::pair<std::size_t, bool>> literals;
    std::size_t target;
    /// The controls whose value in `target` differs from the source's.
    std::vector<Drive> delta;
  };
  struct State {
    std::vector<Transition> transitions;
  };
  std::vector<State> states;
  std::size_t initial = 0;
  /// The initial state's full control vector in datapath.control_wires
  /// order (unassigned wires are zero).
  std::vector<Drive> power_up;
};

/// Compiles `config.fsm` against `wire_index` (wire name -> the
/// interpreter's index for it).  `config` must have passed ir::validate.
CompiledFsm compile_fsm(const ir::Configuration& config,
                        const std::map<std::string, std::size_t>& wire_index);

/// Builds an FSM coverage report from visit and per-transition take
/// counters (`visits[i]` / `taken[i][t]` follow FSM declaration order).
sim::FsmCoverage coverage_from_counts(
    const ir::Fsm& fsm, const std::vector<std::uint64_t>& visits,
    const std::vector<std::vector<std::uint64_t>>& taken);

}  // namespace fti::elab
