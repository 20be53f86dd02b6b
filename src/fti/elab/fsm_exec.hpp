// Behavioural FSM executor -- the runtime object the paper's flow produces
// by translating fsm.xml to Java ("to java" -> fsm.class).  Here the XML is
// translated to a table-driven component instead of generated source: same
// role, no compilation round-trip.
//
// Moore semantics: on each rising clock edge the guards of the current
// state's transitions are evaluated (in order, first match wins) against
// the settled pre-edge status values; the control vector of the new state
// is then driven in the following delta.  When no guard matches, the
// machine stays put.  The tables are the shared CompiledFsm, so power-up
// drives the full initial vector and each taken transition schedules only
// the controls it changes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fti/elab/compiled_fsm.hpp"
#include "fti/ir/rtg.hpp"
#include "fti/sim/component.hpp"
#include "fti/sim/coverage.hpp"
#include "fti/sim/kernel.hpp"
#include "fti/sim/netlist.hpp"

namespace fti::elab {

/// Coverage now lives in sim (every engine reports it through the common
/// Engine interface); the alias keeps existing elab::FsmCoverage users
/// compiling.
using FsmCoverage = sim::FsmCoverage;

class FsmExecutor : public sim::Component {
 public:
  /// Compiles `config.fsm` against the control and status nets of
  /// `netlist`.  `config` must have passed ir::validate and must outlive
  /// the executor (coverage() reads its state names and guards).
  FsmExecutor(std::string name, const ir::Configuration& config,
              sim::Netlist& netlist, sim::Net& clock);

  void initialize(sim::Kernel& kernel) override;
  void evaluate(sim::Kernel& kernel) override;

  /// Name of the state the machine currently sits in.
  const std::string& current_state() const;

  /// Rising edges consumed (== control steps executed).
  std::uint64_t steps() const { return steps_; }

  /// Visit counts per state, in FSM state order -- the per-state coverage
  /// a hardware implementation cannot report without extra probes.
  const std::vector<std::uint64_t>& state_visits() const { return visits_; }

  /// Full state/transition coverage of the run so far.
  FsmCoverage coverage() const;

 private:
  void drive(sim::Kernel& kernel,
             const std::vector<CompiledFsm::Drive>& drives);

  const ir::Fsm& ir_;
  sim::Net& clock_;
  /// The control and status nets, indexed as `fsm_` refers to them.
  std::vector<sim::Net*> nets_;
  CompiledFsm fsm_;
  std::size_t current_ = 0;
  std::uint64_t steps_ = 0;
  std::vector<std::uint64_t> visits_;
  std::vector<std::vector<std::uint64_t>> taken_;
};

}  // namespace fti::elab
