#include "fti/elab/compiled_fsm.hpp"

namespace fti::elab {

CompiledFsm compile_fsm(const ir::Configuration& config,
                        const std::map<std::string, std::size_t>& wire_index) {
  const std::vector<std::string>& control_wires =
      config.datapath.control_wires;
  // A wire listed twice among the controls takes the same value at both
  // positions.
  std::map<std::string, std::vector<std::size_t>> positions;
  for (std::size_t c = 0; c < control_wires.size(); ++c) {
    positions[control_wires[c]].push_back(c);
  }
  // Each state's full control vector; unassigned wires are zero.
  std::vector<std::vector<std::uint64_t>> vectors;
  for (const ir::State& state : config.fsm.states) {
    std::vector<std::uint64_t> vector(control_wires.size(), 0);
    for (const ir::ControlAssign& assign : state.controls) {
      for (std::size_t c : positions.at(assign.wire)) {
        vector[c] = assign.value;
      }
    }
    vectors.push_back(std::move(vector));
  }

  CompiledFsm fsm;
  for (std::size_t s = 0; s < config.fsm.states.size(); ++s) {
    CompiledFsm::State compiled;
    for (const ir::Transition& transition :
         config.fsm.states[s].transitions) {
      CompiledFsm::Transition ct;
      for (const ir::GuardLiteral& literal : transition.guard.literals) {
        ct.literals.emplace_back(wire_index.at(literal.status),
                                 literal.expected);
      }
      ct.target = config.fsm.state_index(transition.target);
      for (std::size_t c = 0; c < control_wires.size(); ++c) {
        if (vectors[ct.target][c] != vectors[s][c]) {
          ct.delta.emplace_back(wire_index.at(control_wires[c]),
                                vectors[ct.target][c]);
        }
      }
      compiled.transitions.push_back(std::move(ct));
    }
    fsm.states.push_back(std::move(compiled));
  }
  fsm.initial = config.fsm.state_index(config.fsm.initial);
  for (std::size_t c = 0; c < control_wires.size(); ++c) {
    fsm.power_up.emplace_back(wire_index.at(control_wires[c]),
                              vectors[fsm.initial][c]);
  }
  return fsm;
}

sim::FsmCoverage coverage_from_counts(
    const ir::Fsm& fsm, const std::vector<std::uint64_t>& visits,
    const std::vector<std::vector<std::uint64_t>>& taken) {
  sim::FsmCoverage report;
  report.fsm = fsm.name.empty() ? "fsm" : fsm.name;
  for (std::size_t i = 0; i < fsm.states.size(); ++i) {
    report.states.push_back({fsm.states[i].name, visits[i]});
    for (std::size_t t = 0; t < fsm.states[i].transitions.size(); ++t) {
      const ir::Transition& transition = fsm.states[i].transitions[t];
      report.transitions.push_back({fsm.states[i].name, transition.target,
                                    ir::to_string(transition.guard),
                                    taken[i][t]});
    }
  }
  return report;
}

}  // namespace fti::elab
