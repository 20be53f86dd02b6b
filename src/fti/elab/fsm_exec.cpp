#include "fti/elab/fsm_exec.hpp"

#include <map>

namespace fti::elab {

FsmExecutor::FsmExecutor(std::string name, const ir::Configuration& config,
                         sim::Netlist& netlist, sim::Net& clock)
    : Component(std::move(name)), ir_(config.fsm), clock_(clock) {
  std::map<std::string, std::size_t> wire_index;
  auto add = [&](const std::string& wire) {
    if (wire_index.emplace(wire, nets_.size()).second) {
      nets_.push_back(&netlist.net(wire));
    }
  };
  for (const std::string& wire : config.datapath.control_wires) {
    add(wire);
  }
  for (const std::string& wire : config.datapath.status_wires) {
    add(wire);
  }
  fsm_ = compile_fsm(config, wire_index);
  current_ = fsm_.initial;
  visits_.assign(fsm_.states.size(), 0);
  taken_.resize(fsm_.states.size());
  for (std::size_t s = 0; s < fsm_.states.size(); ++s) {
    taken_[s].assign(fsm_.states[s].transitions.size(), 0);
  }
  clock_.add_listener(this, sim::Listen::kRising);
}

const std::string& FsmExecutor::current_state() const {
  return ir_.states[current_].name;
}

void FsmExecutor::drive(sim::Kernel& kernel,
                        const std::vector<CompiledFsm::Drive>& drives) {
  for (const auto& [index, value] : drives) {
    sim::Net& net = *nets_[index];
    kernel.schedule(net, sim::Bits(net.width(), value), 0);
  }
}

void FsmExecutor::initialize(sim::Kernel& kernel) {
  visits_[current_] += 1;
  drive(kernel, fsm_.power_up);
}

FsmCoverage FsmExecutor::coverage() const {
  return coverage_from_counts(ir_, visits_, taken_);
}

void FsmExecutor::evaluate(sim::Kernel& kernel) {
  if (!kernel.rising(clock_)) {
    return;
  }
  ++steps_;
  const CompiledFsm::State& state = fsm_.states[current_];
  for (std::size_t t = 0; t < state.transitions.size(); ++t) {
    const CompiledFsm::Transition& transition = state.transitions[t];
    bool taken = true;
    for (const auto& [status, expected] : transition.literals) {
      if (nets_[status]->value().is_zero() == expected) {
        taken = false;
        break;
      }
    }
    if (taken) {
      ++taken_[current_][t];
      current_ = transition.target;
      visits_[current_] += 1;
      drive(kernel, transition.delta);
      return;
    }
  }
}

}  // namespace fti::elab
