#include "fti/elab/engines.hpp"

#include <map>
#include <mutex>
#include <utility>

#include "fti/elab/batched.hpp"
#include "fti/elab/compiled.hpp"
#include "fti/obs/metrics.hpp"
#include "fti/obs/trace.hpp"
#include "fti/sim/probe.hpp"

namespace fti::elab {

std::vector<std::string> traced_wires(const ir::Datapath& datapath) {
  std::vector<std::string> wires;
  for (const ir::Unit& unit : datapath.units) {
    if (unit.kind == ir::UnitKind::kRegister) {
      wires.push_back(unit.port("q"));
    }
  }
  for (const std::string& control : datapath.control_wires) {
    wires.push_back(control);
  }
  return wires;
}

sim::EngineResult PartitionedEngine::run(const ir::Design& design,
                                         mem::MemoryPool& pool,
                                         const sim::EngineRunOptions& options) {
  ir::validate(design);
  sim::EngineResult result;
  result.completed = true;
  result.has_wire_data = options.collect_wire_data && reports_wire_data();
  std::string node = design.rtg.initial;
  std::size_t index = 0;
  while (!node.empty()) {
    sim::EnginePartition run;
    {
      obs::ScopedSpan span(name() + ":" + node, "engine");
      run = run_partition(design, node, pool, options, index);
    }
    // Partition-granularity aggregation from the kernel's own stats --
    // the per-event loops stay untouched, so the instrumented engines
    // cost the same as the uninstrumented ones.
    if (obs::enabled()) {
      obs::counter("engine.partitions").inc();
      obs::counter("engine.events_popped").add(run.stats.events);
      obs::counter("engine.evaluations").add(run.stats.evaluations);
      obs::counter("engine.delta_cycles").add(run.stats.delta_cycles);
      obs::counter("engine.wheel_rotations").add(run.stats.timesteps);
      obs::counter("engine.cycles").add(run.cycles);
      if (run.wall_seconds > 0.0) {
        obs::gauge("engine.cycles_per_sec")
            .set(static_cast<double>(run.cycles) / run.wall_seconds);
      }
    }
    sim::Kernel::StopReason reason = run.reason;
    result.partitions.push_back(std::move(run));
    if (reason != sim::Kernel::StopReason::kDoneNet) {
      result.completed = false;
      return result;
    }
    node = design.rtg.successor(node);
    ++index;
  }
  return result;
}

// ---------------------------------------------------------------------------
// EventEngine

const std::string& EventEngine::name() const {
  static const std::string kName = "event";
  return kName;
}

sim::EnginePartition EventEngine::run_partition(
    const ir::Design& design, const std::string& node, mem::MemoryPool& pool,
    const sim::EngineRunOptions& options, std::size_t partition_index) {
  const ir::Configuration& config = design.configuration(node);
  RtgRunOptions ropts;
  ropts.elab.clock_period = options.clock_period;
  ropts.max_cycles_per_partition = options.max_cycles_per_partition;
  ropts.max_deltas = options.max_deltas;
  ropts.tracer = options.tracer;

  std::vector<std::pair<std::string, sim::Probe*>> probes;
  std::map<std::string, std::uint64_t> finals;
  std::map<std::string, std::vector<std::uint64_t>> traces;
  ropts.on_elaborated = [&](const std::string& name,
                            ElaboratedConfig& live) {
    if (options.on_netlist) {
      options.on_netlist(name, live.netlist);
    }
    if (options.collect_wire_data) {
      for (const std::string& wire : traced_wires(config.datapath)) {
        sim::Net& net = live.netlist.net(wire);
        sim::Probe& probe = live.netlist.add_component<sim::Probe>(
            "engine_probe." + wire, net);
        probes.emplace_back(wire, &probe);
      }
    }
  };
  if (options.collect_wire_data) {
    // Harvest while the netlist is still alive.
    ropts.on_partition_done = [&](const std::string&, ElaboratedConfig& live,
                                  const PartitionRun&) {
      for (const auto& [wire, probe] : probes) {
        finals.emplace(wire, live.netlist.net(wire).u());
        std::vector<std::uint64_t>& trace = traces[wire];
        for (const sim::Probe::Sample& sample : probe->samples()) {
          trace.push_back(sample.value.u());
        }
      }
    };
  }
  bool attach_tracer =
      options.tracer != nullptr &&
      (options.trace_node.empty() ? partition_index == 0
                                  : options.trace_node == node);
  sim::EnginePartition run =
      run_one_partition(config, node, pool, ropts, attach_tracer);
  run.finals = std::move(finals);
  run.traces = std::move(traces);
  return run;
}

// ---------------------------------------------------------------------------
// Registry

void register_builtin_engines() {
  static std::once_flag once;
  std::call_once(once, [] {
    sim::register_engine("event",
                         [] { return std::make_unique<EventEngine>(); });
    // One sweep executor, three configurations (batched.hpp).
    auto sweep = [](const char* name, Settle settle, bool lockstep_lanes) {
      sim::register_engine(name, [=] {
        return std::make_unique<SweepEngine>(name, settle, lockstep_lanes);
      });
    };
    sweep("naive", Settle::kUntilStable, false);
    sweep("levelized", Settle::kRankedPass, false);
    sweep("batched", Settle::kRankedPass, true);
    sim::register_engine(
        "compiled", [] { return std::make_unique<CompiledEngine>(); });
  });
}

std::unique_ptr<sim::Engine> make_engine(const std::string& name) {
  register_builtin_engines();
  return sim::make_engine(name);
}

std::vector<std::string> engine_names() {
  register_builtin_engines();
  return sim::engine_names();
}

}  // namespace fti::elab
