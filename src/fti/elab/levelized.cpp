#include "fti/elab/levelized.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <utility>

#include "fti/elab/compiled_fsm.hpp"
#include "fti/ir/comb_graph.hpp"
#include "fti/obs/metrics.hpp"
#include "fti/ops/alu.hpp"
#include "fti/util/error.hpp"
#include "fti/util/file_io.hpp"

namespace fti::elab {
namespace {

using sim::Bits;

// The combinational classification and per-unit dependency lists live in
// ir/comb_graph.hpp, shared with the lint analyzer so both agree on what
// a combinational cycle is.

const std::string& comb_output(const ir::Unit& unit) {
  return unit.kind == ir::UnitKind::kMemPort ? unit.port("dout")
                                             : unit.port("out");
}

}  // namespace

LevelizedSchedule build_levelized_schedule(const ir::Datapath& datapath) {
  std::vector<const ir::Unit*> comb;
  for (const ir::Unit& unit : datapath.units) {
    if (ir::is_combinational(unit)) {
      comb.push_back(&unit);
    }
  }
  std::map<std::string, std::size_t> producer;
  for (std::size_t i = 0; i < comb.size(); ++i) {
    producer.emplace(comb_output(*comb[i]), i);
  }
  std::vector<std::vector<std::size_t>> successors(comb.size());
  std::vector<std::size_t> indegree(comb.size(), 0);
  for (std::size_t i = 0; i < comb.size(); ++i) {
    for (const std::string& wire : ir::comb_input_wires(*comb[i])) {
      auto it = producer.find(wire);
      if (it == producer.end()) {
        continue;  // sequential output, control wire or primary input
      }
      successors[it->second].push_back(i);
      ++indegree[i];
    }
  }
  // Level-synchronous Kahn: rank r holds every unit whose inputs are all
  // satisfied by ranks < r; declaration order within a rank keeps the
  // schedule deterministic.
  LevelizedSchedule schedule;
  std::vector<std::size_t> level;
  for (std::size_t i = 0; i < comb.size(); ++i) {
    if (indegree[i] == 0) {
      level.push_back(i);
    }
  }
  std::size_t scheduled = 0;
  while (!level.empty()) {
    std::vector<std::size_t> next;
    for (std::size_t i : level) {
      schedule.steps.push_back({comb[i], schedule.depth});
      ++scheduled;
      for (std::size_t successor : successors[i]) {
        if (--indegree[successor] == 0) {
          next.push_back(successor);
        }
      }
    }
    std::sort(next.begin(), next.end());
    level = std::move(next);
    ++schedule.depth;
  }
  if (scheduled != comb.size()) {
    std::string message = "levelized: combinational cycle in datapath '" +
                          datapath.name + "':";
    for (const ir::CombCycle& cycle :
         ir::find_combinational_cycles(datapath)) {
      message += " [" + cycle.to_string() + "]";
    }
    throw util::SimError(message);
  }
  return schedule;
}

namespace {

std::atomic<ScheduleProvider> g_schedule_provider{nullptr};

}  // namespace

void set_schedule_provider(ScheduleProvider provider) {
  g_schedule_provider.store(provider, std::memory_order_release);
}

SharedSchedule acquire_levelized_schedule(const ir::Design& design,
                                          const std::string& node) {
  if (ScheduleProvider provider =
          g_schedule_provider.load(std::memory_order_acquire)) {
    if (SharedSchedule schedule = provider(design, node)) {
      return schedule;
    }
  }
  return std::make_shared<const LevelizedSchedule>(
      build_levelized_schedule(design.configuration(node).datapath));
}

namespace {

/// How each cycle brings the combinational logic up to date.  Fixed by
/// the engine: everything else about the two engines is this one
/// executor.
enum class Settle {
  /// levelized: one pass over the rank-ordered schedule.
  kRankedPass,
  /// naive: passes in datapath declaration order with change detection,
  /// until one changes nothing -- the conventional full-evaluation
  /// strategy E3 measures the event kernel against.
  kUntilStable,
};

/// Straight-line interpreter over a fixed order of the combinational
/// units.  Everything is resolved to dense indices at construction; the
/// per-cycle loop does no name lookups and no scheduling decisions.
class LevelizedSim {
 public:
  /// `comb_order` lists the configuration's combinational units in sweep
  /// order; the units are resolved to dense indices here and not
  /// referenced after.  `collect_wire_data` records finals and traces of
  /// the clocked wires.
  LevelizedSim(const ir::Configuration& config, mem::MemoryPool& pool,
               const sim::EngineRunOptions& options,
               const std::vector<const ir::Unit*>& comb_order, Settle settle,
               bool collect_wire_data)
      : config_(config), options_(options), settle_(settle) {
    ir::validate(config.datapath);
    ir::validate(config.fsm, config.datapath);
    const ir::Datapath& datapath = config.datapath;
    for (const ir::Wire& wire : datapath.wires) {
      wire_index_.emplace(wire.name, values_.size());
      values_.emplace_back(wire.width, 0);
    }
    for (const ir::MemoryDecl& memory : datapath.memories) {
      bool fresh = !pool.contains(memory.name);
      mem::MemoryImage& image =
          pool.create(memory.name, memory.depth, memory.width);
      if (fresh) {
        for (std::size_t i = 0; i < memory.init.size(); ++i) {
          image.write(i, memory.init[i]);
        }
      }
      images_.emplace(memory.name, &image);
    }

    // The combinational sweep, in the caller's order.
    for (const ir::Unit* comb_unit : comb_order) {
      const ir::Unit& unit = *comb_unit;
      CombOp op;
      op.kind = unit.kind;
      op.out = index_of(comb_output(unit));
      op.width = values_[op.out].width();
      op.binop = unit.binop;
      op.unop = unit.unop;
      op.value = unit.value;
      op.mux_inputs = unit.mux_inputs;
      for (const std::string& wire : ir::comb_input_wires(unit)) {
        op.ins.push_back(index_of(wire));
      }
      if (unit.kind == ir::UnitKind::kMemPort) {
        op.image = images_.at(unit.memory);
      }
      comb_.push_back(std::move(op));
    }

    // Sequential elements, sampled and committed at the edge.
    for (const ir::Unit& unit : datapath.units) {
      if (unit.kind == ir::UnitKind::kRegister) {
        RegOp reg;
        reg.q = index_of(unit.port("q"));
        reg.d = index_of(unit.port("d"));
        reg.en = unit.has_port("en") ? index_of(unit.port("en")) : kNone;
        reg.rst = unit.has_port("rst") ? index_of(unit.port("rst")) : kNone;
        reg.reset = Bits(unit.width, unit.reset_value);
        registers_.push_back(std::move(reg));
      } else if (unit.kind == ir::UnitKind::kBinOp && unit.latency > 0) {
        PipeOp pipe;
        pipe.out = index_of(unit.port("out"));
        pipe.a = index_of(unit.port("a"));
        pipe.b = index_of(unit.port("b"));
        pipe.binop = unit.binop;
        pipe.width = values_[pipe.out].width();
        pipe.ring.assign(unit.latency, Bits(pipe.width, 0));
        pipelined_.push_back(std::move(pipe));
      } else if (unit.kind == ir::UnitKind::kMemPort &&
                 unit.mem_mode != ir::MemMode::kRead) {
        WriteOp write;
        write.addr = index_of(unit.port("addr"));
        write.din = index_of(unit.port("din"));
        write.we = index_of(unit.port("we"));
        write.image = images_.at(unit.memory);
        write.name = unit.name;
        writes_.push_back(std::move(write));
      }
    }

    // Edge scratch, sized once so clock_edge never allocates.
    updates_.reserve(registers_.size() + pipelined_.size());
    mem_writes_.reserve(writes_.size());

    fsm_ = compile_fsm(config, wire_index_);
    state_ = fsm_.initial;
    done_index_ = index_of(config.fsm.done_wire);
    visits_.assign(config.fsm.states.size(), 0);
    taken_.resize(config.fsm.states.size());
    for (std::size_t i = 0; i < config.fsm.states.size(); ++i) {
      taken_[i].assign(config.fsm.states[i].transitions.size(), 0);
    }

    // Traced wires (register outputs + controls) are never written by the
    // combinational sweep, so O(1) slot lookup in set_traced covers every
    // write that can matter.
    if (collect_wire_data) {
      trace_slot_.assign(values_.size(), kNone);
      for (const std::string& wire : traced_wires(datapath)) {
        trace_slot_[index_of(wire)] = trace_names_.size();
        trace_names_.push_back(wire);
      }
      traces_.resize(trace_names_.size());
    }
  }

  sim::EnginePartition run(const std::string& node) {
    sim::EnginePartition result;
    result.node = node;
    for (const RegOp& reg : registers_) {
      set_traced(reg.q, reg.reset, result.stats);
    }
    visits_[state_] += 1;
    drive(fsm_.power_up, result.stats);
    sweep(result.stats);
    result.reason = sim::Kernel::StopReason::kMaxTime;
    while (values_[done_index_].is_zero()) {
      if (options_.max_cycles_per_partition != 0 &&
          result.cycles >= options_.max_cycles_per_partition) {
        finish(result);
        return result;
      }
      clock_edge(result.stats);
      sweep(result.stats);
      ++result.cycles;
    }
    result.reason = sim::Kernel::StopReason::kDoneNet;
    finish(result);
    return result;
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  struct CombOp {
    ir::UnitKind kind;
    std::size_t out;
    std::uint32_t width;
    ops::BinOp binop;
    ops::UnOp unop;
    std::uint64_t value;
    std::uint32_t mux_inputs;
    std::vector<std::size_t> ins;
    mem::MemoryImage* image = nullptr;
  };
  struct RegOp {
    std::size_t q;
    std::size_t d;
    std::size_t en;
    std::size_t rst;
    Bits reset;
  };
  struct PipeOp {
    std::size_t out;
    std::size_t a;
    std::size_t b;
    ops::BinOp binop;
    std::uint32_t width;
    /// One slot per latency cycle: each edge writes the fresh product at
    /// `head`, advances it, and commits the product written `latency - 1`
    /// edges ago, now at `head`.
    std::vector<Bits> ring;
    std::size_t head = 0;
  };
  struct WriteOp {
    std::size_t addr;
    std::size_t din;
    std::size_t we;
    mem::MemoryImage* image;
    std::string name;
  };
  struct Update {
    std::size_t index;
    Bits value;
  };
  struct MemWrite {
    mem::MemoryImage* image;
    std::uint64_t address;
    std::uint64_t data;
  };

  std::size_t index_of(const std::string& wire) const {
    return wire_index_.at(wire);
  }

  const char* engine_name() const {
    return settle_ == Settle::kRankedPass ? "levelized" : "naive";
  }

  void set_traced(std::size_t index, const Bits& next,
                  sim::KernelStats& stats) {
    if (values_[index] == next) {
      return;
    }
    values_[index] = next;
    ++stats.events;
    if (!trace_slot_.empty() && trace_slot_[index] != kNone) {
      traces_[trace_slot_[index]].push_back(next.u());
    }
  }

  /// Control writes from the compiled FSM (see CompiledFsm).
  void drive(const std::vector<CompiledFsm::Drive>& drives,
             sim::KernelStats& stats) {
    for (const auto& [index, value] : drives) {
      set_traced(index, Bits(values_[index].width(), value), stats);
    }
  }

  Bits evaluate(const CombOp& op) const {
    switch (op.kind) {
      case ir::UnitKind::kBinOp:
        return ops::eval_binop(op.binop, values_[op.ins[0]],
                               values_[op.ins[1]], op.width);
      case ir::UnitKind::kUnOp:
        return ops::eval_unop(op.unop, values_[op.ins[0]], op.width);
      case ir::UnitKind::kConst:
        return Bits(op.width, op.value);
      case ir::UnitKind::kMux: {
        std::uint64_t sel = values_[op.ins[0]].u();
        return sel < op.mux_inputs ? values_[op.ins[1 + sel]]
                                   : Bits(op.width, 0);
      }
      case ir::UnitKind::kMemPort: {
        std::uint64_t address = values_[op.ins[0]].u();
        return address < op.image->depth()
                   ? Bits(op.width, op.image->words()[address])
                   : Bits(op.width, 0);
      }
      case ir::UnitKind::kRegister:
        break;
    }
    FTI_ASSERT(false, "register in the combinational sweep");
  }

  /// Brings every combinational output up to date; one delta cycle per
  /// pass.
  void sweep(sim::KernelStats& stats) {
    if (settle_ == Settle::kRankedPass) {
      // Every unit's inputs are already final, so the result is assigned
      // unconditionally: no change detection, no second pass.
      ++stats.delta_cycles;
      stats.evaluations += comb_.size();
      for (const CombOp& op : comb_) {
        values_[op.out] = evaluate(op);
      }
      return;
    }
    for (std::uint32_t pass = 0; pass < options_.max_sweeps; ++pass) {
      ++stats.delta_cycles;
      stats.evaluations += comb_.size();
      bool changed = false;
      for (const CombOp& op : comb_) {
        Bits next = evaluate(op);
        if (!(values_[op.out] == next)) {
          values_[op.out] = next;
          ++stats.events;
          changed = true;
        }
      }
      if (!changed) {
        return;
      }
    }
    throw util::SimError("naive: combinational loop in datapath '" +
                         config_.datapath.name + "': no fixpoint after " +
                         std::to_string(options_.max_sweeps) + " sweeps");
  }

  /// Two-phase edge identical in observable order to the reference
  /// interpreter: sample against settled pre-edge values, then commit
  /// registers, pipeline stages, the FSM transition and memory writes.
  /// The transition commits only its control delta.
  void clock_edge(sim::KernelStats& stats) {
    updates_.clear();
    for (const RegOp& reg : registers_) {
      ++stats.evaluations;
      if (reg.rst != kNone && !values_[reg.rst].is_zero()) {
        updates_.push_back({reg.q, reg.reset});
        continue;
      }
      if (reg.en != kNone && values_[reg.en].is_zero()) {
        continue;
      }
      updates_.push_back({reg.q, values_[reg.d]});
    }
    for (PipeOp& pipe : pipelined_) {
      ++stats.evaluations;
      pipe.ring[pipe.head] = ops::eval_binop(pipe.binop, values_[pipe.a],
                                             values_[pipe.b], pipe.width);
      pipe.head = (pipe.head + 1) % pipe.ring.size();
      updates_.push_back({pipe.out, pipe.ring[pipe.head]});
    }
    mem_writes_.clear();
    for (const WriteOp& write : writes_) {
      ++stats.evaluations;
      if (values_[write.we].is_zero()) {
        continue;
      }
      std::uint64_t address = values_[write.addr].u();
      if (address >= write.image->depth()) {
        throw util::SimError(std::string(engine_name()) + ": sram '" +
                             write.name +
                             "' write to address " +
                             std::to_string(address) + " beyond depth " +
                             std::to_string(write.image->depth()));
      }
      mem_writes_.push_back({write.image, address, values_[write.din].u()});
    }
    const CompiledFsm::Transition* fired = nullptr;
    const CompiledFsm::State& current = fsm_.states[state_];
    for (std::size_t t = 0; t < current.transitions.size(); ++t) {
      const CompiledFsm::Transition& transition = current.transitions[t];
      bool taken = true;
      for (const auto& [status, expected] : transition.literals) {
        if (values_[status].is_zero() == expected) {
          taken = false;
          break;
        }
      }
      if (taken) {
        ++taken_[state_][t];
        state_ = transition.target;
        visits_[state_] += 1;
        fired = &transition;
        break;
      }
    }
    for (const Update& update : updates_) {
      set_traced(update.index, update.value, stats);
    }
    if (fired != nullptr) {
      drive(fired->delta, stats);
    }
    for (const MemWrite& write : mem_writes_) {
      write.image->write(write.address, write.data);
      ++stats.events;
    }
  }

  void finish(sim::EnginePartition& result) {
    result.stats.timesteps = result.cycles + 1;
    result.stats.end_time = result.cycles * options_.clock_period;
    // Every traced wire reports, even if it never changed.
    for (std::size_t t = 0; t < trace_names_.size(); ++t) {
      result.finals.emplace(
          trace_names_[t],
          values_[index_of(trace_names_[t])].u());
      result.traces[trace_names_[t]] = std::move(traces_[t]);
    }
    result.coverage = coverage_from_counts(config_.fsm, visits_, taken_);
  }

  const ir::Configuration& config_;
  const sim::EngineRunOptions& options_;
  Settle settle_;
  std::map<std::string, std::size_t> wire_index_;
  std::vector<Bits> values_;
  std::map<std::string, mem::MemoryImage*> images_;
  std::vector<CombOp> comb_;
  std::vector<RegOp> registers_;
  std::vector<PipeOp> pipelined_;
  std::vector<WriteOp> writes_;
  std::vector<Update> updates_;
  std::vector<MemWrite> mem_writes_;
  CompiledFsm fsm_;
  std::size_t state_;
  std::size_t done_index_;
  std::vector<std::uint64_t> visits_;
  std::vector<std::vector<std::uint64_t>> taken_;
  std::vector<std::size_t> trace_slot_;
  std::vector<std::string> trace_names_;
  /// Per traced wire, in trace_names_ order: its value at each change.
  std::vector<std::vector<std::uint64_t>> traces_;
};

}  // namespace

const std::string& LevelizedEngine::name() const {
  static const std::string kName = "levelized";
  return kName;
}

sim::EnginePartition LevelizedEngine::run_partition(
    const ir::Design& design, const std::string& node, mem::MemoryPool& pool,
    const sim::EngineRunOptions& options, std::size_t partition_index) {
  (void)partition_index;
  util::Stopwatch watch;
  SharedSchedule schedule = acquire_levelized_schedule(design, node);
  std::vector<const ir::Unit*> ranked;
  ranked.reserve(schedule->steps.size());
  for (const LevelizedSchedule::Step& step : schedule->steps) {
    ranked.push_back(step.unit);
  }
  LevelizedSim simulator(design.configuration(node), pool, options, ranked,
                         Settle::kRankedPass, options.collect_wire_data);
  sim::EnginePartition run = simulator.run(node);
  run.wall_seconds = watch.seconds();
  // Each delta is one full sweep of the levelized schedule, so the
  // number of levels visited is sweeps x schedule depth.
  if (obs::enabled()) {
    obs::counter("engine.levels_swept")
        .add(run.stats.delta_cycles * schedule->depth);
  }
  return run;
}

const std::string& NaiveEngine::name() const {
  static const std::string kName = "naive";
  return kName;
}

sim::EnginePartition NaiveEngine::run_partition(
    const ir::Design& design, const std::string& node, mem::MemoryPool& pool,
    const sim::EngineRunOptions& options, std::size_t partition_index) {
  (void)partition_index;
  util::Stopwatch watch;
  const ir::Configuration& config = design.configuration(node);
  std::vector<const ir::Unit*> declared;
  for (const ir::Unit& unit : config.datapath.units) {
    if (ir::is_combinational(unit)) {
      declared.push_back(&unit);
    }
  }
  LevelizedSim simulator(config, pool, options, declared,
                         Settle::kUntilStable, /*collect_wire_data=*/false);
  sim::EnginePartition run = simulator.run(node);
  run.wall_seconds = watch.seconds();
  return run;
}

}  // namespace fti::elab
