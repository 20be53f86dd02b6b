#include "fti/fuzz/reference.hpp"

#include <deque>
#include <mutex>

#include "fti/util/error.hpp"
#include "fti/util/file_io.hpp"

namespace fti::fuzz {
namespace {

using sim::Bits;

class ReferenceSim {
 public:
  ReferenceSim(const ir::Configuration& config, mem::MemoryPool& pool,
               const sim::EngineRunOptions& run,
               const ReferenceOptions& options)
      : config_(config), run_(run), options_(options) {
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
    for (const ir::Unit& unit : datapath.units) {
      switch (unit.kind) {
        case ir::UnitKind::kRegister:
          registers_.push_back(&unit);
          break;
        case ir::UnitKind::kBinOp:
          if (unit.latency > 0) {
            pipelined_.push_back(&unit);
            pipelines_[&unit].assign(
                unit.latency - 1,
                Bits(width_of(unit.port("out")), 0));
          } else {
            combinational_.push_back(&unit);
          }
          break;
        case ir::UnitKind::kMemPort:
          if (unit.mem_mode != ir::MemMode::kWrite) {
            combinational_.push_back(&unit);
          }
          if (unit.mem_mode != ir::MemMode::kRead) {
            write_ports_.push_back(&unit);
          }
          break;
        default:
          combinational_.push_back(&unit);
          break;
      }
    }
    state_ = config.fsm.state_index(config.fsm.initial);
    done_index_ = index_of(config.fsm.done_wire);
    for (const std::string& wire : traced_wires(datapath)) {
      traced_.push_back(index_of(wire));
      trace_names_.push_back(wire);
    }
  }

  ReferencePartition run(const std::string& node) {
    ReferencePartition result;
    result.node = node;
    for (const std::string& name : trace_names_) {
      result.traces[name];  // every traced wire reports, even if idle
    }
    // Time zero mirrors the kernel's initialization deltas: registers
    // power up to their reset value, the initial FSM state drives its
    // control vector, then the combinational sea settles.
    for (const ir::Unit* reg : registers_) {
      set_value(index_of(reg->port("q")),
                Bits(reg->width, reg->reset_value), result);
    }
    drive_controls(result);
    settle();
    while (values_[done_index_].is_zero()) {
      if (result.cycles >= run_.max_cycles_per_partition) {
        finalize(result);
        return result;  // completed stays false
      }
      clock_edge(result);
      drive_controls(result);
      settle();
      ++result.cycles;
    }
    result.completed = true;
    finalize(result);
    return result;
  }

 private:
  std::size_t index_of(const std::string& wire) const {
    return wire_index_.at(wire);
  }

  std::uint32_t width_of(const std::string& wire) const {
    return values_[index_of(wire)].width();
  }

  const Bits& value(const ir::Unit& unit, const std::string& port) const {
    return values_[index_of(unit.port(port))];
  }

  /// Traced wires record their change stream, like a Probe on the net.
  void set_value(std::size_t index, const Bits& next,
                 ReferencePartition& result) {
    if (values_[index] == next) {
      return;
    }
    values_[index] = next;
    for (std::size_t t = 0; t < traced_.size(); ++t) {
      if (traced_[t] == index) {
        result.traces[trace_names_[t]].push_back(next.u());
        break;
      }
    }
  }

  Bits eval_fu(ops::BinOp op, const Bits& a, const Bits& b,
               std::uint32_t out_width) const {
    if (options_.eval_binop) {
      return options_.eval_binop(op, a, b, out_width);
    }
    return ops::eval_binop(op, a, b, out_width);
  }

  void drive_controls(ReferencePartition& result) {
    const ir::State& state = config_.fsm.states[state_];
    for (const std::string& control : config_.datapath.control_wires) {
      std::size_t index = index_of(control);
      Bits next(values_[index].width(), 0);
      for (const ir::ControlAssign& assign : state.controls) {
        if (assign.wire == control) {
          next = Bits(values_[index].width(), assign.value);
          break;
        }
      }
      set_value(index, next, result);
    }
  }

  bool evaluate_unit(const ir::Unit& unit) {
    Bits result;
    std::size_t out_index = 0;
    switch (unit.kind) {
      case ir::UnitKind::kBinOp:
        out_index = index_of(unit.port("out"));
        result = eval_fu(unit.binop, value(unit, "a"), value(unit, "b"),
                         values_[out_index].width());
        break;
      case ir::UnitKind::kUnOp:
        out_index = index_of(unit.port("out"));
        result = ops::eval_unop(unit.unop, value(unit, "a"),
                                values_[out_index].width());
        break;
      case ir::UnitKind::kConst:
        out_index = index_of(unit.port("out"));
        result = Bits(values_[out_index].width(), unit.value);
        break;
      case ir::UnitKind::kMux: {
        out_index = index_of(unit.port("out"));
        std::uint64_t sel = value(unit, "sel").u();
        result = sel < unit.mux_inputs
                     ? value(unit, "in" + std::to_string(sel))
                     : Bits(values_[out_index].width(), 0);
        break;
      }
      case ir::UnitKind::kMemPort: {
        // Asynchronous read path; transient out-of-range addresses read
        // zero, matching the SRAM components.
        out_index = index_of(unit.port("dout"));
        const mem::MemoryImage& image = *images_.at(unit.memory);
        std::uint64_t address = value(unit, "addr").u();
        result = address < image.depth()
                     ? Bits(values_[out_index].width(),
                            image.words()[address])
                     : Bits(values_[out_index].width(), 0);
        break;
      }
      case ir::UnitKind::kRegister:
        FTI_ASSERT(false, "register in combinational list");
    }
    if (values_[out_index] == result) {
      return false;
    }
    values_[out_index] = result;
    return true;
  }

  void settle() {
    for (std::uint32_t sweep = 0; sweep < run_.max_sweeps; ++sweep) {
      bool changed = false;
      for (const ir::Unit* unit : combinational_) {
        changed = evaluate_unit(*unit) || changed;
      }
      if (!changed) {
        return;
      }
    }
    throw util::SimError("reference: combinational loop in datapath '" +
                         config_.datapath.name + "'");
  }

  /// Two-phase edge: sample every sequential element against settled
  /// pre-edge values, then commit registers, pipeline stages, memory
  /// writes and the FSM transition together.
  void clock_edge(ReferencePartition& result) {
    struct Update {
      std::size_t index;
      Bits value;
    };
    std::vector<Update> updates;
    for (const ir::Unit* reg : registers_) {
      if (reg->has_port("rst") && !value(*reg, "rst").is_zero()) {
        updates.push_back({index_of(reg->port("q")),
                           Bits(reg->width, reg->reset_value)});
        continue;
      }
      if (reg->has_port("en") && value(*reg, "en").is_zero()) {
        continue;
      }
      updates.push_back({index_of(reg->port("q")), value(*reg, "d")});
    }
    for (const ir::Unit* unit : pipelined_) {
      std::deque<Bits>& stages = pipelines_[unit];
      stages.push_back(eval_fu(unit->binop, value(*unit, "a"),
                               value(*unit, "b"),
                               width_of(unit->port("out"))));
      updates.push_back({index_of(unit->port("out")), stages.front()});
      stages.pop_front();
    }
    struct MemWrite {
      mem::MemoryImage* image;
      std::uint64_t address;
      std::uint64_t data;
    };
    std::vector<MemWrite> writes;
    for (const ir::Unit* port : write_ports_) {
      if (value(*port, "we").is_zero()) {
        continue;
      }
      std::uint64_t address = value(*port, "addr").u();
      mem::MemoryImage* image = images_.at(port->memory);
      if (address >= image->depth()) {
        throw util::SimError("reference: sram '" + port->name +
                             "' write to address " +
                             std::to_string(address) + " beyond depth " +
                             std::to_string(image->depth()));
      }
      writes.push_back({image, address, value(*port, "din").u()});
    }
    const ir::State& current = config_.fsm.states[state_];
    for (const ir::Transition& transition : current.transitions) {
      bool taken = true;
      for (const ir::GuardLiteral& literal : transition.guard.literals) {
        bool level = !values_[index_of(literal.status)].is_zero();
        if (level != literal.expected) {
          taken = false;
          break;
        }
      }
      if (taken) {
        state_ = config_.fsm.state_index(transition.target);
        break;
      }
    }
    for (const Update& update : updates) {
      set_value(update.index, update.value, result);
    }
    for (const MemWrite& write : writes) {
      write.image->write(write.address, write.data);
    }
  }

  void finalize(ReferencePartition& result) const {
    for (std::size_t t = 0; t < traced_.size(); ++t) {
      result.finals.emplace(trace_names_[t], values_[traced_[t]].u());
    }
  }

  const ir::Configuration& config_;
  const sim::EngineRunOptions& run_;
  const ReferenceOptions& options_;
  std::map<std::string, std::size_t> wire_index_;
  std::vector<Bits> values_;
  std::map<std::string, mem::MemoryImage*> images_;
  std::vector<const ir::Unit*> combinational_;
  std::vector<const ir::Unit*> registers_;
  std::vector<const ir::Unit*> pipelined_;
  std::map<const ir::Unit*, std::deque<Bits>> pipelines_;
  std::vector<const ir::Unit*> write_ports_;
  std::vector<std::size_t> traced_;
  std::vector<std::string> trace_names_;
  std::size_t state_;
  std::size_t done_index_;
};

}  // namespace

std::uint64_t ReferenceResult::total_cycles() const {
  std::uint64_t total = 0;
  for (const ReferencePartition& partition : partitions) {
    total += partition.cycles;
  }
  return total;
}

std::vector<std::string> traced_wires(const ir::Datapath& datapath) {
  return elab::traced_wires(datapath);
}

ReferenceResult run_reference(const ir::Design& design, mem::MemoryPool& pool,
                              const sim::EngineRunOptions& run,
                              const ReferenceOptions& options) {
  ir::validate(design);
  ReferenceResult result;
  result.completed = true;
  std::string node = design.rtg.initial;
  while (!node.empty()) {
    ReferenceSim simulator(design.configuration(node), pool, run, options);
    ReferencePartition partition = simulator.run(node);
    bool completed = partition.completed;
    result.partitions.push_back(std::move(partition));
    if (!completed) {
      result.completed = false;
      break;
    }
    node = design.rtg.successor(node);
  }
  return result;
}

const std::string& ReferenceEngine::name() const {
  static const std::string kName = "reference";
  return kName;
}

sim::EnginePartition ReferenceEngine::run_partition(
    const ir::Design& design, const std::string& node, mem::MemoryPool& pool,
    const sim::EngineRunOptions& options, std::size_t partition_index) {
  (void)partition_index;
  util::Stopwatch watch;
  ReferenceSim simulator(design.configuration(node), pool, options, options_);
  ReferencePartition partition = simulator.run(node);
  sim::EnginePartition run;
  run.node = partition.node;
  run.cycles = partition.cycles;
  run.reason = partition.completed ? sim::Kernel::StopReason::kDoneNet
                                   : sim::Kernel::StopReason::kMaxTime;
  run.finals = std::move(partition.finals);
  run.traces = std::move(partition.traces);
  run.wall_seconds = watch.seconds();
  return run;
}

void register_reference_engine() {
  static std::once_flag once;
  std::call_once(once, [] {
    sim::register_engine(
        "reference", [] { return std::make_unique<ReferenceEngine>(); });
  });
}

}  // namespace fti::fuzz
