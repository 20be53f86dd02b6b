#include "fti/xsim/fourstate.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <utility>

#include "fti/elab/levelized.hpp"
#include "fti/ir/comb_graph.hpp"
#include "fti/obs/metrics.hpp"
#include "fti/ops/alu.hpp"
#include "fti/sim/bits.hpp"
#include "fti/util/error.hpp"

namespace fti::xsim {
namespace {

using sim::Bits;

std::uint64_t mask_of(std::uint32_t width) { return Bits::mask(width); }

XBits make_x(std::uint32_t width) { return {width, 0, mask_of(width)}; }

XBits make_known(std::uint32_t width, std::uint64_t value) {
  return {width, value & mask_of(width), 0};
}

XBits canon(std::uint32_t width, std::uint64_t v, std::uint64_t x) {
  std::uint64_t m = mask_of(width);
  x &= m;
  return {width, v & m & ~x, x};
}

/// 64-bit working pair, zero-extended (known-zero upper bits).
struct Wide {
  std::uint64_t v;
  std::uint64_t x;
};

Wide zext(const XBits& a) { return {a.v, a.x}; }

/// Sign extension: an unknown sign bit makes the extended bits unknown.
Wide sext(const XBits& a) {
  Wide w{a.v, a.x};
  if (a.width == 64) {
    return w;
  }
  std::uint64_t high = ~mask_of(a.width);
  std::uint64_t sign = std::uint64_t{1} << (a.width - 1);
  if (a.x & sign) {
    w.x |= high;
  } else if (a.v & sign) {
    w.v |= high;
  }
  return w;
}

std::uint64_t known_zeros(const Wide& a) { return ~a.v & ~a.x; }
std::uint64_t known_ones(const Wide& a) { return a.v & ~a.x; }

XBits xeval_binop(ops::BinOp op, const XBits& a, const XBits& b,
                  std::uint32_t out_width) {
  const bool sign_op =
      op == ops::BinOp::kDiv || op == ops::BinOp::kRem ||
      op == ops::BinOp::kAshr || op == ops::BinOp::kLt ||
      op == ops::BinOp::kLe || op == ops::BinOp::kGt ||
      op == ops::BinOp::kGe || op == ops::BinOp::kMin ||
      op == ops::BinOp::kMax;
  Wide wa = sign_op ? sext(a) : zext(a);
  Wide wb = sign_op ? sext(b) : zext(b);
  switch (op) {
    case ops::BinOp::kAnd: {
      std::uint64_t kz = known_zeros(wa) | known_zeros(wb);
      std::uint64_t x = (wa.x | wb.x) & ~kz;
      return canon(out_width, wa.v & wb.v, x);
    }
    case ops::BinOp::kOr: {
      std::uint64_t k1 = known_ones(wa) | known_ones(wb);
      std::uint64_t x = (wa.x | wb.x) & ~k1;
      return canon(out_width, wa.v | wb.v, x);
    }
    case ops::BinOp::kXor:
      return canon(out_width, wa.v ^ wb.v, wa.x | wb.x);
    case ops::BinOp::kShl:
    case ops::BinOp::kShr:
    case ops::BinOp::kAshr: {
      if (b.has_x()) {
        return make_x(out_width);  // unknown shift amount
      }
      std::uint64_t s = b.v;
      if (op == ops::BinOp::kShl) {
        return s >= 64 ? make_known(out_width, 0)
                       : canon(out_width, wa.v << s, wa.x << s);
      }
      if (op == ops::BinOp::kShr) {
        return s >= 64 ? make_known(out_width, 0)
                       : canon(out_width, wa.v >> s, wa.x >> s);
      }
      s = std::min<std::uint64_t>(s, 63);
      return canon(out_width,
                   static_cast<std::uint64_t>(
                       static_cast<std::int64_t>(wa.v) >> s),
                   static_cast<std::uint64_t>(
                       static_cast<std::int64_t>(wa.x) >> s));
    }
    default:
      break;
  }
  // Arithmetic and comparisons: pessimistic -- any unknown input bit
  // makes the whole result unknown.
  if (a.has_x() || b.has_x()) {
    return make_x(out_width);
  }
  return {out_width,
          ops::eval_binop(op, Bits(a.width, a.v), Bits(b.width, b.v),
                          out_width)
              .u(),
          0};
}

XBits xeval_unop(ops::UnOp op, const XBits& a, std::uint32_t out_width) {
  if (op == ops::UnOp::kNot) {
    Wide w = zext(a);
    return canon(out_width, ~w.v, w.x);
  }
  if (a.has_x()) {
    return make_x(out_width);
  }
  return {out_width, ops::eval_unop(op, Bits(a.width, a.v), out_width).u(), 0};
}

/// Per-word 4-state memory image.
struct XMemory {
  std::uint32_t width = 1;
  std::vector<std::uint64_t> v;
  std::vector<std::uint64_t> x;
};

const std::string& comb_output(const ir::Unit& unit) {
  return unit.kind == ir::UnitKind::kMemPort ? unit.port("dout")
                                             : unit.port("out");
}

/// X-propagating interpreter for one configuration; the structure
/// mirrors the one-lane `levelized` configuration of elab's sweep
/// executor (same schedule, same two-phase edge) so defined values agree
/// with the 2-state engines bit for bit.
class FourStateSim {
 public:
  FourStateSim(const ir::Configuration& config,
               std::map<std::string, XMemory>& memories,
               const FourStateOptions& options, FourStateReport& report,
               std::set<std::string>& dedupe, const std::string& node)
      : config_(config),
        options_(options),
        report_(report),
        dedupe_(dedupe),
        node_(node) {
    const ir::Datapath& datapath = config.datapath;
    for (const ir::Wire& wire : datapath.wires) {
      wire_index_.emplace(wire.name, values_.size());
      values_.push_back(make_known(wire.width, 0));
    }
    for (const ir::MemoryDecl& memory : datapath.memories) {
      auto [it, fresh] = memories.try_emplace(memory.name);
      XMemory& image = it->second;
      if (fresh) {
        image.width = memory.width;
        image.v.assign(memory.depth, 0);
        image.x.assign(memory.depth, mask_of(memory.width));
        for (std::size_t i = 0;
             i < memory.init.size() && i < memory.depth; ++i) {
          image.v[i] = memory.init[i] & mask_of(memory.width);
          image.x[i] = 0;
        }
      }
      images_.emplace(memory.name, &image);
    }

    elab::LevelizedSchedule schedule =
        elab::build_levelized_schedule(datapath);
    for (const elab::LevelizedSchedule::Step& step : schedule.steps) {
      const ir::Unit& unit = *step.unit;
      CombOp op;
      op.kind = unit.kind;
      op.out = index_of(comb_output(unit));
      op.width = values_[op.out].width;
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

    for (const ir::Unit& unit : datapath.units) {
      if (unit.kind == ir::UnitKind::kRegister) {
        RegOp reg;
        reg.q = index_of(unit.port("q"));
        reg.d = index_of(unit.port("d"));
        reg.en = unit.has_port("en") ? index_of(unit.port("en")) : kNone;
        reg.rst = unit.has_port("rst") ? index_of(unit.port("rst")) : kNone;
        reg.reset = unit.reset_value;
        reg.initialized = unit.has_port("rst");
        registers_.push_back(std::move(reg));
      } else if (unit.kind == ir::UnitKind::kBinOp && unit.latency > 0) {
        PipeOp pipe;
        pipe.out = index_of(unit.port("out"));
        pipe.a = index_of(unit.port("a"));
        pipe.b = index_of(unit.port("b"));
        pipe.binop = unit.binop;
        pipe.width = values_[pipe.out].width;
        pipe.stages.assign(unit.latency - 1, make_x(pipe.width));
        pipelined_.push_back(std::move(pipe));
      } else if (unit.kind == ir::UnitKind::kMemPort &&
                 unit.mem_mode != ir::MemMode::kRead) {
        WriteOp write;
        write.addr = index_of(unit.port("addr"));
        write.din = index_of(unit.port("din"));
        write.we = index_of(unit.port("we"));
        write.image = images_.at(unit.memory);
        write.memory = unit.memory;
        writes_.push_back(std::move(write));
      }
    }

    for (const std::string& control : datapath.control_wires) {
      control_index_.push_back(index_of(control));
    }
    for (const ir::State& state : config.fsm.states) {
      CompiledState compiled;
      for (const std::string& control : datapath.control_wires) {
        std::uint64_t value = 0;
        for (const ir::ControlAssign& assign : state.controls) {
          if (assign.wire == control) {
            value = assign.value;
            break;
          }
        }
        compiled.controls.push_back(
            make_known(values_[index_of(control)].width, value));
      }
      for (const ir::Transition& transition : state.transitions) {
        CompiledTransition ct;
        for (const ir::GuardLiteral& literal : transition.guard.literals) {
          ct.literals.emplace_back(index_of(literal.status),
                                   literal.expected);
        }
        ct.target = config.fsm.state_index(transition.target);
        compiled.transitions.push_back(std::move(ct));
      }
      states_.push_back(std::move(compiled));
    }
    state_ = config.fsm.state_index(config.fsm.initial);
    done_index_ = index_of(config.fsm.done_wire);
    done_wire_ = config.fsm.done_wire;
  }

  /// Runs until done (or the cycle budget); returns cycles and whether
  /// the done wire was observed high.
  std::pair<std::uint64_t, bool> run() {
    for (const RegOp& reg : registers_) {
      values_[reg.q] = reg.initialized
                           ? make_known(values_[reg.q].width, reg.reset)
                           : make_x(values_[reg.q].width);
    }
    drive_controls();
    sweep();
    std::uint64_t cycles = 0;
    while (!done_high(cycles)) {
      if (options_.max_cycles_per_partition != 0 &&
          cycles >= options_.max_cycles_per_partition) {
        return {cycles, false};
      }
      clock_edge(cycles);
      drive_controls();
      sweep();
      ++cycles;
    }
    return {cycles, true};
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
    XMemory* image = nullptr;
  };
  struct RegOp {
    std::size_t q;
    std::size_t d;
    std::size_t en;
    std::size_t rst;
    std::uint64_t reset;
    bool initialized;
  };
  struct PipeOp {
    std::size_t out;
    std::size_t a;
    std::size_t b;
    ops::BinOp binop;
    std::uint32_t width;
    std::deque<XBits> stages;
  };
  struct WriteOp {
    std::size_t addr;
    std::size_t din;
    std::size_t we;
    XMemory* image;
    std::string memory;
  };
  struct CompiledTransition {
    std::vector<std::pair<std::size_t, bool>> literals;
    std::size_t target;
  };
  struct CompiledState {
    std::vector<XBits> controls;
    std::vector<CompiledTransition> transitions;
  };

  std::size_t index_of(const std::string& wire) const {
    return wire_index_.at(wire);
  }

  void finding(const std::string& object, std::uint64_t cycle,
               const std::string& message) {
    if (!dedupe_.insert(node_ + "/" + object + "/" + message).second) {
      return;
    }
    if (report_.findings.size() >= options_.max_findings) {
      return;
    }
    report_.findings.push_back({node_, object, cycle, message});
  }

  bool done_high(std::uint64_t cycle) {
    const XBits& done = values_[done_index_];
    if (done.has_x()) {
      finding(done_wire_, cycle,
              "done wire reads X (uninitialized state reached the "
              "completion logic)");
      return false;
    }
    return done.v != 0;
  }

  void drive_controls() {
    const CompiledState& state = states_[state_];
    for (std::size_t c = 0; c < control_index_.size(); ++c) {
      values_[control_index_[c]] = state.controls[c];
    }
  }

  void sweep() {
    for (const CombOp& op : comb_) {
      switch (op.kind) {
        case ir::UnitKind::kBinOp:
          values_[op.out] = xeval_binop(op.binop, values_[op.ins[0]],
                                        values_[op.ins[1]], op.width);
          break;
        case ir::UnitKind::kUnOp:
          values_[op.out] =
              xeval_unop(op.unop, values_[op.ins[0]], op.width);
          break;
        case ir::UnitKind::kConst:
          values_[op.out] = make_known(op.width, op.value);
          break;
        case ir::UnitKind::kMux: {
          const XBits& sel = values_[op.ins[0]];
          if (sel.has_x()) {
            values_[op.out] = make_x(op.width);
          } else if (sel.v < op.mux_inputs) {
            values_[op.out] = values_[op.ins[1 + sel.v]];
          } else {
            values_[op.out] = make_known(op.width, 0);
          }
          break;
        }
        case ir::UnitKind::kMemPort: {
          const XBits& addr = values_[op.ins[0]];
          if (addr.has_x()) {
            values_[op.out] = make_x(op.width);
          } else if (addr.v < op.image->v.size()) {
            values_[op.out] =
                canon(op.width, op.image->v[addr.v], op.image->x[addr.v]);
          } else {
            values_[op.out] = make_known(op.width, 0);
          }
          break;
        }
        case ir::UnitKind::kRegister:
          break;
      }
    }
  }

  void clock_edge(std::uint64_t cycle) {
    struct Update {
      std::size_t index;
      XBits value;
    };
    std::vector<Update> updates;
    for (const RegOp& reg : registers_) {
      const std::uint32_t width = values_[reg.q].width;
      if (reg.rst != kNone) {
        const XBits& rst = values_[reg.rst];
        if (rst.has_x()) {
          updates.push_back({reg.q, make_x(width)});
          continue;
        }
        if (rst.v != 0) {
          updates.push_back({reg.q, make_known(width, reg.reset)});
          continue;
        }
      }
      if (reg.en != kNone) {
        const XBits& en = values_[reg.en];
        if (en.has_x()) {
          updates.push_back({reg.q, make_x(width)});
          continue;
        }
        if (en.v == 0) {
          continue;
        }
      }
      updates.push_back({reg.q, values_[reg.d]});
    }
    for (PipeOp& pipe : pipelined_) {
      pipe.stages.push_back(xeval_binop(pipe.binop, values_[pipe.a],
                                        values_[pipe.b], pipe.width));
      updates.push_back({pipe.out, pipe.stages.front()});
      pipe.stages.pop_front();
    }
    struct MemWrite {
      XMemory* image;
      std::uint64_t address;
      XBits data;
    };
    std::vector<MemWrite> mem_writes;
    for (const WriteOp& write : writes_) {
      const XBits& we = values_[write.we];
      if (we.has_x()) {
        finding(write.memory, cycle,
                "memory write enable reads X (uninitialized value controls "
                "whether '" + write.memory + "' is written)");
        continue;
      }
      if (we.v == 0) {
        continue;
      }
      const XBits& addr = values_[write.addr];
      if (addr.has_x()) {
        finding(write.memory, cycle,
                "memory write address reads X (uninitialized value selects "
                "the word written in '" + write.memory + "')");
        continue;
      }
      if (addr.v >= write.image->v.size()) {
        finding(write.memory, cycle,
                "memory write beyond depth " +
                    std::to_string(write.image->v.size()));
        continue;
      }
      const XBits& din = values_[write.din];
      if (din.has_x()) {
        finding(write.memory, cycle,
                "uninitialized (X) data written to memory '" + write.memory +
                    "'");
      }
      mem_writes.push_back({write.image, addr.v, din});
    }
    const CompiledState& current = states_[state_];
    for (std::size_t t = 0; t < current.transitions.size(); ++t) {
      const CompiledTransition& transition = current.transitions[t];
      bool taken = true;
      for (const auto& [status, expected] : transition.literals) {
        const XBits& value = values_[status];
        if (value.has_x()) {
          finding(config_.fsm.states[state_].name, cycle,
                  "FSM guard reads X status (uninitialized value steers the "
                  "state machine)");
          taken = false;
          break;
        }
        if ((value.v == 0) == expected) {
          taken = false;
          break;
        }
      }
      if (taken) {
        state_ = transition.target;
        break;
      }
    }
    for (const Update& update : updates) {
      values_[update.index] = update.value;
    }
    for (const MemWrite& write : mem_writes) {
      write.image->v[write.address] = write.data.v;
      write.image->x[write.address] = write.data.x;
    }
  }

  const ir::Configuration& config_;
  const FourStateOptions& options_;
  FourStateReport& report_;
  std::set<std::string>& dedupe_;
  std::string node_;
  std::string done_wire_;
  std::map<std::string, std::size_t> wire_index_;
  std::vector<XBits> values_;
  std::map<std::string, XMemory*> images_;
  std::vector<CombOp> comb_;
  std::vector<RegOp> registers_;
  std::vector<PipeOp> pipelined_;
  std::vector<WriteOp> writes_;
  std::vector<std::size_t> control_index_;
  std::vector<CompiledState> states_;
  std::size_t state_ = 0;
  std::size_t done_index_ = 0;
};

}  // namespace

std::vector<lint::Finding> FourStateReport::to_lint() const {
  std::vector<lint::Finding> out;
  for (const FourStateFinding& finding : findings) {
    lint::Finding lf;
    lf.rule = "FTI-L010";
    lf.severity = lint::Severity::kWarning;
    lf.configuration = finding.node;
    lf.object = finding.object;
    lf.message = "4-state: " + finding.message + " (cycle " +
                 std::to_string(finding.cycle) +
                 "); dynamic counterpart of uninitialized-memory-read";
    out.push_back(std::move(lf));
  }
  return out;
}

FourStateReport run_four_state(const ir::Design& design,
                               const mem::MemoryPool& stimulus,
                               const FourStateOptions& options) {
  ir::validate(design);
  FourStateReport report;
  std::set<std::string> dedupe;
  std::map<std::string, XMemory> memories;
  // Stimulus images are fully defined: they are the test's declared
  // inputs, exactly what the 2-state engines receive.
  for (const std::string& name : stimulus.names()) {
    const mem::MemoryImage& image = stimulus.get(name);
    XMemory x;
    x.width = image.width();
    x.v = image.words();
    x.x.assign(image.depth(), 0);
    memories.emplace(name, std::move(x));
  }
  report.completed = true;
  std::set<std::string> visited;
  std::string node = design.rtg.initial;
  while (!node.empty() && design.rtg.has_node(node) &&
         visited.insert(node).second) {
    FourStateSim simulator(design.configuration(node), memories, options,
                           report, dedupe, node);
    auto [cycles, done] = simulator.run();
    report.total_cycles += cycles;
    if (!done) {
      report.completed = false;
      break;
    }
    node = design.rtg.successor(node);
  }
  if (obs::enabled()) {
    obs::counter("xsim.four_state_runs").add(1);
    obs::counter("xsim.four_state_findings").add(report.findings.size());
  }
  return report;
}

}  // namespace fti::xsim
