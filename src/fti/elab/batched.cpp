#include "fti/elab/batched.hpp"

#include <bit>
#include <cstdint>
#include <map>
#include <numeric>
#include <utility>

#include "fti/elab/compiled_fsm.hpp"
#include "fti/elab/levelized.hpp"
#include "fti/ir/comb_graph.hpp"
#include "fti/mem/storage.hpp"
#include "fti/obs/metrics.hpp"
#include "fti/obs/trace.hpp"
#include "fti/ops/alu.hpp"
#include "fti/ops/word_ops.hpp"
#include "fti/util/error.hpp"
#include "fti/util/file_io.hpp"

namespace fti::elab {
namespace {

using sim::Bits;

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Straight-line interpreter over a fixed order of the combinational
/// units, over N lockstep stimulus lanes (batched.hpp has the layouts).
/// Everything is resolved to dense storage offsets at construction; the
/// per-cycle loop does no name lookups and no scheduling decisions.
///
/// All wires live in one word array.  With N > 1 lanes a 1-bit wire owns
/// ceil(N/64) packed words (lane k in bit k%64 of word k/64) and a wider
/// wire owns N words (lane k at offset+k).  Each combinational op is
/// classified at construction: 1-bit AND/OR/XOR/NOT/copy/const and 2-way
/// 1-bit muxes run word-parallel over the packed lane words (word_*);
/// ops whose operands all live in unpacked storage run as tight all-lane
/// loops with the operator kernel a template argument (wide_*); only
/// mixed packed/unpacked operand sets take the per-lane path
/// (lane_loop).  With one lane (`kOneLane`) no wire is packed, so every
/// op is a wide_* loop whose trip count is the constant 1.
///
/// Invariant: in the last packed word, the padding bits above lane N-1
/// stay zero -- word ops that could set them (NOT, const-1 broadcast,
/// register reset fills) mask with `word_mask`, and the AND/OR/XOR/MUX
/// forms preserve zero padding algebraically.
template <bool kOneLane>
class BatchedSim {
 public:
  /// `comb_order` lists the combinational units in sweep order; they are
  /// resolved here and not referenced after.  `engine` fixes the settle
  /// step and the error texts.
  BatchedSim(const ir::Configuration& config,
             const std::vector<mem::MemoryPool*>& pools,
             const sim::EngineRunOptions& options,
             const std::vector<const ir::Unit*>& comb_order,
             const SweepEngine& engine)
      : config_(config),
        options_(options),
        engine_(engine),
        lanes_(pools.size()),
        words_((pools.size() + 63) / 64) {
    FTI_ASSERT(kOneLane == (lanes_ == 1), "lane layout mismatch");
    tail_mask_ = lanes_ % 64 == 0 ? ~0ull : (1ull << (lanes_ % 64)) - 1;
    ir::validate(config.datapath);
    ir::validate(config.fsm, config.datapath);
    const ir::Datapath& datapath = config.datapath;

    std::size_t storage = 0;
    for (const ir::Wire& wire : datapath.wires) {
      wire_index_.emplace(wire.name, slots_.size());
      slots_.push_back({wire.width, storage});
      storage += packed(slots_.size() - 1) ? words() : lanes();
    }
    vals_.assign(storage, 0);
    ones_.assign(words(), ~0ull);
    zeros_.assign(words(), 0);

    // One image per (memory, lane): created, and initialised if fresh, so
    // a pre-primed pool is that lane's stimulus.
    for (const ir::MemoryDecl& memory : datapath.memories) {
      std::vector<mem::MemoryImage*>& images = lane_images_[memory.name];
      images.resize(lanes());
      for (std::size_t lane = 0; lane < lanes(); ++lane) {
        mem::MemoryPool& pool = *pools[lane];
        bool fresh = !pool.contains(memory.name);
        mem::MemoryImage& image =
            pool.create(memory.name, memory.depth, memory.width);
        if (fresh) {
          for (std::size_t i = 0; i < memory.init.size(); ++i) {
            image.write(i, memory.init[i]);
          }
        }
        images[lane] = &image;
      }
    }

    for (const ir::Unit* comb_unit : comb_order) {
      const ir::Unit& unit = *comb_unit;
      CombOp op;
      op.kind = unit.kind;
      op.out = index_of(*ir::comb_output_wire(unit));
      op.mask = Bits::mask(slots_[op.out].width);
      op.binop = unit.binop;
      op.unop = unit.unop;
      op.value = unit.value;
      op.mux_inputs = unit.mux_inputs;
      for (const std::string& wire : ir::comb_input_wires(unit)) {
        op.ins.push_back(index_of(wire));
      }
      op.at_out = slots_[op.out].offset;
      if (!op.ins.empty()) {
        op.at_a = slots_[op.ins[0]].offset;
        op.sa = ops::sign_bit(slots_[op.ins[0]].width);
      }
      if (op.ins.size() > 1) {
        op.at_b = slots_[op.ins[1]].offset;
        op.sb = ops::sign_bit(slots_[op.ins[1]].width);
      }
      if (unit.kind == ir::UnitKind::kMemPort) {
        op.images = lane_images_.at(unit.memory).data();
      }
      op.run = classify(op);
      comb_.push_back(std::move(op));
    }

    // Edge scratch, laid out once so clock_edge never allocates: every
    // register's sampled next value (one packed word run for word
    // registers, one slot per lane otherwise) and, for the others, the
    // packed mask of lanes that load at this edge.
    std::size_t scratch = 0;
    for (const ir::Unit& unit : datapath.units) {
      if (unit.kind == ir::UnitKind::kRegister) {
        RegOp reg;
        reg.q = index_of(unit.port("q"));
        reg.d = index_of(unit.port("d"));
        reg.reset = unit.reset_value & Bits::mask(slots_[reg.q].width);
        // ir::validate fixes `en` and `rst` at one bit, so their words
        // are packed lane masks in either layout, and `d` and `q` at the
        // register's width.
        reg.word = packed(reg.q);
        reg.en_words = unit.has_port("en") ? at(index_of(unit.port("en")))
                                           : ones_.data();
        reg.rst_words = unit.has_port("rst")
                            ? at(index_of(unit.port("rst")))
                            : zeros_.data();
        reg.scratch = scratch;
        scratch += reg.word ? words() : lanes();
        registers_.push_back(std::move(reg));
      } else if (unit.kind == ir::UnitKind::kBinOp && unit.latency > 0) {
        PipeOp pipe;
        pipe.out = index_of(unit.port("out"));
        pipe.a = index_of(unit.port("a"));
        pipe.b = index_of(unit.port("b"));
        pipe.binop = unit.binop;
        pipe.sa = ops::sign_bit(slots_[pipe.a].width);
        pipe.sb = ops::sign_bit(slots_[pipe.b].width);
        pipe.mask = Bits::mask(slots_[pipe.out].width);
        pipe.latency = unit.latency;
        pipe.ring.assign(unit.latency * lanes(), 0);
        pipelined_.push_back(std::move(pipe));
      } else if (unit.kind == ir::UnitKind::kMemPort &&
                 unit.mem_mode != ir::MemMode::kRead) {
        WriteOp write;
        write.addr = index_of(unit.port("addr"));
        write.din = index_of(unit.port("din"));
        write.we = index_of(unit.port("we"));
        write.images = lane_images_.at(unit.memory).data();
        write.name = unit.name;
        writes_.push_back(std::move(write));
      }
    }

    reg_scratch_.assign(scratch, 0);
    reg_load_.assign(registers_.size() * words(), 0);
    loading_.reserve(registers_.size());
    mem_writes_.reserve(writes_.size() * lanes());

    fsm_ = compile_fsm(config, wire_index_);
    done_index_ = index_of(config.fsm.done_wire);
    state_.assign(lanes(), fsm_.initial);
    visits_.assign(lanes(),
                   std::vector<std::uint64_t>(config.fsm.states.size(), 0));
    std::vector<std::vector<std::uint64_t>> taken;
    for (const ir::State& state : config.fsm.states) {
      taken.emplace_back(state.transitions.size(), 0);
    }
    taken_.assign(lanes(), taken);

    // Traced wires (register outputs + controls) are never written by the
    // combinational sweep, so the commit paths see every write that can
    // matter.
    if (options.collect_wire_data && engine.reports_wire_data()) {
      trace_slot_.assign(slots_.size(), kNone);
      for (const std::string& wire : traced_wires(datapath)) {
        trace_slot_[index_of(wire)] = trace_names_.size();
        trace_names_.push_back(wire);
      }
    }
    lane_traces_.assign(
        lanes(), std::vector<std::vector<std::uint64_t>>(trace_names_.size()));
    events_.assign(lanes(), 0);
    active_.assign(words(), ~0ull);
    active_.back() &= tail_mask_;
    active_count_ = lanes();
  }

  /// Sum over sweeps of the number of lanes still active in each -- the
  /// unit the obs `engine.lane_sweeps` counter aggregates.
  std::uint64_t lane_sweeps() const { return lane_sweeps_; }

  std::vector<sim::EnginePartition> run(const std::string& node) {
    std::vector<sim::EnginePartition> results(lanes());
    for (sim::EnginePartition& result : results) {
      result.node = node;
    }
    // Power-up: every lane's registers load their reset value and its FSM
    // drives the initial state's controls.
    for (std::size_t lane = 0; lane < lanes(); ++lane) {
      for (const RegOp& reg : registers_) {
        commit(reg.q, lane, reg.reset);
      }
      ++visits_[lane][state_[lane]];
      for (const auto& [wire, value] : fsm_.power_up) {
        commit(wire, lane, value);
      }
    }
    sweep();
    for (;;) {
      // Done is checked before the budget, so a lane whose done rises in
      // the same cycle the budget runs out still completes (the event
      // engine breaks the tie the same way).
      for_each_set(at(done_index_), [&](std::size_t lane) {
        finish(results[lane], lane, sim::Kernel::StopReason::kDoneNet);
      });
      if (active_count_ == 0) {
        break;
      }
      if (options_.max_cycles_per_partition != 0 &&
          cycle_ >= options_.max_cycles_per_partition) {
        for_each_active([&](std::size_t lane) {
          finish(results[lane], lane, sim::Kernel::StopReason::kMaxTime);
        });
        break;
      }
      clock_edge();
      sweep();
      ++cycle_;
    }
    return results;
  }

 private:
  struct CombOp;
  /// One combinational op's evaluation over all lanes, bound by
  /// `classify`: the sweep makes one indirect call per op.
  using Run = void (*)(BatchedSim&, const CombOp&);

  struct Slot {
    std::uint32_t width;
    std::size_t offset;
  };
  struct CombOp {
    Run run;
    ir::UnitKind kind;
    ops::BinOp binop;
    ops::UnOp unop;
    std::uint32_t mux_inputs;
    std::uint64_t value;
    /// Wire indices of the output and of the inputs, in
    /// ir::comb_input_wires order.
    std::size_t out;
    std::vector<std::size_t> ins;
    /// Storage offsets of the output and the first two inputs, and the
    /// kernel arguments, resolved once for the wide loops.
    std::size_t at_out;
    std::size_t at_a = kNone;
    std::size_t at_b = kNone;
    std::uint64_t sa = 0;
    std::uint64_t sb = 0;
    std::uint64_t mask;
    /// Memory read ports: the memory's image in each lane.
    mem::MemoryImage* const* images = nullptr;
  };
  struct RegOp {
    std::size_t q;
    std::size_t d;
    std::uint64_t reset;
    /// Packed (1-bit with N lanes): samples and commits word-parallel.
    bool word;
    /// The packed lane words of `en` and `rst`; a register without one
    /// reads constant all-ones / all-zero words instead.
    const std::uint64_t* en_words;
    const std::uint64_t* rst_words;
    /// Where its sampled next value starts in reg_scratch_.
    std::size_t scratch = 0;
  };
  struct PipeOp {
    std::size_t out;
    std::size_t a;
    std::size_t b;
    ops::BinOp binop;
    std::uint64_t sa;
    std::uint64_t sb;
    std::uint64_t mask;
    /// `latency` lane rows: each edge writes the fresh products into row
    /// `head`, advances it, and commits the row written `latency - 1`
    /// edges ago, now at `head`.
    std::size_t latency;
    std::vector<std::uint64_t> ring;
    std::size_t head = 0;
  };
  struct WriteOp {
    std::size_t addr;
    std::size_t din;
    std::size_t we;
    mem::MemoryImage* const* images;
    std::string name;
  };
  struct MemWrite {
    mem::MemoryImage* image;
    std::size_t lane;
    std::uint64_t address;
    std::uint64_t data;
  };

  /// Lane and packed-word counts; compile-time 1 in the one-lane layout,
  /// so its lane loops fold to straight-line code.
  std::size_t lanes() const { return kOneLane ? 1 : lanes_; }
  std::size_t words() const { return kOneLane ? 1 : words_; }

  std::size_t index_of(const std::string& wire) const {
    return wire_index_.at(wire);
  }

  /// With N lanes a 1-bit wire packs 64 lanes per word.
  bool packed(std::size_t wire) const {
    return !kOneLane && slots_[wire].width == 1;
  }

  Run classify(const CombOp& op) const {
    auto wide = [&](std::size_t wire) { return !packed(wire); };
    switch (op.kind) {
      case ir::UnitKind::kBinOp:
        if (packed(op.out) && packed(op.ins[0]) && packed(op.ins[1]) &&
            (op.binop == ops::BinOp::kAnd || op.binop == ops::BinOp::kOr ||
             op.binop == ops::BinOp::kXor)) {
          return ops::visit_binop(
              op.binop, []<auto kernel>() -> Run { return &word_bin<kernel>; });
        }
        if (wide(op.ins[0]) && wide(op.ins[1])) {
          // A comparison of wide operands may land in a packed 1-bit out;
          // everything else needs the out unpacked too.
          if (!packed(op.out)) {
            return ops::visit_binop(op.binop, []<auto kernel>() -> Run {
              return &wide_bin<kernel>;
            });
          }
          if (ops::is_comparison(op.binop)) {
            return ops::visit_binop(op.binop, []<auto kernel>() -> Run {
              return &wide_cmp<kernel>;
            });
          }
        }
        return &lane_loop;
      case ir::UnitKind::kUnOp:
        if (packed(op.out) && packed(op.ins[0])) {
          // NOT is the only unop that is not the identity on one bit.
          return op.unop == ops::UnOp::kNot ? &word_un<ops::fti_not>
                                            : &word_un<ops::fti_pass>;
        }
        if (wide(op.ins[0]) && wide(op.out)) {
          return ops::visit_unop(
              op.unop, []<auto kernel>() -> Run { return &wide_un<kernel>; });
        }
        return &lane_loop;
      case ir::UnitKind::kConst:
        return packed(op.out) ? &word_const : &wide_const;
      case ir::UnitKind::kMux: {
        if (op.mux_inputs == 2 && packed(op.out) && packed(op.ins[0]) &&
            packed(op.ins[1]) && packed(op.ins[2])) {
          return &word_mux;
        }
        // The select may be packed or unpacked; the data inputs and the
        // out must all be unpacked so lanes read contiguous words.
        bool wide_data = wide(op.out);
        for (std::uint32_t i = 0; wide_data && i < op.mux_inputs; ++i) {
          wide_data = wide(op.ins[1 + i]);
        }
        return wide_data ? &wide_mux : &lane_loop;
      }
      case ir::UnitKind::kMemPort:
        return wide(op.out) ? &wide_mem : &lane_loop;
      default:
        return &lane_loop;
    }
  }

  /// Where a wire's words start.  In the one-lane layout every wire is
  /// one word in declaration order, so that is its index.
  std::size_t offset(std::size_t wire) const {
    return kOneLane ? wire : slots_[wire].offset;
  }

  std::uint64_t get(std::size_t wire, std::size_t lane) const {
    if (packed(wire)) {
      return (vals_[slots_[wire].offset + lane / 64] >> (lane % 64)) & 1u;
    }
    return vals_[offset(wire) + lane];
  }

  /// Stores a value already masked to the wire's width.
  void set(std::size_t wire, std::size_t lane, std::uint64_t value) {
    if (packed(wire)) {
      std::uint64_t bit = 1ull << (lane % 64);
      std::uint64_t& word = vals_[slots_[wire].offset + lane / 64];
      word = value != 0 ? (word | bit) : (word & ~bit);
    } else {
      vals_[offset(wire) + lane] = value;
    }
  }

  /// Change-detecting write used for clocked wires only (controls,
  /// register q, pipe outs): count an event and append to the lane's
  /// trace on change.
  void commit(std::size_t wire, std::size_t lane, std::uint64_t value) {
    std::uint64_t masked = value & Bits::mask(slots_[wire].width);
    if (get(wire, lane) == masked) {
      return;
    }
    set(wire, lane, masked);
    ++events_[lane];
    if (!trace_slot_.empty() && trace_slot_[wire] != kNone) {
      lane_traces_[lane][trace_slot_[wire]].push_back(masked);
    }
  }

  /// Word-parallel commit of a packed wire: store the next lane words,
  /// then walk the changed bits for per-lane event/trace bookkeeping.
  /// `next` must already be frozen on inactive lanes and zero in the
  /// padding bits.
  void commit_packed(std::size_t wire, const std::uint64_t* next) {
    std::uint64_t* words = at(wire);
    std::size_t trace = trace_slot_.empty() ? kNone : trace_slot_[wire];
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t changed = words[w] ^ next[w];
      if (changed == 0) {
        continue;
      }
      words[w] = next[w];
      while (changed != 0) {
        std::size_t bit = static_cast<std::size_t>(std::countr_zero(changed));
        changed &= changed - 1;
        std::size_t lane = w * 64 + bit;
        ++events_[lane];
        if (trace != kNone) {
          lane_traces_[lane][trace].push_back((next[w] >> bit) & 1u);
        }
      }
    }
  }

  /// Calls fn(lane) for every active lane whose bit is set in the packed
  /// lane words `mask`.  Each word is read before its lanes are visited,
  /// so fn may retire lanes.
  template <typename Fn>
  void for_each_set(const std::uint64_t* mask, Fn&& fn) {
    for (std::size_t w = 0; w < words(); ++w) {
      std::uint64_t word = mask[w] & active(w);
      while (word != 0) {
        std::size_t bit = static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        fn(w * 64 + bit);
      }
    }
  }

  template <typename Fn>
  void for_each_active(Fn&& fn) {
    for_each_set(active_.data(), fn);
  }

  /// Lane word `w` of the active mask.  A one-lane run stops as soon as
  /// its lane finishes, so that lane is active wherever this is read.
  std::uint64_t active(std::size_t w) const {
    return kOneLane ? 1 : active_[w];
  }

  std::uint64_t word_mask(std::size_t w) const {
    return w + 1 == words_ ? tail_mask_ : ~0ull;
  }

  /// A wire's storage: its packed lane words or its per-lane words.
  std::uint64_t* at(std::size_t wire) { return vals_.data() + offset(wire); }

  // The Run targets.  Word- and wide-classified ops evaluate every lane
  // (finished lanes recompute the same frozen values, which is harmless
  // and branch-free); the lane loop skips finished lanes.

  /// 1-bit AND/OR/XOR over packed lane words (the kernels preserve zero
  /// padding).
  template <auto kernel>
  static void word_bin(BatchedSim& sim, const CombOp& op) {
    const std::uint64_t* a = sim.vals_.data() + op.at_a;
    const std::uint64_t* b = sim.vals_.data() + op.at_b;
    std::uint64_t* out = sim.vals_.data() + op.at_out;
    for (std::size_t w = 0; w < sim.words(); ++w) {
      out[w] = kernel(a[w], b[w], 0, 0, ~0ull);
    }
  }

  /// 1-bit NOT or copy over packed lane words, tail-masked.
  template <auto kernel>
  static void word_un(BatchedSim& sim, const CombOp& op) {
    const std::uint64_t* a = sim.vals_.data() + op.at_a;
    std::uint64_t* out = sim.vals_.data() + op.at_out;
    for (std::size_t w = 0; w < sim.words(); ++w) {
      out[w] = kernel(a[w], 0, sim.word_mask(w));
    }
  }

  static void word_const(BatchedSim& sim, const CombOp& op) {
    std::uint64_t* out = sim.vals_.data() + op.at_out;
    for (std::size_t w = 0; w < sim.words(); ++w) {
      out[w] = (op.value & 1u) != 0 ? sim.word_mask(w) : 0;
    }
  }

  /// 2-way mux, 1-bit select and data.
  static void word_mux(BatchedSim& sim, const CombOp& op) {
    const std::uint64_t* sel = sim.vals_.data() + op.at_a;
    const std::uint64_t* in0 = sim.vals_.data() + op.at_b;
    const std::uint64_t* in1 = sim.at(op.ins[2]);
    std::uint64_t* out = sim.vals_.data() + op.at_out;
    for (std::size_t w = 0; w < sim.words(); ++w) {
      out[w] = (sel[w] & in1[w]) | (~sel[w] & in0[w]);
    }
  }

  /// Binop over unpacked operands into an unpacked out: a tight loop over
  /// the contiguous lane words.
  template <auto kernel>
  static void wide_bin(BatchedSim& sim, const CombOp& op) {
    const std::uint64_t* a = sim.vals_.data() + op.at_a;
    const std::uint64_t* b = sim.vals_.data() + op.at_b;
    std::uint64_t* out = sim.vals_.data() + op.at_out;
    // Locals, so the stores through `out` cannot force reloads.
    const std::uint64_t sa = op.sa;
    const std::uint64_t sb = op.sb;
    const std::uint64_t mask = op.mask;
    const std::size_t lanes = sim.lanes();
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      out[lane] = kernel(a[lane], b[lane], sa, sb, mask);
    }
  }

  /// Comparison of unpacked operands assembled bit-by-bit into the
  /// packed 1-bit out words.  Padding bits above lane N-1 stay zero by
  /// construction.
  template <auto kernel>
  static void wide_cmp(BatchedSim& sim, const CombOp& op) {
    const std::uint64_t* a = sim.vals_.data() + op.at_a;
    const std::uint64_t* b = sim.vals_.data() + op.at_b;
    std::uint64_t* out = sim.vals_.data() + op.at_out;
    const std::uint64_t sa = op.sa;
    const std::uint64_t sb = op.sb;
    const std::size_t lanes = sim.lanes();
    for (std::size_t w = 0; w < sim.words(); ++w) {
      std::uint64_t word = 0;
      const std::size_t base = w * 64;
      const std::size_t count = base + 64 <= lanes ? 64 : lanes - base;
      for (std::size_t bit = 0; bit < count; ++bit) {
        word |= kernel(a[base + bit], b[base + bit], sa, sb, 1) << bit;
      }
      out[w] = word;
    }
  }

  template <auto kernel>
  static void wide_un(BatchedSim& sim, const CombOp& op) {
    const std::uint64_t* a = sim.vals_.data() + op.at_a;
    std::uint64_t* out = sim.vals_.data() + op.at_out;
    const std::uint64_t sa = op.sa;
    const std::uint64_t mask = op.mask;
    const std::size_t lanes = sim.lanes();
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      out[lane] = kernel(a[lane], sa, mask);
    }
  }

  static void wide_const(BatchedSim& sim, const CombOp& op) {
    std::uint64_t* out = sim.vals_.data() + op.at_out;
    const std::uint64_t value = op.value & op.mask;
    const std::size_t lanes = sim.lanes();
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      out[lane] = value;
    }
  }

  /// N-way mux with unpacked data and out; the select may be packed or
  /// unpacked.
  static void wide_mux(BatchedSim& sim, const CombOp& op) {
    std::uint64_t* out = sim.vals_.data() + op.at_out;
    for (std::size_t lane = 0; lane < sim.lanes(); ++lane) {
      std::uint64_t sel = sim.get(op.ins[0], lane);
      out[lane] = sel < op.mux_inputs ? sim.at(op.ins[1 + sel])[lane] : 0;
    }
  }

  /// Memory read port into an unpacked out.  Finished lanes' memories
  /// are frozen, so the all-lane read reproduces stored values.
  static void wide_mem(BatchedSim& sim, const CombOp& op) {
    std::uint64_t* out = sim.vals_.data() + op.at_out;
    const std::uint64_t mask = op.mask;
    const std::size_t lanes = sim.lanes();
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      std::uint64_t address = sim.get(op.ins[0], lane);
      const mem::MemoryImage& image = *op.images[lane];
      out[lane] = address < image.depth() ? image.words()[address] & mask : 0;
    }
  }

  /// Mixed packed/unpacked operands: each active lane on its own.
  static void lane_loop(BatchedSim& sim, const CombOp& op) {
    sim.for_each_active([&](std::size_t lane) {
      sim.set(op.out, lane, lane_value(sim, op, lane) & op.mask);
    });
  }

  static std::uint64_t lane_value(const BatchedSim& sim, const CombOp& op,
                                  std::size_t lane) {
    switch (op.kind) {
      case ir::UnitKind::kBinOp:
        return ops::visit_binop(op.binop, [&]<auto kernel>() {
          return kernel(sim.get(op.ins[0], lane), sim.get(op.ins[1], lane),
                        op.sa, op.sb, op.mask);
        });
      case ir::UnitKind::kUnOp:
        return ops::visit_unop(op.unop, [&]<auto kernel>() {
          return kernel(sim.get(op.ins[0], lane), op.sa, op.mask);
        });
      case ir::UnitKind::kMux: {
        std::uint64_t sel = sim.get(op.ins[0], lane);
        return sel < op.mux_inputs ? sim.get(op.ins[1 + sel], lane) : 0;
      }
      case ir::UnitKind::kMemPort: {
        const mem::MemoryImage& image = *op.images[lane];
        std::uint64_t address = sim.get(op.ins[0], lane);
        return address < image.depth() ? image.words()[address] : 0;
      }
      default:
        break;
    }
    FTI_ASSERT(false, "no lane loop for this unit");
  }

  /// Brings every combinational output up to date; one delta cycle per
  /// pass.
  void sweep() {
    if (engine_.settle() == Settle::kRankedPass) {
      // Every op's inputs are already final, so one pass settles it: no
      // change detection, no second pass.
      lane_sweeps_ += active_count_;
      for (const CombOp& op : comb_) {
        op.run(*this, op);
      }
      return;
    }
    // Until stable; one lane, so an op's output is its one word.
    for (std::uint32_t pass = 0; pass < options_.max_sweeps; ++pass) {
      ++passes_;
      bool changed = false;
      for (const CombOp& op : comb_) {
        const std::uint64_t before = vals_[op.at_out];
        op.run(*this, op);
        if (vals_[op.at_out] != before) {
          ++comb_events_;
          changed = true;
        }
      }
      if (!changed) {
        return;
      }
    }
    throw util::SimError(engine_.name() + ": combinational loop in datapath '" +
                         config_.datapath.name + "': no fixpoint after " +
                         std::to_string(options_.max_sweeps) + " sweeps");
  }

  /// Two-phase edge identical in observable order to the reference
  /// interpreter: sample registers, pipeline stages and memory writes
  /// against settled pre-edge values (out-of-range writes throw here,
  /// before any commit), step each lane's FSM on pre-edge statuses, then
  /// commit.  Only active lanes commit -- a finished lane's registers,
  /// memories and FSM freeze.
  ///
  /// Work is proportional to what changes: a multi-bit register samples
  /// and commits only the lanes in its word-parallel load mask, a write
  /// port visits only the lanes with `we` high, and a lane's transition
  /// commits only its control delta.  ir::validate fixes `we` at one
  /// bit, so its words are a packed lane mask in either layout.
  void clock_edge() {
    loading_.clear();
    for (std::size_t r = 0; r < registers_.size(); ++r) {
      const RegOp& reg = registers_[r];
      std::uint64_t* next = reg_scratch_.data() + reg.scratch;
      const std::uint64_t* en = reg.en_words;
      const std::uint64_t* rst = reg.rst_words;
      // A register with enable and reset low in every active lane -- the
      // common case -- keeps its value; skip it before any other work.
      std::uint64_t wake = 0;
      for (std::size_t w = 0; w < words(); ++w) {
        wake |= (en[w] | rst[w]) & active(w);
      }
      if (wake == 0) {
        continue;
      }
      std::uint64_t any = 0;
      if (!kOneLane && reg.word) {
        const std::uint64_t* q = at(reg.q);
        const std::uint64_t* d = at(reg.d);
        std::uint64_t reset_fill = (reg.reset & 1u) != 0 ? ~0ull : 0;
        for (std::size_t w = 0; w < words(); ++w) {
          std::uint64_t loaded = (en[w] & d[w]) | (~en[w] & q[w]);
          std::uint64_t value =
              (rst[w] & reset_fill & word_mask(w)) | (~rst[w] & loaded);
          next[w] = (active(w) & value) | (~active(w) & q[w]);
          any |= next[w] ^ q[w];
        }
      } else {
        const std::uint64_t* d = at(reg.d);
        std::uint64_t* load = reg_load_.data() + r * words();
        for (std::size_t w = 0; w < words(); ++w) {
          std::uint64_t rst_w = rst[w] & active(w);
          std::uint64_t take_d = en[w] & active(w) & ~rst_w;
          load[w] = rst_w | take_d;
          any |= load[w];
          for (; rst_w != 0; rst_w &= rst_w - 1) {
            next[w * 64 + std::countr_zero(rst_w)] = reg.reset;
          }
          for (; take_d != 0; take_d &= take_d - 1) {
            std::size_t lane = w * 64 + std::countr_zero(take_d);
            next[lane] = d[lane];
          }
        }
      }
      if (any != 0) {
        loading_.push_back(r);
      }
    }
    for (PipeOp& pipe : pipelined_) {
      std::uint64_t* entry = pipe.ring.data() + pipe.head * lanes();
      ops::visit_binop(pipe.binop, [&]<auto kernel>() {
        for_each_active([&](std::size_t lane) {
          entry[lane] = kernel(get(pipe.a, lane), get(pipe.b, lane), pipe.sa,
                               pipe.sb, pipe.mask);
        });
      });
      pipe.head = (pipe.head + 1) % pipe.latency;
    }
    mem_writes_.clear();
    for (const WriteOp& write : writes_) {
      for_each_set(at(write.we), [&](std::size_t lane) {
        std::uint64_t address = get(write.addr, lane);
        mem::MemoryImage* image = write.images[lane];
        if (address >= image->depth()) {
          throw util::SimError(
              engine_.name() + ": sram '" + write.name + "'" +
              (engine_.lockstep_lanes() ? " lane " + std::to_string(lane)
                                        : "") +
              " write to address " + std::to_string(address) +
              " beyond depth " + std::to_string(image->depth()));
        }
        mem_writes_.push_back({image, lane, address, get(write.din, lane)});
      });
    }
    // Every sample above is taken, so a lane's control delta can commit
    // as soon as its transition fires.
    for_each_active([&](std::size_t lane) {
      const CompiledFsm::State& current = fsm_.states[state_[lane]];
      for (std::size_t t = 0; t < current.transitions.size(); ++t) {
        const CompiledFsm::Transition& transition = current.transitions[t];
        bool taken = true;
        for (const auto& [status, expected] : transition.literals) {
          if ((get(status, lane) == 0) == expected) {
            taken = false;
            break;
          }
        }
        if (taken) {
          ++taken_[lane][state_[lane]][t];
          state_[lane] = transition.target;
          ++visits_[lane][state_[lane]];
          for (const auto& [wire, value] : transition.delta) {
            commit(wire, lane, value);
          }
          break;
        }
      }
    });
    for (std::size_t r : loading_) {
      const RegOp& reg = registers_[r];
      const std::uint64_t* next = reg_scratch_.data() + reg.scratch;
      if (!kOneLane && reg.word) {
        commit_packed(reg.q, next);
        continue;
      }
      std::uint64_t* q = at(reg.q);
      std::size_t trace = trace_slot_.empty() ? kNone : trace_slot_[reg.q];
      for_each_set(reg_load_.data() + r * words(), [&](std::size_t lane) {
        if (q[lane] == next[lane]) {
          return;
        }
        q[lane] = next[lane];
        ++events_[lane];
        if (trace != kNone) {
          lane_traces_[lane][trace].push_back(next[lane]);
        }
      });
    }
    for (const PipeOp& pipe : pipelined_) {
      const std::uint64_t* front = pipe.ring.data() + pipe.head * lanes();
      for_each_active(
          [&](std::size_t lane) { commit(pipe.out, lane, front[lane]); });
    }
    for (const MemWrite& write : mem_writes_) {
      write.image->write(write.address, write.data);
      ++events_[write.lane];
    }
  }

  /// Snapshots one finished lane.  All lanes share the cycle counter and
  /// advanced in lockstep from cycle zero, so `cycle_` at finish time IS
  /// this lane's cycle count.  A ranked pass is one delta cycle per
  /// cycle, so its stats are closed forms of it; settle-until-stable
  /// counted its passes and combinational events as it went.
  void finish(sim::EnginePartition& result, std::size_t lane,
              sim::Kernel::StopReason reason) {
    const std::uint64_t passes =
        engine_.settle() == Settle::kRankedPass ? cycle_ + 1 : passes_;
    result.reason = reason;
    result.cycles = cycle_;
    result.stats.events = events_[lane] + comb_events_;
    result.stats.delta_cycles = passes;
    result.stats.evaluations =
        passes * comb_.size() +
        cycle_ * (registers_.size() + pipelined_.size() + writes_.size());
    result.stats.timesteps = cycle_ + 1;
    result.stats.end_time = cycle_ * options_.clock_period;
    for (std::size_t t = 0; t < trace_names_.size(); ++t) {
      result.finals.emplace(trace_names_[t],
                            get(index_of(trace_names_[t]), lane));
      result.traces[trace_names_[t]] = std::move(lane_traces_[lane][t]);
    }
    result.coverage =
        coverage_from_counts(config_.fsm, visits_[lane], taken_[lane]);
    active_[lane / 64] &= ~(1ull << (lane % 64));
    --active_count_;
  }

  const ir::Configuration& config_;
  const sim::EngineRunOptions& options_;
  const SweepEngine& engine_;
  std::size_t lanes_;
  std::size_t words_;
  std::uint64_t tail_mask_;
  std::map<std::string, std::size_t> wire_index_;
  std::vector<Slot> slots_;
  std::vector<std::uint64_t> vals_;
  std::vector<std::uint64_t> ones_;
  std::vector<std::uint64_t> zeros_;
  /// Per memory, its image in each lane (a map, so the arrays the ops
  /// point into never move).
  std::map<std::string, std::vector<mem::MemoryImage*>> lane_images_;
  std::vector<CombOp> comb_;
  std::vector<RegOp> registers_;
  std::vector<PipeOp> pipelined_;
  std::vector<WriteOp> writes_;
  std::vector<std::uint64_t> reg_scratch_;
  std::vector<std::uint64_t> reg_load_;
  /// The registers sampled at this edge with something to commit.
  std::vector<std::size_t> loading_;
  std::vector<MemWrite> mem_writes_;
  CompiledFsm fsm_;
  std::size_t done_index_;
  std::vector<std::size_t> state_;
  std::vector<std::vector<std::uint64_t>> visits_;
  std::vector<std::vector<std::vector<std::uint64_t>>> taken_;
  std::vector<std::size_t> trace_slot_;
  std::vector<std::string> trace_names_;
  std::vector<std::vector<std::vector<std::uint64_t>>> lane_traces_;
  std::vector<std::uint64_t> events_;
  std::vector<std::uint64_t> active_;
  std::size_t active_count_ = 0;
  std::uint64_t cycle_ = 0;
  std::uint64_t lane_sweeps_ = 0;
  /// Settle-until-stable only: passes made and combinational outputs
  /// changed, over the whole run.
  std::uint64_t passes_ = 0;
  std::uint64_t comb_events_ = 0;
};

/// One configuration's run over `pools`, one partition per lane.
struct LaneRuns {
  std::vector<sim::EnginePartition> runs;
  std::uint64_t lane_sweeps = 0;
  /// Depth of the ranked schedule (0 for settle-until-stable).
  std::size_t depth = 0;
};

/// Runs `node` on `engine`'s configuration: the ranked schedule or
/// declaration order as the sweep, and the storage layout the lane count
/// calls for.
LaneRuns run_lanes(const SweepEngine& engine, const ir::Design& design,
                   const std::string& node,
                   const std::vector<mem::MemoryPool*>& pools,
                   const sim::EngineRunOptions& options) {
  const ir::Configuration& config = design.configuration(node);
  LaneRuns result;
  std::vector<const ir::Unit*> order;
  if (engine.settle() == Settle::kRankedPass) {
    SharedSchedule schedule = acquire_levelized_schedule(design, node);
    order.reserve(schedule->steps.size());
    for (const LevelizedSchedule::Step& step : schedule->steps) {
      order.push_back(step.unit);
    }
    result.depth = schedule->depth;
  } else {
    for (const ir::Unit& unit : config.datapath.units) {
      if (ir::is_combinational(unit)) {
        order.push_back(&unit);
      }
    }
  }
  auto simulate = [&]<bool kOneLane>() {
    BatchedSim<kOneLane> simulator(config, pools, options, order, engine);
    result.runs = simulator.run(node);
    result.lane_sweeps = simulator.lane_sweeps();
  };
  if (pools.size() == 1) {
    simulate.template operator()<true>();
  } else {
    simulate.template operator()<false>();
  }
  return result;
}

}  // namespace

SweepEngine::SweepEngine(std::string name, Settle settle, bool lockstep_lanes)
    : name_(std::move(name)),
      settle_(settle),
      lockstep_lanes_(lockstep_lanes) {
  FTI_ASSERT(!lockstep_lanes || settle == Settle::kRankedPass,
             "settle-until-stable runs one lane");
}

sim::EnginePartition SweepEngine::run_partition(
    const ir::Design& design, const std::string& node, mem::MemoryPool& pool,
    const sim::EngineRunOptions& options, std::size_t partition_index) {
  (void)partition_index;
  util::Stopwatch watch;
  LaneRuns lanes = run_lanes(*this, design, node, {&pool}, options);
  sim::EnginePartition run = std::move(lanes.runs.front());
  run.wall_seconds = watch.seconds();
  if (obs::enabled()) {
    if (lockstep_lanes_) {
      obs::counter("engine.lanes").inc();
      obs::counter("engine.lane_sweeps").add(lanes.lane_sweeps);
    } else if (settle_ == Settle::kRankedPass) {
      // Each delta is one full sweep of the levelized schedule, so the
      // number of levels visited is sweeps x schedule depth.
      obs::counter("engine.levels_swept")
          .add(run.stats.delta_cycles * lanes.depth);
    }
  }
  return run;
}

std::vector<sim::EngineResult> SweepEngine::run_batch(
    const ir::Design& design, const std::vector<mem::MemoryPool*>& lanes,
    const sim::EngineRunOptions& options) {
  if (!lockstep_lanes_) {
    return sim::Engine::run_batch(design, lanes, options);
  }
  check_batch_lanes(lanes);
  ir::validate(design);
  util::Stopwatch watch;
  std::vector<sim::EngineResult> results(lanes.size());
  for (sim::EngineResult& result : results) {
    result.completed = true;
    result.has_wire_data = options.collect_wire_data;
  }
  // Lanes that miss a partition's done signal stop there (completed ==
  // false), exactly like PartitionedEngine::run; the rest carry their
  // pools on through the later partitions together.
  std::vector<std::size_t> live(lanes.size());
  std::iota(live.begin(), live.end(), std::size_t{0});
  std::uint64_t lane_sweeps = 0;
  std::uint64_t lane_cycles = 0;
  std::string node = design.rtg.initial;
  while (!node.empty() && !live.empty()) {
    std::vector<mem::MemoryPool*> pools;
    pools.reserve(live.size());
    for (std::size_t lane : live) {
      pools.push_back(lanes[lane]);
    }
    std::vector<sim::EnginePartition> runs;
    {
      obs::ScopedSpan span(name() + ":" + node, "engine");
      util::Stopwatch partition_watch;
      LaneRuns batch = run_lanes(*this, design, node, pools, options);
      runs = std::move(batch.runs);
      double share =
          partition_watch.seconds() / static_cast<double>(runs.size());
      for (sim::EnginePartition& run : runs) {
        run.wall_seconds = share;
      }
      lane_sweeps += batch.lane_sweeps;
    }
    if (obs::enabled()) {
      obs::counter("engine.lanes").add(runs.size());
    }
    std::vector<std::size_t> next_live;
    next_live.reserve(live.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
      std::size_t lane = live[i];
      lane_cycles += runs[i].cycles;
      bool done = runs[i].reason == sim::Kernel::StopReason::kDoneNet;
      results[lane].partitions.push_back(std::move(runs[i]));
      if (done) {
        next_live.push_back(lane);
      } else {
        results[lane].completed = false;
      }
    }
    live = std::move(next_live);
    node = design.rtg.successor(node);
  }
  if (obs::enabled()) {
    obs::counter("engine.lane_sweeps").add(lane_sweeps);
    double wall = watch.seconds();
    if (wall > 0.0) {
      // Lane-cycles per second: the batch's aggregate simulated cycle
      // throughput across all lanes.
      obs::gauge("engine.lanes_per_sec")
          .set(static_cast<double>(lane_cycles) / wall);
    }
  }
  return results;
}

}  // namespace fti::elab
