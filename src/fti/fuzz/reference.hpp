// Cycle-level reference interpreter of the IR -- the fuzzer's golden
// model.
//
// A second, structurally independent implementation of the design
// semantics: levelized settle-sweeps over the combinational sea plus a
// two-phase clock edge (sample everything pre-edge, then commit), with no
// event queue, no deltas and no component objects.  Any divergence from
// the event-driven sim::Kernel elaboration is therefore a bug in one of
// the engines, the elaborator, or the IR itself -- exactly the
// cross-checking the paper performs between simulated architectures and
// the executed input algorithm, turned inward on the infrastructure.
//
// Beyond cycle counts and memories, this engine exposes the observables
// the differential driver compares: final register/control values per
// partition and the per-wire value-change traces of every clocked wire
// (register q outputs and FSM-driven controls -- the wires that are
// glitch-free by construction and thus comparable across scheduling
// strategies).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <string>
#include <vector>

#include "fti/elab/engines.hpp"
#include "fti/ir/rtg.hpp"
#include "fti/mem/storage.hpp"
#include "fti/ops/alu.hpp"

namespace fti::fuzz {

/// What sets the reference apart from the other engines.  Its cycle and
/// settle-sweep budgets are sim::EngineRunOptions', like every engine's.
struct ReferenceOptions {
  /// Override for binary-FU semantics.  Tests inject operator bugs here
  /// (e.g. a flipped carry) to prove the differential harness catches and
  /// shrinks them; null means ops::eval_binop.
  std::function<sim::Bits(ops::BinOp, const sim::Bits&, const sim::Bits&,
                          std::uint32_t)>
      eval_binop;
};

struct ReferencePartition {
  std::string node;
  std::uint64_t cycles = 0;
  bool completed = false;
  /// Final value of every register q wire and control wire, post-run.
  std::map<std::string, std::uint64_t> finals;
  /// Value-change sequence per clocked wire (initial zero omitted), the
  /// same stream a sim::Probe on that wire records.
  std::map<std::string, std::vector<std::uint64_t>> traces;
};

struct ReferenceResult {
  bool completed = false;
  std::vector<ReferencePartition> partitions;

  std::uint64_t total_cycles() const;
};

/// Runs the whole design over `pool` (all temporal partitions, stopping
/// early like the RTG executor when one exhausts its cycle budget).
ReferenceResult run_reference(const ir::Design& design, mem::MemoryPool& pool,
                              const sim::EngineRunOptions& run = {},
                              const ReferenceOptions& options = {});

/// The wires whose traces/finals the reference engine reports for one
/// configuration: register q wires first, then control wires, in
/// datapath declaration order.  The differential driver probes exactly
/// this set on the event-kernel side.  (Forwards to elab::traced_wires --
/// every engine shares the definition.)
std::vector<std::string> traced_wires(const ir::Datapath& datapath);

/// The reference interpreter behind the common Engine interface, so the
/// differential driver treats it as just another lane.  Constructed
/// directly when a test injects operator bugs through
/// ReferenceOptions::eval_binop; the registry entry uses defaults.
class ReferenceEngine final : public elab::PartitionedEngine {
 public:
  ReferenceEngine() = default;
  explicit ReferenceEngine(ReferenceOptions options)
      : options_(std::move(options)) {}
  const std::string& name() const override;
  bool reports_wire_data() const override { return true; }
  sim::EnginePartition run_partition(const ir::Design& design,
                                     const std::string& node,
                                     mem::MemoryPool& pool,
                                     const sim::EngineRunOptions& options,
                                     std::size_t partition_index) override;

 private:
  ReferenceOptions options_;
};

/// Registers "reference" (default options) with the sim registry, next to
/// the elab builtins.  Idempotent and thread-safe.
void register_reference_engine();

}  // namespace fti::fuzz
