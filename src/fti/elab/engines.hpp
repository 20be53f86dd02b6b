// Built-in execution engines behind the sim::Engine interface.
//
// Every backend shares one RTG loop (PartitionedEngine):
//  * EventEngine -- the event-driven kernel (elaborate to a netlist of
//    components, calendar-queue scheduling).  The paper's engine; the
//    only one with net tracing.
//  * SweepEngine -- the statically scheduled executor behind "levelized",
//    "naive" and "batched" (batched.hpp).
//  * CompiledEngine -- the levelized sweep as native code (compiled.hpp).
//
// The fuzzer's reference interpreter implements the same interface from
// the fuzz layer (fuzz/reference.hpp).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fti/elab/rtg_exec.hpp"
#include "fti/ir/rtg.hpp"
#include "fti/mem/storage.hpp"
#include "fti/sim/engine.hpp"

namespace fti::elab {

/// The wires engines report finals/traces for: register q wires first,
/// then control wires, in datapath declaration order.  Clocked wires are
/// glitch-free by construction, hence comparable across scheduling
/// strategies; combinational wires are not (engines settle them in
/// different orders).
std::vector<std::string> traced_wires(const ir::Datapath& datapath);

/// Shared temporal-partition loop: validate the design, run each RTG node
/// through run_partition, stop early (completed == false) when one misses
/// its done signal.  Backends implement run_partition only.
class PartitionedEngine : public sim::Engine {
 public:
  sim::EngineResult run(const ir::Design& design, mem::MemoryPool& pool,
                        const sim::EngineRunOptions& options = {}) override;
};

class EventEngine final : public PartitionedEngine {
 public:
  const std::string& name() const override;
  bool supports_tracing() const override { return true; }
  bool reports_wire_data() const override { return true; }
  sim::EnginePartition run_partition(const ir::Design& design,
                                     const std::string& node,
                                     mem::MemoryPool& pool,
                                     const sim::EngineRunOptions& options,
                                     std::size_t partition_index) override;
};

/// Registers "event", "naive", "levelized", "batched" and "compiled"
/// with the sim registry.
/// Idempotent and thread-safe; make_engine/engine_names below call it, so
/// most callers never need to.
void register_builtin_engines();

/// register_builtin_engines(), then sim::make_engine(name) -- throws
/// SimError listing the registered names when `name` is unknown.
std::unique_ptr<sim::Engine> make_engine(const std::string& name);

/// register_builtin_engines(), then sim::engine_names().
std::vector<std::string> engine_names();

}  // namespace fti::elab
