// The one interpreter behind every statically scheduled engine: a sweep
// executor over N lockstep stimulus lanes, in three configurations.
//
//  * "levelized" -- one lane, one pass per cycle over the rank-ordered
//    schedule of levelized.hpp (no event wheel, no delta cycles).
//  * "naive"     -- one lane, E3's full-evaluation baseline: passes in
//    declaration order with change detection until one changes nothing,
//    SimError after EngineRunOptions::max_sweeps passes (a combinational
//    loop).  It reports no wire data.
//  * "batched"   -- the levelized pass; run_batch sweeps all lanes at once.
//
// The storage layout follows the lane count.  With one lane every wire is
// one uint64_t word (a 1-bit wire's packed and unpacked words coincide:
// lane 0 is bit 0), so every op runs straight on the ops/word_ops.hpp
// kernels.  With N lanes storage is structure-of-arrays: a 1-bit wire
// packs 64 lanes per word, so 1-bit logic evaluates 64 stimulus vectors
// per word op; a wider wire holds one word per lane.  Registers,
// pipelined units, memory ports and the FSM keep per-lane state.
//
// Lane semantics (the contract the fuzz lane checker and the harness
// rely on):
//  * lanes never interact: lane k's results are a pure function of lane
//    k's memory pool contents, equal to a one-lane run's (the parity tests
//    hold every lane to the event engine bit for bit);
//  * lanes run in lockstep against one shared cycle counter, but a lane
//    that raises done freezes (registers, memories, FSM) while the rest
//    continue, so per-lane cycle counts and stop reasons match
//    independent runs;
//  * a SimError raised by any lane (out-of-range memory write) aborts
//    the whole batch.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "fti/elab/engines.hpp"

namespace fti::elab {

/// How each cycle brings the combinational logic up to date.
enum class Settle {
  /// One pass over the rank-ordered schedule.
  kRankedPass,
  /// Passes in declaration order with change detection until one
  /// changes nothing.  One lane only.
  kUntilStable,
};

class SweepEngine final : public PartitionedEngine {
 public:
  /// `lockstep_lanes`: run_batch sweeps every lane at once (the
  /// "batched" configuration); otherwise it runs one lane at a time.
  SweepEngine(std::string name, Settle settle, bool lockstep_lanes);

  const std::string& name() const override { return name_; }
  bool reports_wire_data() const override {
    return settle_ == Settle::kRankedPass;
  }
  Settle settle() const { return settle_; }
  bool lockstep_lanes() const { return lockstep_lanes_; }

  sim::EnginePartition run_partition(const ir::Design& design,
                                     const std::string& node,
                                     mem::MemoryPool& pool,
                                     const sim::EngineRunOptions& options,
                                     std::size_t partition_index) override;
  /// With lockstep lanes, all lanes in one sweep per cycle; lane
  /// wall_seconds report an even share of the batch, so summing over
  /// lanes gives the batch wall time.
  std::vector<sim::EngineResult> run_batch(
      const ir::Design& design, const std::vector<mem::MemoryPool*>& lanes,
      const sim::EngineRunOptions& options = {}) override;

 private:
  std::string name_;
  Settle settle_;
  bool lockstep_lanes_;
};

}  // namespace fti::elab
