#include "fti/fuzz/lanes.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <utility>

#include "fti/elab/engines.hpp"
#include "fti/fuzz/diff.hpp"
#include "fti/fuzz/rand.hpp"
#include "fti/fuzz/reference.hpp"
#include "fti/sim/bits.hpp"

namespace fti::fuzz {
namespace {

/// Salt so lane stimulus streams never collide with the per-case design
/// streams derived from the same campaign seed.
constexpr std::uint64_t kLaneSalt = 0x6c616e6573ull;  // "lanes"

/// Total mismatch lines before the report truncates; each diverging lane
/// already caps its own lines via compare_observation_pair.
constexpr std::size_t kMaxReportLines = 50;

Observation observe_reference(const ir::Design& design,
                              mem::MemoryPool& pool,
                              const sim::EngineRunOptions& ropts) {
  ReferenceEngine engine;
  try {
    return observe_result("reference", engine.run(design, pool, ropts),
                          pool);
  } catch (const std::exception& error) {
    Observation obs;
    obs.engine = "reference";
    obs.error = error.what();
    return obs;
  }
}

}  // namespace

void prime_lane_pool(const ir::Design& design, std::uint64_t seed,
                     std::uint32_t lane, mem::MemoryPool& pool) {
  Rng rng(Rng::derive(seed ^ kLaneSalt, lane));
  for (const ir::MemoryDecl& memory : design.memory_requirements()) {
    mem::MemoryImage& image =
        pool.create(memory.name, memory.depth, memory.width);
    for (std::size_t i = 0; i < memory.depth; ++i) {
      image.write(i, rng.u64() & sim::Bits::mask(memory.width));
    }
  }
}

LaneCheckResult check_lanes(const ir::Design& design, std::uint64_t seed,
                            const LaneCheckOptions& options) {
  LaneCheckResult result;
  result.lanes = options.lanes;
  sim::EngineRunOptions ropts;
  ropts.max_cycles_per_partition = options.max_cycles_per_partition;
  ropts.collect_wire_data = true;

  // One batched sweep over all lanes.  deque keeps pool addresses stable
  // (MemoryPool is not movable).
  std::deque<mem::MemoryPool> pools(options.lanes);
  std::vector<mem::MemoryPool*> lanes;
  lanes.reserve(options.lanes);
  for (std::uint32_t lane = 0; lane < options.lanes; ++lane) {
    prime_lane_pool(design, seed, lane, pools[lane]);
    lanes.push_back(&pools[lane]);
  }
  std::unique_ptr<sim::Engine> batched = elab::make_engine("batched");
  std::vector<sim::EngineResult> runs;
  try {
    runs = batched->run_batch(design, lanes, ropts);
  } catch (const std::exception& error) {
    result.ok = false;
    result.mismatches.push_back(std::string("batched run_batch threw: ") +
                                error.what());
    return result;
  }

  // Each lane against its own reference twin over an identically primed
  // pool -- the stimulus regenerates from (seed, lane), so both sides see
  // the same starting contents.
  std::size_t truncated = 0;
  for (std::uint32_t lane = 0; lane < options.lanes; ++lane) {
    Observation got =
        observe_result("batched", std::move(runs[lane]), pools[lane]);
    result.lane_cycles += got.total_cycles;
    mem::MemoryPool twin;
    prime_lane_pool(design, seed, lane, twin);
    Observation want = observe_reference(design, twin, ropts);
    result.max_cycles_observed = std::max(
        {result.max_cycles_observed, got.total_cycles, want.total_cycles});
    for (std::string& line : compare_observation_pair(want, got)) {
      if (result.mismatches.size() >= kMaxReportLines) {
        ++truncated;
        continue;
      }
      result.mismatches.push_back("lane " + std::to_string(lane) + ": " +
                                  line);
    }
  }
  if (truncated > 0) {
    result.mismatches.push_back("... and " + std::to_string(truncated) +
                                " more lane mismatch line(s)");
  }
  result.ok = result.mismatches.empty();
  return result;
}

}  // namespace fti::fuzz
