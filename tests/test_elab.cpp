#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "fti/compiler/hls.hpp"
#include "fti/elab/elaborator.hpp"
#include "fti/elab/engines.hpp"
#include "fti/golden/fdct.hpp"
#include "fti/golden/hamming.hpp"
#include "fti/golden/rng.hpp"
#include "fti/elab/rtg_exec.hpp"
#include "fti/sim/probe.hpp"
#include "fti/sim/vcd.hpp"
#include "fti/util/error.hpp"
#include "test_designs.hpp"

namespace fti::elab {
namespace {

TEST(Elaborator, BuildsAccumulatorNetlist) {
  ir::Configuration config = fti::testing::make_accumulator(5);
  mem::MemoryPool pool;
  auto live = elaborate(config, pool);
  EXPECT_NE(live->clock, nullptr);
  EXPECT_NE(live->done, nullptr);
  EXPECT_NE(live->fsm, nullptr);
  // clk + 7 declared wires.
  EXPECT_EQ(live->netlist.net_count(), 8u);
  // clkgen + fsm + 5 units.
  EXPECT_EQ(live->netlist.component_count(), 7u);
}

TEST(Elaborator, AccumulatorRunsToDone) {
  ir::Configuration config = fti::testing::make_accumulator(5);
  mem::MemoryPool pool;
  auto live = elaborate(config, pool);
  sim::Kernel kernel(live->netlist);
  auto reason = kernel.run(100000, live->done);
  EXPECT_EQ(reason, sim::Kernel::StopReason::kDoneNet);
  // The edge that leaves the run state still loads: final value target+1.
  EXPECT_EQ(live->netlist.net("acc_q").u(), 6u);
  EXPECT_EQ(live->fsm->current_state(), "halt");
}

TEST(Elaborator, FsmStateVisitCoverage) {
  ir::Configuration config = fti::testing::make_accumulator(3);
  mem::MemoryPool pool;
  auto live = elaborate(config, pool);
  sim::Kernel kernel(live->netlist);
  kernel.run(100000, live->done);
  const auto& visits = live->fsm->state_visits();
  ASSERT_EQ(visits.size(), 2u);
  EXPECT_EQ(visits[0], 1u);  // entered once (self-waiting, not re-entered)
  EXPECT_EQ(visits[1], 1u);
  EXPECT_GE(live->fsm->steps(), 4u);
}

TEST(Elaborator, RejectsReservedClockName) {
  ir::Configuration config = fti::testing::make_accumulator(3);
  config.datapath.wires.push_back({"clk", 1});
  mem::MemoryPool pool;
  EXPECT_THROW(elaborate(config, pool), util::IrError);
}

TEST(Elaborator, RejectsInvalidIr) {
  ir::Configuration config = fti::testing::make_accumulator(3);
  config.datapath.units[2].ports["a"] = "missing";
  mem::MemoryPool pool;
  EXPECT_THROW(elaborate(config, pool), util::IrError);
}

TEST(Elaborator, CreatesPoolMemories) {
  compiler::CompileOptions options;
  auto compiled = compiler::compile_source(
      "kernel k(int a[8]) { a[0] = 1; }", options);
  mem::MemoryPool pool;
  auto live =
      elaborate(compiled.design.configuration("k"), pool);
  EXPECT_TRUE(pool.contains("a"));
  EXPECT_EQ(pool.get("a").depth(), 8u);
  EXPECT_EQ(live->srams.size(), 1u);
}

TEST(RtgExec, RunsPartitionsInSequence) {
  compiler::CompileOptions options;
  auto compiled = compiler::compile_source(
      "kernel seq(int m[4]) {\n"
      "  int i;\n"
      "  for (i = 0; i < 4; i = i + 1) { m[i] = i * 5; }\n"
      "  stage;\n"
      "  int j;\n"
      "  for (j = 0; j < 4; j = j + 1) { m[j] = m[j] + 1; }\n"
      "}\n",
      options);
  mem::MemoryPool pool;
  RtgRunResult result = run_design(compiled.design, pool);
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.partitions.size(), 2u);
  EXPECT_EQ(result.partitions[0].node, "seq_p0");
  EXPECT_EQ(result.partitions[1].node, "seq_p1");
  EXPECT_EQ(pool.get("m").words(),
            (std::vector<std::uint64_t>{1, 6, 11, 16}));
  EXPECT_GT(result.total_cycles(), 0u);
  EXPECT_GT(result.total_events(), 0u);
  EXPECT_GE(result.total_wall_seconds(), 0.0);
}

TEST(RtgExec, CycleBudgetYieldsIncomplete) {
  // A while(1)-style design never raises done.
  compiler::CompileOptions options;
  auto compiled = compiler::compile_source(
      "kernel spin(int m[2]) {\n"
      "  int i = 0;\n"
      "  while (i < 10) { m[0] = i; i = i - 1; }\n"  // never terminates
      "}\n",
      options);
  mem::MemoryPool pool;
  RtgRunOptions run_options;
  run_options.max_cycles_per_partition = 1000;
  RtgRunResult result = run_design(compiled.design, pool, run_options);
  EXPECT_FALSE(result.completed);
  ASSERT_EQ(result.partitions.size(), 1u);
  EXPECT_EQ(result.partitions[0].reason, sim::Kernel::StopReason::kMaxTime);
}

TEST(RtgExec, OnElaboratedHookCanAttachInstrumentation) {
  ir::Design design = ir::make_single_design(
      "probe_design", fti::testing::make_accumulator(4));
  mem::MemoryPool pool;
  RtgRunOptions options;
  sim::Probe* probe = nullptr;
  std::size_t observed_changes = 0;
  options.on_elaborated = [&](const std::string& node,
                              ElaboratedConfig& live) {
    EXPECT_EQ(node, "acc");
    probe = &live.netlist.add_component<sim::Probe>(
        "probe", live.netlist.net("acc_q"));
  };
  // The probe dies with the partition's netlist: harvest it in the
  // partition-done hook, not after run_design.
  options.on_partition_done = [&](const std::string&, ElaboratedConfig&,
                                  const PartitionRun&) {
    ASSERT_NE(probe, nullptr);
    observed_changes = probe->change_count();
  };
  RtgRunResult result = run_design(design, pool, options);
  ASSERT_TRUE(result.completed);
  // acc took values 1..5 (plus the final overshoot load to 5+... ).
  EXPECT_GE(observed_changes, 4u);
}

TEST(RtgExec, StatsPerPartitionAreIndependent) {
  compiler::CompileOptions options;
  auto compiled = compiler::compile_source(
      "kernel lop(int m[16]) {\n"
      "  int i;\n"
      "  for (i = 0; i < 16; i = i + 1) { m[i] = i; }\n"
      "  stage;\n"
      "  int j;\n"
      "  for (j = 0; j < 2; j = j + 1) { m[j] = 0; }\n"
      "}\n",
      options);
  mem::MemoryPool pool;
  RtgRunResult result = run_design(compiled.design, pool);
  ASSERT_TRUE(result.completed);
  // 16 iterations vs 2: the first partition runs much longer.
  EXPECT_GT(result.partitions[0].cycles, result.partitions[1].cycles);
}

}  // namespace
}  // namespace fti::elab

namespace fti::elab {
namespace {

TEST(MemoryInit, AppliedOnceAcrossPartitions) {
  // Partition 0 declares rom with init and increments every word;
  // partition 1 declares the same init but must see partition 0's values,
  // not a reset.
  ir::Configuration p0 = fti::testing::make_accumulator(2);
  p0.datapath.memories.push_back({"rom", 2, 8, {10, 20}});
  ir::Configuration p1 = fti::testing::make_accumulator(2);
  p1.datapath.name = "acc2";
  p1.fsm.name = "acc2_fsm";
  p1.datapath.memories.push_back({"rom", 2, 8, {10, 20}});

  mem::MemoryPool pool;
  auto live0 = elaborate(p0, pool);
  EXPECT_EQ(pool.get("rom").words(), (std::vector<std::uint64_t>{10, 20}));
  pool.get("rom").write(0, 77);  // partition 0's computation
  auto live1 = elaborate(p1, pool);
  EXPECT_EQ(pool.get("rom").words(), (std::vector<std::uint64_t>{77, 20}));
}

}  // namespace
}  // namespace fti::elab

namespace fti::elab {
namespace {

TEST(Coverage, FullyCoveredLoop) {
  compiler::CompileOptions options;
  auto compiled = compiler::compile_source(
      "kernel cov(int m[4]) {\n"
      "  int i;\n"
      "  for (i = 0; i < 4; i = i + 1) { m[i] = i; }\n"
      "}\n",
      options);
  mem::MemoryPool pool;
  RtgRunResult result = run_design(compiled.design, pool);
  ASSERT_TRUE(result.completed);
  const FsmCoverage& coverage = result.partitions[0].coverage;
  EXPECT_TRUE(coverage.full()) << coverage.to_string();
  EXPECT_EQ(coverage.percent(), 100.0);
  EXPECT_EQ(coverage.states_visited(), coverage.states.size());
  // The loop branch was taken both ways: 4 body entries + 1 exit.
  std::uint64_t body_taken = 0;
  std::uint64_t exit_taken = 0;
  for (const auto& transition : coverage.transitions) {
    if (transition.guard != "1") {
      body_taken = transition.taken;
    }
  }
  (void)exit_taken;
  EXPECT_EQ(body_taken, 4u);
}

TEST(Coverage, UntakenBranchIsReported) {
  // The input never exceeds 100, so the then-branch states stay cold.
  compiler::CompileOptions options;
  options.scalar_args = {{"n", 4}};
  auto compiled = compiler::compile_source(
      "kernel cold(int a[4], int b[4], int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i = i + 1) {\n"
      "    if (a[i] > 100) { b[i] = 1; } else { b[i] = 2; }\n"
      "  }\n"
      "}\n",
      options);
  mem::MemoryPool pool;
  pool.create("a", 4, 32);  // all zeros: condition never true
  pool.create("b", 4, 32);
  RtgRunResult result = run_design(compiled.design, pool);
  ASSERT_TRUE(result.completed);
  const FsmCoverage& coverage = result.partitions[0].coverage;
  EXPECT_FALSE(coverage.full());
  EXPECT_LT(coverage.percent(), 100.0);
  EXPECT_NE(coverage.to_string().find("never"), std::string::npos);
  // At least one state was never visited (the then-branch body).
  EXPECT_LT(coverage.states_visited(), coverage.states.size());
}

TEST(Coverage, PerPartitionReports) {
  compiler::CompileOptions options;
  auto compiled = compiler::compile_source(
      "kernel two(int m[2]) { m[0] = 1; stage; m[1] = 2; }", options);
  mem::MemoryPool pool;
  RtgRunResult result = run_design(compiled.design, pool);
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.partitions.size(), 2u);
  for (const auto& partition : result.partitions) {
    EXPECT_TRUE(partition.coverage.full())
        << partition.coverage.to_string();
    EXPECT_FALSE(partition.coverage.states.empty());
  }
}

}  // namespace
}  // namespace fti::elab

// ---------------------------------------------------------------------------
// The event engine's activity-driven clock edge (enable-gated register
// wakeups, per-transition control deltas) against the levelized engine,
// which shares no scheduling code with it, on small paper workloads.

namespace fti::elab {
namespace {

void expect_same_coverage(const sim::FsmCoverage& event,
                          const sim::FsmCoverage& levelized) {
  EXPECT_EQ(event.fsm, levelized.fsm);
  ASSERT_EQ(event.states.size(), levelized.states.size());
  for (std::size_t i = 0; i < event.states.size(); ++i) {
    EXPECT_EQ(event.states[i].name, levelized.states[i].name);
    EXPECT_EQ(event.states[i].visits, levelized.states[i].visits)
        << event.states[i].name;
  }
  ASSERT_EQ(event.transitions.size(), levelized.transitions.size());
  for (std::size_t i = 0; i < event.transitions.size(); ++i) {
    const auto& a = event.transitions[i];
    const auto& b = levelized.transitions[i];
    EXPECT_EQ(a.from, b.from);
    EXPECT_EQ(a.to, b.to);
    EXPECT_EQ(a.guard, b.guard);
    EXPECT_EQ(a.taken, b.taken) << a.from << " -> " << a.to;
  }
}

struct Workload {
  const char* name;
  std::string source;
  std::map<std::string, std::int64_t> scalar_args;
  std::map<std::string, std::vector<std::uint64_t>> inputs;
};

void PrintTo(const Workload& workload, std::ostream* os) {
  *os << workload.name;
}

class EventMatchesLevelized : public ::testing::TestWithParam<Workload> {};

INSTANTIATE_TEST_SUITE_P(
    PaperWorkloads, EventMatchesLevelized,
    ::testing::Values(
        Workload{"fdct1", golden::fdct_source(1, false), {{"nblocks", 1}},
                 {{"in", golden::make_test_image(64)}}},
        Workload{"fdct2", golden::fdct_source(1, true), {{"nblocks", 1}},
                 {{"in", golden::make_test_image(64)}}},
        Workload{"hamming", golden::hamming_source(32), {{"n", 32}},
                 {{"code", golden::make_codewords(32, 7, 3)}}}),
    [](const auto& info) { return std::string(info.param.name); });

TEST_P(EventMatchesLevelized, FinalsTracesCyclesCoverageAndMemories) {
  compiler::CompileOptions options;
  options.scalar_args = GetParam().scalar_args;
  options.rom_contents = GetParam().inputs;  // power-up memory contents
  ir::Design design = compiler::compile_source(GetParam().source, options)
                          .design;
  sim::EngineRunOptions run_options;
  run_options.collect_wire_data = true;
  run_options.max_cycles_per_partition = 100000;  // a stuck FSM fails

  mem::MemoryPool event_pool;
  sim::EngineResult event =
      make_engine("event")->run(design, event_pool, run_options);
  mem::MemoryPool levelized_pool;
  sim::EngineResult levelized =
      make_engine("levelized")->run(design, levelized_pool, run_options);

  ASSERT_TRUE(event.completed);
  ASSERT_TRUE(levelized.completed);
  ASSERT_EQ(event.partitions.size(), levelized.partitions.size());
  for (std::size_t p = 0; p < event.partitions.size(); ++p) {
    const sim::EnginePartition& a = event.partitions[p];
    const sim::EnginePartition& b = levelized.partitions[p];
    SCOPED_TRACE(a.node);
    EXPECT_EQ(a.node, b.node);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.finals, b.finals);
    EXPECT_EQ(a.traces, b.traces);
    expect_same_coverage(a.coverage, b.coverage);
    EXPECT_TRUE(a.coverage.full()) << a.coverage.to_string();
    // Guarded transitions exist, so the taken counts compare real
    // branching, not just the unconditional steps.
    EXPECT_TRUE(std::any_of(
        a.coverage.transitions.begin(), a.coverage.transitions.end(),
        [](const auto& t) { return t.guard != "1" && t.taken > 0; }));
  }
  for (const std::string& array : event_pool.names()) {
    EXPECT_EQ(event_pool.get(array).words(),
              levelized_pool.get(array).words())
        << array;
  }
}

TEST(EventKernelCounts, AccumulatorEventsAndDeltasArePinned) {
  // Values from the ungated kernel: gating removes only evaluations that
  // would have scheduled nothing, so every committed event, delta cycle
  // and timestep stays where it was.
  mem::MemoryPool pool;
  sim::EngineRunOptions options;
  options.max_cycles_per_partition = 1000;
  sim::EngineResult result = make_engine("event")->run(
      ir::make_single_design("acc_design",
                             fti::testing::make_accumulator(25)),
      pool, options);
  ASSERT_TRUE(result.completed);
  const sim::KernelStats& stats = result.partitions[0].stats;
  EXPECT_EQ(result.partitions[0].cycles, 26u);
  EXPECT_EQ(stats.events, 138u);
  EXPECT_EQ(stats.delta_cycles, 104u);
  EXPECT_EQ(stats.timesteps, 52u);
}

TEST(NaiveKernelCounts, AccumulatorEvaluationsAndSweepsArePinned) {
  // Values from the hand-written full-evaluation interpreter the naive
  // engine replaced: the settle-until-stable sweep must reproduce its
  // work exactly.  Events are the same too: the accumulator's registers
  // reset to zero, so powering them up commits nothing.
  mem::MemoryPool pool;
  sim::EngineRunOptions options;
  options.max_cycles_per_partition = 1000;
  sim::EngineResult result = make_engine("naive")->run(
      ir::make_single_design("acc_design",
                             fti::testing::make_accumulator(25)),
      pool, options);
  ASSERT_TRUE(result.completed);
  const sim::KernelStats& stats = result.partitions[0].stats;
  EXPECT_EQ(result.partitions[0].cycles, 26u);
  EXPECT_EQ(stats.evaluations, 242u);
  EXPECT_EQ(stats.delta_cycles, 54u);
  EXPECT_EQ(stats.events, 60u);
  EXPECT_EQ(stats.timesteps, 27u);
}

}  // namespace
}  // namespace fti::elab
