#include <gtest/gtest.h>

#include "fti/compiler/hls.hpp"
#include "fti/cosim/system.hpp"
#include "fti/elab/engines.hpp"
#include "fti/ops/clock.hpp"
#include "fti/ops/constant.hpp"
#include "fti/ops/register.hpp"
#include "fti/sim/bits.hpp"
#include "fti/sim/kernel.hpp"
#include "fti/sim/probe.hpp"
#include "fti/sim/vcd.hpp"
#include "fti/util/error.hpp"

namespace fti::sim {
namespace {

TEST(Bits, DefaultIsOneBitZero) {
  Bits bits;
  EXPECT_EQ(bits.width(), 1u);
  EXPECT_TRUE(bits.is_zero());
}

TEST(Bits, Masking) {
  EXPECT_EQ(Bits(8, 0x1FF).u(), 0xFFu);
  EXPECT_EQ(Bits(64, ~0ull).u(), ~0ull);
  EXPECT_EQ(Bits(1, 3).u(), 1u);
}

TEST(Bits, SignedInterpretation) {
  EXPECT_EQ(Bits(8, 0xFF).s(), -1);
  EXPECT_EQ(Bits(8, 0x7F).s(), 127);
  EXPECT_EQ(Bits(16, 0x8000).s(), -32768);
  EXPECT_EQ(Bits(32, 0xFFFFFFFF).s(), -1);
  EXPECT_EQ(Bits(64, ~0ull).s(), -1);
  EXPECT_EQ(Bits(4, 0b0101).s(), 5);
}

TEST(Bits, Resize) {
  EXPECT_EQ(Bits(8, 0xFF).resized(16).u(), 0xFFu);
  EXPECT_EQ(Bits(16, 0x1234).resized(8).u(), 0x34u);
  EXPECT_EQ(Bits(8, 0xFF).sign_extended(16).u(), 0xFFFFu);
  EXPECT_EQ(Bits(8, 0x7F).sign_extended(16).u(), 0x7Fu);
}

TEST(Bits, Equality) {
  EXPECT_EQ(Bits(8, 5), Bits(8, 5));
  EXPECT_NE(Bits(8, 5), Bits(16, 5));  // width matters
  EXPECT_NE(Bits(8, 5), Bits(8, 6));
}

TEST(Bits, BitAt) {
  Bits bits(8, 0b1010);
  EXPECT_FALSE(bits.bit_at(0));
  EXPECT_TRUE(bits.bit_at(1));
  EXPECT_TRUE(bits.bit_at(3));
  EXPECT_FALSE(bits.bit_at(63));  // out of range reads 0
}

TEST(Bits, ToString) {
  EXPECT_EQ(Bits(8, 0x3A).to_string(), "8'h3a");
  EXPECT_EQ(Bits(1, 1).to_string(), "1'h1");
  EXPECT_EQ(Bits(12, 0xABC).to_string(), "12'habc");
}

TEST(Bits, InvalidWidthThrows) {
  EXPECT_THROW(Bits(0, 0), util::IrError);
  EXPECT_THROW(Bits(65, 0), util::IrError);
}

TEST(Netlist, NetCreationAndLookup) {
  Netlist netlist;
  Net& a = netlist.create_net("a", 8);
  EXPECT_EQ(a.width(), 8u);
  EXPECT_EQ(&netlist.net("a"), &a);
  EXPECT_EQ(netlist.find_net("missing"), nullptr);
  EXPECT_THROW(netlist.net("missing"), util::IrError);
  EXPECT_THROW(netlist.create_net("a", 8), util::IrError);
}

/// Drives a scripted sequence of values at fixed times.
class Scripted : public Component {
 public:
  Scripted(Net& out, std::vector<std::pair<Time, Bits>> script)
      : Component("scripted"), out_(out), script_(std::move(script)) {}

  void initialize(Kernel& kernel) override {
    for (const auto& [time, value] : script_) {
      kernel.schedule(out_, value, time);
    }
  }
  void evaluate(Kernel&) override {}

 private:
  Net& out_;
  std::vector<std::pair<Time, Bits>> script_;
};

TEST(Kernel, EventsApplyInTimeOrder) {
  Netlist netlist;
  Net& net = netlist.create_net("n", 8);
  netlist.add_component<Scripted>(
      net, std::vector<std::pair<Time, Bits>>{
               {20, Bits(8, 2)}, {10, Bits(8, 1)}, {30, Bits(8, 3)}});
  Probe& probe = netlist.add_component<Probe>("p", net);
  Kernel kernel(netlist);
  EXPECT_EQ(kernel.run(), Kernel::StopReason::kIdle);
  ASSERT_EQ(probe.samples().size(), 3u);
  EXPECT_EQ(probe.samples()[0].time, 10u);
  EXPECT_EQ(probe.samples()[0].value.u(), 1u);
  EXPECT_EQ(probe.samples()[2].time, 30u);
  EXPECT_EQ(kernel.stats().end_time, 30u);
}

TEST(Kernel, SameValueDoesNotWakeListeners) {
  Netlist netlist;
  Net& net = netlist.create_net("n", 8);
  netlist.add_component<Scripted>(
      net, std::vector<std::pair<Time, Bits>>{{10, Bits(8, 5)},
                                              {20, Bits(8, 5)}});
  Probe& probe = netlist.add_component<Probe>("p", net);
  Kernel kernel(netlist);
  kernel.run();
  EXPECT_EQ(probe.change_count(), 1u);
}

TEST(Kernel, MaxTimeStopsEarly) {
  Netlist netlist;
  Net& clock = netlist.create_net("clk", 1);
  netlist.add_component<ops::ClockGen>("cg", clock, 10);
  Kernel kernel(netlist);
  EXPECT_EQ(kernel.run(1000), Kernel::StopReason::kMaxTime);
  EXPECT_LE(kernel.now(), 1000u);
}

TEST(Kernel, DoneNetStopsRun) {
  Netlist netlist;
  Net& done = netlist.create_net("done", 1);
  netlist.add_component<Scripted>(
      done,
      std::vector<std::pair<Time, Bits>>{{50, Bits::bit(true)}});
  Kernel kernel(netlist);
  EXPECT_EQ(kernel.run(kNoTimeLimit, &done), Kernel::StopReason::kDoneNet);
  EXPECT_EQ(kernel.now(), 50u);
}

TEST(Kernel, RunCanResume) {
  Netlist netlist;
  Net& net = netlist.create_net("n", 8);
  netlist.add_component<Scripted>(
      net, std::vector<std::pair<Time, Bits>>{{10, Bits(8, 1)},
                                              {100, Bits(8, 2)}});
  Kernel kernel(netlist);
  EXPECT_EQ(kernel.run(50), Kernel::StopReason::kMaxTime);
  EXPECT_EQ(net.u(), 1u);
  EXPECT_EQ(kernel.run(), Kernel::StopReason::kIdle);
  EXPECT_EQ(net.u(), 2u);
}

/// Two cross-coupled inverters scheduling at delta -- a combinational loop.
class InverterLoop : public Component {
 public:
  InverterLoop(Net& a, Net& b) : Component("loop"), a_(a), b_(b) {
    a_.add_listener(this);
  }
  void initialize(Kernel& kernel) override {
    kernel.schedule(a_, Bits::bit(true), 0);
  }
  void evaluate(Kernel& kernel) override {
    kernel.schedule(a_, Bits::bit(!a_.value().bit_at(0)), 0);
    kernel.schedule(b_, a_.value(), 0);
  }

 private:
  Net& a_;
  Net& b_;
};

TEST(Kernel, CombinationalLoopHitsDeltaLimit) {
  Netlist netlist;
  Net& a = netlist.create_net("a", 1);
  Net& b = netlist.create_net("b", 1);
  netlist.add_component<InverterLoop>(a, b);
  Kernel kernel(netlist);
  kernel.set_max_deltas(100);
  EXPECT_THROW(kernel.run(), util::SimError);
}

TEST(Kernel, DeltaLimitErrorNamesTimeAndSuspect) {
  Netlist netlist;
  Net& a = netlist.create_net("a", 1);
  Net& b = netlist.create_net("b", 1);
  netlist.add_component<InverterLoop>(a, b);
  Kernel kernel(netlist);
  kernel.set_max_deltas(100);
  try {
    kernel.run();
    FAIL() << "loop did not throw";
  } catch (const util::SimError& error) {
    std::string message = error.what();
    // The diagnosis must carry the stuck timestep and point at the likely
    // cause, since this is the only loop report the event kernel gives.
    EXPECT_NE(message.find("delta-cycle limit exceeded at t=0"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("combinational loop"), std::string::npos)
        << message;
  }
}

TEST(Kernel, PresetBeforeRunSetsValue) {
  Netlist netlist;
  Net& net = netlist.create_net("n", 8);
  Kernel kernel(netlist);
  kernel.preset(net, Bits(8, 42));
  EXPECT_EQ(net.u(), 42u);
}

TEST(Kernel, PresetAfterRunStartsThrows) {
  Netlist netlist;
  Net& net = netlist.create_net("n", 8);
  netlist.add_component<Scripted>(
      net, std::vector<std::pair<Time, Bits>>{{10, Bits(8, 1)}});
  Kernel kernel(netlist);
  kernel.run();
  try {
    kernel.preset(net, Bits(8, 42));
    FAIL() << "preset after run() was accepted";
  } catch (const util::SimError& error) {
    std::string message = error.what();
    EXPECT_NE(message.find("preset() of net 'n'"), std::string::npos)
        << message;
    EXPECT_NE(message.find("use schedule()"), std::string::npos) << message;
  }
  EXPECT_EQ(net.u(), 1u);  // the failed preset must not leak through
}

/// Requests a stop from initialize() -- e.g. a stop controller that finds
/// its precondition already violated before the first event.
class StopAtInit : public Component {
 public:
  StopAtInit() : Component("stop_at_init") {}
  void initialize(Kernel& kernel) override {
    kernel.request_stop("init refuses to start");
  }
  void evaluate(Kernel&) override {}
};

TEST(Kernel, RequestStopInsideInitializeIsHonoured) {
  Netlist netlist;
  Net& clock = netlist.create_net("clk", 1);
  netlist.add_component<ops::ClockGen>("cg", clock, 10);  // free-running
  netlist.add_component<StopAtInit>();
  Kernel kernel(netlist);
  // Without the pre-initialization stop check this would run forever.
  EXPECT_EQ(kernel.run(), Kernel::StopReason::kStopped);
  EXPECT_EQ(kernel.now(), 0u);
  EXPECT_EQ(kernel.stop_message(), "init refuses to start");
}

TEST(EventWheel, OverflowAndBucketInterleaveInTimeOrder) {
  EventWheel wheel;  // default capacity 1024
  // t=2000 is beyond the horizon (cursor 0): overflow.
  wheel.push({2000, 1, nullptr, Bits(1, 0)});
  // t=100 is near: bucket.
  wheel.push({100, 2, nullptr, Bits(1, 0)});
  std::vector<Event> out;
  EXPECT_EQ(wheel.next_time(), 100u);
  wheel.pop_time(100, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].seq, 2u);
  // After the cursor advanced to 100, t=2000 was *still* pushed to
  // overflow by the earlier call; a new same-time push now lands in a
  // bucket (2000 < 100 + 1024 is false -- use 1100 to land in a bucket).
  wheel.push({1100, 3, nullptr, Bits(1, 0)});
  out.clear();
  EXPECT_EQ(wheel.next_time(), 1100u);
  wheel.pop_time(1100, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].seq, 3u);
  // Cursor is 1100, so 2000 is now inside the horizon: this push goes to
  // the bucket while seq 1 for the same time sits in overflow.
  wheel.push({2000, 4, nullptr, Bits(1, 0)});
  out.clear();
  EXPECT_EQ(wheel.next_time(), 2000u);
  wheel.pop_time(2000, out);
  // Overflow drains before the bucket, which IS seq order: the overflow
  // push strictly preceded the bucket push.
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].seq, 1u);
  EXPECT_EQ(out[1].seq, 4u);
  EXPECT_TRUE(wheel.empty());
}

TEST(EventWheel, MaskCollisionAcrossCursorWrap) {
  // Regression for the ring addressing: with capacity 4 (mask 3) the
  // bucket index `time & mask_` wraps every 4 time units, and distinct
  // times that collide under the mask must never mix.
  EventWheel wheel(4);
  wheel.push({2, 1, nullptr, Bits(1, 0)});
  std::vector<Event> out;
  EXPECT_EQ(wheel.next_time(), 2u);
  wheel.pop_time(2, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].seq, 1u);
  // Cursor is 2: t=6 collides with the just-popped bucket index (6 & 3
  // == 2 & 3) but lies exactly on the horizon, so it must overflow...
  wheel.push({6, 2, nullptr, Bits(1, 0)});
  // ...while t=4 and t=5 wrap around the ring into buckets 0 and 1.
  wheel.push({4, 3, nullptr, Bits(1, 0)});
  wheel.push({5, 4, nullptr, Bits(1, 0)});
  EXPECT_EQ(wheel.size(), 3u);
  out.clear();
  EXPECT_EQ(wheel.next_time(), 4u);
  wheel.pop_time(4, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].seq, 3u);
  out.clear();
  EXPECT_EQ(wheel.next_time(), 5u);
  wheel.pop_time(5, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].seq, 4u);
  out.clear();
  EXPECT_EQ(wheel.next_time(), 6u);
  wheel.pop_time(6, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].seq, 2u);
  EXPECT_TRUE(wheel.empty());
}

TEST(EventWheel, OverflowThenBucketAtOneTimestampKeepsSeqOrder) {
  // An event pushed beyond the horizon (overflow) and one pushed later
  // for the same, now in-horizon, timestamp must drain overflow-first --
  // which is seq order, because the horizon only moves forward.  Uses a
  // wrapped bucket index (9 & 3 == 1) to cover the ring arithmetic too.
  EventWheel wheel(4);
  wheel.push({1, 1, nullptr, Bits(1, 0)});
  std::vector<Event> out;
  wheel.pop_time(1, out);
  out.clear();
  wheel.push({9, 2, nullptr, Bits(1, 0)});  // 9 - 1 >= 4: overflow
  wheel.push({7, 3, nullptr, Bits(1, 0)});  // 7 - 1 >= 4: overflow too
  EXPECT_EQ(wheel.next_time(), 7u);
  wheel.pop_time(7, out);  // advances the horizon past t=9
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].seq, 3u);
  out.clear();
  wheel.push({9, 4, nullptr, Bits(1, 0)});  // 9 - 7 < 4: bucket, index 1
  EXPECT_EQ(wheel.size(), 2u);
  EXPECT_EQ(wheel.next_time(), 9u);
  wheel.pop_time(9, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].seq, 2u);
  EXPECT_EQ(out[1].seq, 4u);
  EXPECT_TRUE(wheel.empty());
}

/// Both wheel-backed execution paths: the registered "event" engine and
/// the cosim fabric drive the same Kernel (and therefore the same
/// EventWheel); a run long enough to lap the default 1024-slot ring many
/// times must still produce exact results through either client.
class WheelClients : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(BothWheelUsers, WheelClients,
                         ::testing::Values("event-engine", "cosim-fabric"));

TEST_P(WheelClients, LongRunCrossesManyRingWraps) {
  compiler::CompileOptions options;
  auto compiled = compiler::compile_source(
      "kernel wrap(int m[1]) {\n"
      "  int i;\n"
      "  for (i = 0; i < 300; i = i + 1) { m[0] = m[0] + i; }\n"
      "}\n",
      options);
  mem::MemoryPool pool;
  pool.create("m", 1, 32);
  std::uint64_t cycles = 0;
  if (std::string(GetParam()) == "event-engine") {
    auto engine = elab::make_engine("event");
    EngineRunOptions run_options;
    EngineResult run = engine->run(compiled.design, pool, run_options);
    ASSERT_TRUE(run.completed);
    cycles = run.total_cycles();
  } else {
    cosim::CpuProgram program;
    program.run_accel().halt();
    cosim::CoSimResult result =
        cosim::CoSimSystem(compiled.design, pool).run(program);
    ASSERT_TRUE(result.halted);
    cycles = result.fabric_cycles;
  }
  // One loop iteration takes several cycles at clock period 10, so 300
  // iterations cross the 1024-time-unit ring horizon many times.
  EXPECT_GT(cycles * 10, 4 * 1024u);
  EXPECT_EQ(pool.get("m").words()[0], 44850u);  // sum 0..299
}

TEST(EventWheel, FarFutureEventsSurviveTheHorizon) {
  // Through the kernel: a script spanning many horizons must replay in
  // time order regardless of which side of the wheel each event lands on.
  Netlist netlist;
  Net& net = netlist.create_net("n", 8);
  netlist.add_component<Scripted>(
      net, std::vector<std::pair<Time, Bits>>{{50000, Bits(8, 3)},
                                              {10, Bits(8, 1)},
                                              {5000, Bits(8, 2)}});
  Probe& probe = netlist.add_component<Probe>("p", net);
  Kernel kernel(netlist);
  EXPECT_EQ(kernel.run(), Kernel::StopReason::kIdle);
  ASSERT_EQ(probe.samples().size(), 3u);
  EXPECT_EQ(probe.samples()[0].time, 10u);
  EXPECT_EQ(probe.samples()[1].time, 5000u);
  EXPECT_EQ(probe.samples()[2].time, 50000u);
  EXPECT_EQ(probe.samples()[2].value.u(), 3u);
}

TEST(Kernel, WidthMismatchIsFatal) {
  Netlist netlist;
  Net& net = netlist.create_net("n", 8);
  netlist.add_component<Scripted>(
      net, std::vector<std::pair<Time, Bits>>{{10, Bits(16, 1)}});
  Kernel kernel(netlist);
  EXPECT_DEATH(kernel.run(), "width mismatch");
}

TEST(Clock, GeneratesExpectedEdges) {
  Netlist netlist;
  Net& clock = netlist.create_net("clk", 1);
  ops::ClockGen& generator =
      netlist.add_component<ops::ClockGen>("cg", clock, 10, 5);
  Probe& probe = netlist.add_component<Probe>("p", clock);
  Kernel kernel(netlist);
  EXPECT_EQ(kernel.run(), Kernel::StopReason::kIdle);
  EXPECT_EQ(generator.cycles(), 5u);
  // 5 cycles = 5 rising + 4 falling edges observed (stops after 5th rise).
  EXPECT_EQ(probe.change_count(), 9u);
  // First rising edge at period/2.
  EXPECT_EQ(probe.samples()[0].time, 5u);
  EXPECT_TRUE(probe.samples()[0].value.bit_at(0));
}

TEST(Probe, MaxSamplesOverflowFlag) {
  Netlist netlist;
  Net& clock = netlist.create_net("clk", 1);
  netlist.add_component<ops::ClockGen>("cg", clock, 10, 10);
  Probe& probe = netlist.add_component<Probe>("p", clock, 3);
  Kernel kernel(netlist);
  kernel.run();
  EXPECT_EQ(probe.samples().size(), 3u);
  EXPECT_TRUE(probe.overflowed());
  EXPECT_GT(probe.change_count(), 3u);
}

TEST(Assertion, ThrowsOnViolation) {
  Netlist netlist;
  Net& net = netlist.create_net("n", 8);
  netlist.add_component<Scripted>(
      net, std::vector<std::pair<Time, Bits>>{{10, Bits(8, 5)},
                                              {20, Bits(8, 200)}});
  netlist.add_component<NetAssertion>(
      "below100", net, [](const Bits& value) { return value.u() < 100; });
  Kernel kernel(netlist);
  EXPECT_THROW(kernel.run(), util::SimError);
  EXPECT_EQ(net.u(), 200u);
}

TEST(Assertion, RecordingModeCountsViolations) {
  Netlist netlist;
  Net& net = netlist.create_net("n", 8);
  netlist.add_component<Scripted>(
      net, std::vector<std::pair<Time, Bits>>{
               {10, Bits(8, 150)}, {20, Bits(8, 5)}, {30, Bits(8, 201)}});
  NetAssertion& assertion = netlist.add_component<NetAssertion>(
      "below100", net, [](const Bits& value) { return value.u() < 100; });
  assertion.set_throw_on_failure(false);
  Kernel kernel(netlist);
  kernel.run();
  EXPECT_EQ(assertion.violation_count(), 2u);
  EXPECT_EQ(assertion.first_violation_time(), 10u);
}

TEST(Watchdog, FiresAndStops) {
  Netlist netlist;
  Net& clock = netlist.create_net("clk", 1);
  Net& trigger = netlist.create_net("wd", 1);
  netlist.add_component<ops::ClockGen>("cg", clock, 10);  // free-running
  Watchdog& watchdog =
      netlist.add_component<Watchdog>("wd", trigger, 500);
  Kernel kernel(netlist);
  EXPECT_EQ(kernel.run(), Kernel::StopReason::kStopped);
  EXPECT_TRUE(watchdog.fired());
  EXPECT_EQ(kernel.now(), 500u);
  EXPECT_NE(kernel.stop_message().find("watchdog"), std::string::npos);
}

TEST(StopOnHigh, StopsWhenNetRises) {
  Netlist netlist;
  Net& net = netlist.create_net("flag", 1);
  netlist.add_component<Scripted>(
      net, std::vector<std::pair<Time, Bits>>{{42, Bits::bit(true)}});
  netlist.add_component<StopOnHigh>("stop", net);
  Kernel kernel(netlist);
  EXPECT_EQ(kernel.run(), Kernel::StopReason::kStopped);
  EXPECT_EQ(kernel.now(), 42u);
}

TEST(Vcd, ProducesWellFormedDump) {
  Netlist netlist;
  Net& clock = netlist.create_net("clk", 1);
  Net& bus = netlist.create_net("bus", 8);
  netlist.add_component<ops::ClockGen>("cg", clock, 10, 3);
  netlist.add_component<Scripted>(
      bus, std::vector<std::pair<Time, Bits>>{{7, Bits(8, 0xA5)}});
  VcdWriter vcd("testbench");
  vcd.watch(clock);
  vcd.watch(bus);
  Kernel kernel(netlist);
  kernel.set_tracer(&vcd);
  kernel.run();
  std::string dump = vcd.str();
  EXPECT_NE(dump.find("$scope module testbench"), std::string::npos);
  EXPECT_NE(dump.find("$var wire 1 ! clk"), std::string::npos);
  EXPECT_NE(dump.find("$var wire 8 \" bus"), std::string::npos);
  EXPECT_NE(dump.find("b10100101 \""), std::string::npos);
  EXPECT_NE(dump.find("#5"), std::string::npos);
  EXPECT_EQ(vcd.watched_count(), 2u);
}

TEST(Vcd, SkipsRedundantValues) {
  Netlist netlist;
  Net& net = netlist.create_net("n", 4);
  netlist.add_component<Scripted>(
      net, std::vector<std::pair<Time, Bits>>{{5, Bits(4, 3)},
                                              {10, Bits(4, 3)},
                                              {15, Bits(4, 4)}});
  VcdWriter vcd;
  vcd.watch(net);
  Kernel kernel(netlist);
  kernel.set_tracer(&vcd);
  kernel.run();
  std::string dump = vcd.str();
  // Exactly two value records in the body (0011 and 0100).
  EXPECT_NE(dump.find("b0011 !"), std::string::npos);
  EXPECT_NE(dump.find("b0100 !"), std::string::npos);
  std::size_t first = dump.find("b0011 !");
  EXPECT_EQ(dump.find("b0011 !", first + 1), std::string::npos);
}

// ---------------------------------------------------------------------------
// Enable-gated rising-edge listeners.  A register with an enable is woken
// only on edges where enable or reset is nonzero; these tests hold it to
// the register rule as it reads without gating.

/// The register rule with an ungated clock listener: woken on every
/// rising edge, it decides from reset and enable itself.  The oracle the
/// gated ops::Register must match edge for edge.
class UngatedRegister : public Component {
 public:
  UngatedRegister(Net& clock, Net& d, Net& q, Net* enable, Net* reset,
                  Bits reset_value)
      : Component("ungated"), clock_(clock), d_(d), q_(q), enable_(enable),
        reset_(reset), reset_value_(reset_value) {
    clock_.add_listener(this, Listen::kRising);
  }
  void initialize(Kernel& kernel) override {
    kernel.schedule(q_, reset_value_, 0);
  }
  void evaluate(Kernel& kernel) override {
    if (!kernel.rising(clock_)) {
      return;
    }
    if (reset_ != nullptr && !reset_->value().is_zero()) {
      kernel.schedule(q_, reset_value_, 0);
    } else if (enable_ == nullptr || !enable_->value().is_zero()) {
      kernel.schedule(q_, d_.value(), 0);
    }
  }

 private:
  Net& clock_;
  Net& d_;
  Net& q_;
  Net* enable_;
  Net* reset_;
  Bits reset_value_;
};

/// A seeded 0/1 script with a toggle every few time units, some of them
/// on rising edges (t = 5 + 10k for a period-10 clock).
std::vector<std::pair<Time, Bits>> toggles(std::uint32_t seed, Time until) {
  std::vector<std::pair<Time, Bits>> script;
  std::uint32_t state = seed;
  bool level = false;
  for (Time t = 1; t < until;) {
    state = state * 1103515245u + 12345u;
    t += 1 + (state >> 16) % 13;
    level = !level;
    script.emplace_back(t, Bits::bit(level));
  }
  return script;
}

struct RegisterCase {
  const char* name;
  bool enable;
  bool reset;
};

void PrintTo(const RegisterCase& param, std::ostream* os) { *os << param.name; }

class RegisterPorts : public ::testing::TestWithParam<RegisterCase> {};

INSTANTIATE_TEST_SUITE_P(
    Ports, RegisterPorts,
    ::testing::Values(RegisterCase{"en_only", true, false},
                      RegisterCase{"rst_only", false, true},
                      RegisterCase{"en_rst", true, true},
                      RegisterCase{"ungated", false, false}),
    [](const auto& info) { return std::string(info.param.name); });

TEST_P(RegisterPorts, GatedRegisterMatchesTheUngatedRule) {
  const RegisterCase& param = GetParam();
  const Time until = 2000;
  Netlist netlist;
  Net& clock = netlist.create_net("clk", 1);
  Net& d = netlist.create_net("d", 8);
  Net& en = netlist.create_net("en", 1);
  Net& rst = netlist.create_net("rst", 1);
  Net& q = netlist.create_net("q", 8);
  Net& q_ref = netlist.create_net("q_ref", 8);
  netlist.add_component<ops::ClockGen>("cg", clock, 10, until / 10);
  std::vector<std::pair<Time, Bits>> data;
  for (Time t = 3; t < until; t += 7) {
    data.emplace_back(t, Bits(8, t & 0xff));
  }
  netlist.add_component<Scripted>(d, data);
  netlist.add_component<Scripted>(en, toggles(7, until));
  netlist.add_component<Scripted>(rst, toggles(1234, until));
  Net* enable = param.enable ? &en : nullptr;
  Net* reset = param.reset ? &rst : nullptr;
  ops::Register& reg = netlist.add_component<ops::Register>(
      "r", clock, d, q, enable, reset, Bits(8, 0x5a));
  netlist.add_component<UngatedRegister>(clock, d, q_ref, enable, reset,
                                         Bits(8, 0x5a));
  Probe& probe = netlist.add_component<Probe>("pq", q);
  Probe& probe_ref = netlist.add_component<Probe>("pq_ref", q_ref);
  Kernel kernel(netlist);
  kernel.run();

  ASSERT_GT(probe_ref.change_count(), 20u);
  ASSERT_EQ(probe.samples().size(), probe_ref.samples().size());
  for (std::size_t i = 0; i < probe.samples().size(); ++i) {
    EXPECT_EQ(probe.samples()[i].time, probe_ref.samples()[i].time) << i;
    EXPECT_EQ(probe.samples()[i].value, probe_ref.samples()[i].value) << i;
  }
  EXPECT_GT(reg.load_count(), 0u);
}

TEST(GatedRegister, ResetWinsWhileEnableIsLow) {
  Netlist netlist;
  Net& clock = netlist.create_net("clk", 1);
  Net& d = netlist.create_net("d", 8);
  Net& en = netlist.create_net("en", 1);
  Net& rst = netlist.create_net("rst", 1);
  Net& q = netlist.create_net("q", 8);
  netlist.add_component<ops::ClockGen>("cg", clock, 10, 8);
  // Load 42 on the edge at t=15, drop the enable for good, then pulse
  // reset across the edge at t=45.
  netlist.add_component<Scripted>(
      en, std::vector<std::pair<Time, Bits>>{{12, Bits::bit(true)},
                                             {18, Bits::bit(false)}});
  netlist.add_component<Scripted>(
      rst, std::vector<std::pair<Time, Bits>>{{42, Bits::bit(true)},
                                              {48, Bits::bit(false)}});
  Kernel kernel(netlist);
  kernel.preset(d, Bits(8, 42));
  netlist.add_component<ops::Register>("r", clock, d, q, &en, &rst,
                                       Bits(8, 7));
  Probe& probe = netlist.add_component<Probe>("pq", q);
  kernel.run();
  ASSERT_EQ(probe.samples().size(), 3u);
  EXPECT_EQ(probe.samples()[0].value.u(), 7u);  // power-up
  EXPECT_EQ(probe.samples()[1].time, 15u);
  EXPECT_EQ(probe.samples()[1].value.u(), 42u);
  EXPECT_EQ(probe.samples()[2].time, 45u);
  EXPECT_EQ(probe.samples()[2].value.u(), 7u);
}

/// At every falling clock edge, schedules a one-unit enable pulse that
/// lands on the next rising edge -- in the same batch as the clock
/// event, and after it in scheduling order, since the clock generator
/// (registered on the clock first) scheduled that edge earlier in the
/// same evaluation pass.
class EnableOnNextEdge : public Component {
 public:
  EnableOnNextEdge(Net& clock, Net& enable, Time half_period)
      : Component("enable_on_next_edge"), clock_(clock), enable_(enable),
        half_period_(half_period) {
    clock_.add_listener(this);
  }
  void evaluate(Kernel& kernel) override {
    if (kernel.changed(clock_) && !clock_.value().bit_at(0) && !fired_) {
      fired_ = true;
      kernel.schedule(enable_, Bits::bit(true), half_period_);
      kernel.schedule(enable_, Bits::bit(false), half_period_ + 1);
    }
  }

 private:
  Net& clock_;
  Net& enable_;
  Time half_period_;
  bool fired_ = false;
};

TEST(GatedRegister, EnableCommittedInTheClockEdgeBatchStillLoads) {
  Netlist netlist;
  Net& clock = netlist.create_net("clk", 1);
  Net& d = netlist.create_net("d", 8);
  Net& en = netlist.create_net("en", 1);
  Net& q = netlist.create_net("q", 8);
  netlist.add_component<ops::ClockGen>("cg", clock, 10, 4);
  netlist.add_component<EnableOnNextEdge>(clock, en, 5);
  ops::Register& reg =
      netlist.add_component<ops::Register>("r", clock, d, q, &en);
  Probe& probe = netlist.add_component<Probe>("pq", q);
  Kernel kernel(netlist);
  kernel.preset(d, Bits(8, 42));
  kernel.run();
  EXPECT_EQ(reg.load_count(), 1u);
  ASSERT_EQ(probe.samples().size(), 1u);
  EXPECT_EQ(probe.samples()[0].time, 15u);
  EXPECT_EQ(probe.samples()[0].value.u(), 42u);
}

TEST(GatedRegister, PresetEnableLoadsAtTheFirstEdge) {
  // One register is built before the enable is preset, one after it.
  Netlist netlist;
  Net& clock = netlist.create_net("clk", 1);
  Net& d = netlist.create_net("d", 8);
  Net& en = netlist.create_net("en", 1);
  Net& q = netlist.create_net("q", 8);
  Net& q_late = netlist.create_net("q_late", 8);
  netlist.add_component<ops::ClockGen>("cg", clock, 10, 1);
  ops::Register& reg =
      netlist.add_component<ops::Register>("r", clock, d, q, &en);
  Kernel kernel(netlist);
  kernel.preset(en, Bits::bit(true));
  kernel.preset(d, Bits(8, 42));
  ops::Register& late =
      netlist.add_component<ops::Register>("r_late", clock, d, q_late, &en);
  kernel.run();
  EXPECT_EQ(reg.load_count(), 1u);
  EXPECT_EQ(q.u(), 42u);
  EXPECT_EQ(late.load_count(), 1u);
  EXPECT_EQ(q_late.u(), 42u);
}

/// Evaluations of `count` registers whose enables stay 0 for 50 cycles.
std::uint64_t idle_register_evaluations(std::size_t count) {
  Netlist netlist;
  Net& clock = netlist.create_net("clk", 1);
  netlist.add_component<ops::ClockGen>("cg", clock, 10, 50);
  for (std::size_t i = 0; i < count; ++i) {
    std::string tag = std::to_string(i);
    netlist.add_component<ops::Register>(
        "r" + tag, clock, netlist.create_net("d" + tag, 8),
        netlist.create_net("q" + tag, 8), &netlist.create_net("en" + tag, 1),
        &netlist.create_net("rst" + tag, 1));
  }
  Kernel kernel(netlist);
  kernel.run();
  return kernel.stats().evaluations;
}

TEST(GatedRegister, NeverEnabledRegistersCostNoEvaluations) {
  std::uint64_t one = idle_register_evaluations(1);
  EXPECT_EQ(idle_register_evaluations(64), one);
  EXPECT_EQ(idle_register_evaluations(256), one);
}

/// Counts its wakeups.
class WakeCounter : public Component {
 public:
  WakeCounter() : Component("wake_counter") {}
  void evaluate(Kernel&) override { ++wakes; }
  std::uint64_t wakes = 0;
};

TEST(GatedListener, WokenWhileAnyGateIsNonzero) {
  Netlist netlist;
  Net& clock = netlist.create_net("clk", 1);
  Net& g1 = netlist.create_net("g1", 4);
  Net& g2 = netlist.create_net("g2", 1);
  netlist.add_component<ops::ClockGen>("cg", clock, 10, 6);
  // Edges at 5, 15, 25, 35, 45, 55: gates (g1, g2) are (0,0), (3,0),
  // (3,1), (0,1), (2,0) -- a nonzero value other than 1 -- and (0,0).
  netlist.add_component<Scripted>(
      g1, std::vector<std::pair<Time, Bits>>{
              {10, Bits(4, 3)}, {30, Bits(4, 0)}, {40, Bits(4, 2)},
              {50, Bits(4, 0)}});
  netlist.add_component<Scripted>(
      g2, std::vector<std::pair<Time, Bits>>{{20, Bits::bit(true)},
                                             {40, Bits::bit(false)}});
  WakeCounter& gated = netlist.add_component<WakeCounter>();
  clock.add_listener(&gated, Listen::kRising, {&g1, nullptr, &g2});
  // A second registration of the same component ungates it.
  WakeCounter& regated = netlist.add_component<WakeCounter>();
  clock.add_listener(&regated, Listen::kRising, {&g1});
  clock.add_listener(&regated, Listen::kRising);
  Kernel kernel(netlist);
  kernel.run();
  EXPECT_EQ(gated.wakes, 4u);
  EXPECT_EQ(regated.wakes, 6u);
}

TEST(KernelStats, CountsActivity) {
  Netlist netlist;
  Net& clock = netlist.create_net("clk", 1);
  netlist.add_component<ops::ClockGen>("cg", clock, 10, 4);
  Kernel kernel(netlist);
  kernel.run();
  const KernelStats& stats = kernel.stats();
  EXPECT_GE(stats.events, 7u);  // 4 rises + 3 falls at minimum
  EXPECT_GT(stats.evaluations, 0u);
  EXPECT_GT(stats.delta_cycles, 0u);
  EXPECT_GT(stats.timesteps, 1u);
}

}  // namespace
}  // namespace fti::sim
