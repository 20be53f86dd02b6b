// Event-driven simulation kernel (the role Hades plays in the paper).
//
// Execution model:
//  * Components never write nets; they schedule updates.  A zero delay
//    means "next delta cycle at the current time"; a positive delay moves
//    the update into the future.
//  * At each (time, delta) the kernel commits the whole batch of
//    scheduled updates, then wakes the listeners of every net that
//    actually changed (in commit order) and evaluates each listener once.
//    New zero-delay updates form the next delta; when no delta remains,
//    time advances to the earliest event.
//  * Gated rising-edge listeners (registers with an enable) are woken
//    only while one of their gate nets is nonzero.  The kernel keeps a
//    count of nonzero gates per listener, updated whenever a commit or a
//    preset moves a gate net across zero; because the whole batch commits
//    before any wake, a gate changing in the same batch as the clock
//    counts with its new value, exactly as the listener's own check would
//    read it.
//  * A per-timestep delta limit converts combinational loops into a
//    SimError instead of a hang -- a test infrastructure must fail loudly.
//  * Timed events live in a bucketed calendar queue (see event_wheel.hpp)
//    rather than a binary heap: pushes and batch pops are O(1) for the
//    dense near-future events logic simulation produces.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "fti/sim/bits.hpp"
#include "fti/sim/event_wheel.hpp"
#include "fti/sim/net.hpp"
#include "fti/sim/netlist.hpp"

namespace fti::sim {

/// Simulation time in abstract units (one clock period is typically 10).
using Time = std::uint64_t;

inline constexpr Time kNoTimeLimit = std::numeric_limits<Time>::max();

struct KernelStats {
  std::uint64_t events = 0;        ///< net updates committed
  std::uint64_t evaluations = 0;   ///< component evaluate() calls
  std::uint64_t delta_cycles = 0;  ///< activation batches processed
  std::uint64_t timesteps = 0;     ///< distinct simulation times visited
  Time end_time = 0;               ///< time when the run stopped
};

/// Observer for net changes (VCD writer, probes-by-polling, GUIs).
class Tracer {
 public:
  virtual ~Tracer() = default;
  /// Called once per net per batch after the batch committed.
  virtual void on_change(Time time, const Net& net) = 0;
  /// Called when the run loop returns.
  virtual void on_finish(Time time) { (void)time; }
};

class Kernel {
 public:
  enum class StopReason {
    kIdle,     ///< event queue drained -- nothing left to simulate
    kDoneNet,  ///< the designated done net went nonzero
    kMaxTime,  ///< the time limit was reached
    kStopped,  ///< a component requested a stop (stop controller)
  };

  explicit Kernel(Netlist& netlist) : netlist_(netlist) {}

  Netlist& netlist() { return netlist_; }

  /// Schedules `value` onto `net` after `delay` time units (0 = next delta).
  void schedule(Net& net, const Bits& value, Time delay);

  /// Sets a net's value before the run starts (initial memory-mapped
  /// registers, reset lines).  Throws SimError when called after run()
  /// has started -- a silent preset mid-run would bypass the event order.
  void preset(Net& net, const Bits& value);

  Time now() const { return now_; }

  /// Identifier of the activation batch currently being evaluated.
  std::uint64_t activation_id() const { return activation_id_; }

  /// Edge/change queries valid from inside Component::evaluate().
  bool rising(const Net& net) const { return net.rose_in(activation_id_); }
  bool falling(const Net& net) const { return net.fell_in(activation_id_); }
  bool changed(const Net& net) const {
    return net.changed_in(activation_id_);
  }

  /// Components call this to end the run (stop mechanisms, paper §1).
  void request_stop(std::string reason);

  const std::string& stop_message() const { return stop_message_; }

  /// Runs until one of the stop conditions hits.  May be called again to
  /// continue (e.g. after inspecting state at a breakpoint).
  StopReason run(Time max_time = kNoTimeLimit, const Net* done_net = nullptr);

  const KernelStats& stats() const { return stats_; }

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Delta-cycle limit per timestep (default 65536).
  void set_max_deltas(std::uint32_t max_deltas) { max_deltas_ = max_deltas; }

 private:
  /// One commit that changed its net; `rose` is whether that commit
  /// raised bit 0 (a net may change twice in one batch).
  struct Change {
    const Net* net;
    bool rose;
  };

  void initialize_components();
  /// Updates the gate counts (and rising wake bits) of the listeners
  /// `net` gates, after `net` crossed zero; `was_zero` is its old state.
  void gate_crossed(Net& net, bool was_zero);
  /// Commits one batch of updates, then collects the woken components.
  void apply_batch(const std::vector<Event>& batch);

  Netlist& netlist_;
  EventWheel wheel_;
  std::vector<Event> next_delta_;
  std::vector<Component*> wake_list_;
  std::vector<Change> changes_;
  Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t activation_id_ = 0;
  std::uint32_t max_deltas_ = 65536;
  bool initialized_ = false;
  bool stop_requested_ = false;
  std::string stop_message_;
  KernelStats stats_;
  Tracer* tracer_ = nullptr;
};

const char* to_string(Kernel::StopReason reason);

}  // namespace fti::sim
