#include "fti/sim/kernel.hpp"

#include <bit>

#include "fti/util/error.hpp"

namespace fti::sim {

void Kernel::schedule(Net& net, const Bits& value, Time delay) {
  Event event{now_ + delay, ++seq_, &net, value};
  if (delay == 0) {
    next_delta_.push_back(std::move(event));
  } else {
    wheel_.push(std::move(event));
  }
}

void Kernel::preset(Net& net, const Bits& value) {
  if (initialized_) {
    throw util::SimError("preset() of net '" + net.name() +
                         "' after the run started -- use schedule()");
  }
  bool was_zero = net.value().is_zero();
  net.preset(value);
  if (was_zero != net.value().is_zero()) {
    gate_crossed(net, was_zero);
  }
}

void Kernel::gate_crossed(Net& net, bool was_zero) {
  for (const GateRef& ref : net.gated_) {
    std::uint32_t& active = ref.owner->listeners_[ref.listener].active_gates;
    active = was_zero ? active + 1 : active - 1;
    ref.owner->sync_rise_wake(ref.listener);
  }
}

void Kernel::request_stop(std::string reason) {
  stop_requested_ = true;
  stop_message_ = std::move(reason);
}

void Kernel::initialize_components() {
  initialized_ = true;
  stats_.timesteps = 1;
  for (const auto& component : netlist_.components()) {
    component->initialize(*this);
  }
}

void Kernel::apply_batch(const std::vector<Event>& batch) {
  ++activation_id_;
  ++stats_.delta_cycles;
  wake_list_.clear();
  changes_.clear();
  for (const Event& event : batch) {
    ++stats_.events;
    Net& net = *event.net;
    bool was_zero = net.value().is_zero();
    if (net.commit(event.value, activation_id_)) {
      changes_.push_back(
          {&net, !net.prev_value().bit_at(0) && net.value().bit_at(0)});
      if (was_zero != net.value().is_zero()) {
        gate_crossed(net, was_zero);
      }
    }
  }
  // Wakes are collected only once the whole batch has committed, so a
  // gate changing in the same batch as the clock counts with its new value.
  for (const Change& change : changes_) {
    const Net& net = *change.net;
    const std::vector<std::uint64_t>& wakes =
        change.rose ? net.rise_wake_ : net.any_wake_;
    for (std::size_t word = 0; word < wakes.size(); ++word) {
      for (std::uint64_t bits = wakes[word]; bits != 0; bits &= bits - 1) {
        Component* component =
            net.listeners_[word * 64 + std::countr_zero(bits)].component;
        // A component woken by several nets still evaluates once: the
        // activation stamp deduplicates in O(1) per listener.
        if (component->wake_stamp_ != activation_id_) {
          component->wake_stamp_ = activation_id_;
          wake_list_.push_back(component);
        }
      }
    }
  }
}

Kernel::StopReason Kernel::run(Time max_time, const Net* done_net) {
  // Clear any stop left over from a previous run() BEFORE initialization,
  // so a request_stop() issued from a component's initialize() is honoured
  // instead of silently discarded.
  stop_requested_ = false;
  if (!initialized_) {
    initialize_components();
    if (stop_requested_) {
      stats_.end_time = now_;
      if (tracer_ != nullptr) {
        tracer_->on_finish(now_);
      }
      return StopReason::kStopped;
    }
  }
  std::uint32_t deltas_this_step = 0;
  std::vector<Event> batch;
  for (;;) {
    batch.clear();
    if (!next_delta_.empty()) {
      batch.swap(next_delta_);
      ++deltas_this_step;
      if (deltas_this_step > max_deltas_) {
        throw util::SimError(
            "delta-cycle limit exceeded at t=" + std::to_string(now_) +
            " -- combinational loop in the design?");
      }
    } else {
      if (wheel_.empty()) {
        stats_.end_time = now_;
        if (tracer_ != nullptr) {
          tracer_->on_finish(now_);
        }
        return StopReason::kIdle;
      }
      Time next_time = wheel_.next_time();
      if (next_time > max_time) {
        now_ = max_time;
        stats_.end_time = now_;
        if (tracer_ != nullptr) {
          tracer_->on_finish(now_);
        }
        return StopReason::kMaxTime;
      }
      if (next_time > now_) {
        now_ = next_time;
        ++stats_.timesteps;
        deltas_this_step = 0;
      }
      // Events pop in (time, seq) order, so commits inside the batch apply
      // in scheduling order -- deterministic last-writer-wins.
      wheel_.pop_time(next_time, batch);
      ++deltas_this_step;
    }

    apply_batch(batch);
    for (Component* component : wake_list_) {
      ++stats_.evaluations;
      component->evaluate(*this);
    }
    if (tracer_ != nullptr) {
      for (const Change& change : changes_) {
        tracer_->on_change(now_, *change.net);
      }
    }
    if (stop_requested_) {
      stats_.end_time = now_;
      if (tracer_ != nullptr) {
        tracer_->on_finish(now_);
      }
      return StopReason::kStopped;
    }
    if (done_net != nullptr && !done_net->value().is_zero()) {
      stats_.end_time = now_;
      if (tracer_ != nullptr) {
        tracer_->on_finish(now_);
      }
      return StopReason::kDoneNet;
    }
  }
}

const char* to_string(Kernel::StopReason reason) {
  switch (reason) {
    case Kernel::StopReason::kIdle:
      return "idle";
    case Kernel::StopReason::kDoneNet:
      return "done";
    case Kernel::StopReason::kMaxTime:
      return "max-time";
    case Kernel::StopReason::kStopped:
      return "stopped";
  }
  return "?";
}

}  // namespace fti::sim
