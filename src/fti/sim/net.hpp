// Net: a named, typed signal connecting components.
//
// Nets hold the current value plus the previous value and the id of the
// kernel activation that last changed them, which is what lets clocked
// components detect edges ("did this net rise in the delta that woke me?").
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "fti/sim/bits.hpp"

namespace fti::sim {

class Component;
class Kernel;
class Net;

/// How a listener wants to be woken: on any value change, or only when
/// bit 0 rises (clocked components -- skipping falling edges halves the
/// wake traffic of every register in the design).
enum class Listen { kAny, kRising };

struct ListenerRec {
  Component* component;
  Listen mode;
  /// Number of gate nets named at registration; 0 = ungated.
  std::uint32_t gates = 0;
  /// How many of the gate nets are nonzero: counted at registration, then
  /// kept current by the kernel on every commit or preset of a gate.
  std::uint32_t active_gates = 0;

  /// A gated listener sleeps through rising edges while every gate is 0.
  bool gated_off() const { return gates != 0 && active_gates == 0; }
};

/// A gate net's link to the listener it gates: entry `listener` of
/// `owner`'s listener list.
struct GateRef {
  Net* owner;
  std::uint32_t listener;
};

class Net {
 public:
  Net(std::string name, std::uint32_t width, std::uint32_t id)
      : name_(std::move(name)), id_(id), value_(width, 0), prev_(width, 0) {}

  Net(const Net&) = delete;
  Net& operator=(const Net&) = delete;

  const std::string& name() const { return name_; }
  std::uint32_t id() const { return id_; }
  std::uint32_t width() const { return value_.width(); }

  const Bits& value() const { return value_; }
  const Bits& prev_value() const { return prev_; }

  /// Convenience unsigned read.
  std::uint64_t u() const { return value_.u(); }
  std::int64_t s() const { return value_.s(); }

  /// Registers a component to be re-evaluated when this net changes
  /// (mode kAny) or only on a 0->1 transition of bit 0 (mode kRising).
  /// A kRising listener may name gate nets: it is then woken on a rising
  /// edge only while at least one gate is nonzero (a register with an
  /// enable sleeps through the edges it would ignore).  Null gates are
  /// skipped, so optional ports can be passed as they are.  Duplicate
  /// registrations of the same component are collapsed, the widest
  /// winning: kAny over kRising, ungated over gated.
  void add_listener(Component* component, Listen mode = Listen::kAny,
                    std::initializer_list<Net*> gates = {});

  /// True when the last change to this net happened in activation `id`
  /// and was a 0 -> 1 transition of bit 0.  Used for clock/enable edges.
  bool rose_in(std::uint64_t activation_id) const {
    return last_change_ == activation_id && !prev_.bit_at(0) &&
           value_.bit_at(0);
  }

  bool fell_in(std::uint64_t activation_id) const {
    return last_change_ == activation_id && prev_.bit_at(0) &&
           !value_.bit_at(0);
  }

  bool changed_in(std::uint64_t activation_id) const {
    return last_change_ == activation_id;
  }

 private:
  friend class Kernel;

  /// Kernel-only: commits a new value.  Returns false when nothing changed
  /// (the fanout is then not activated).
  bool commit(const Bits& next, std::uint64_t activation_id);

  /// Kernel-only: sets the value directly without scheduling, used to load
  /// initial state before time zero.
  void preset(const Bits& value);

  static void set_bit(std::vector<std::uint64_t>& set, std::uint32_t index,
                      bool on);

  /// Kernel-only: brings listener `index`'s bit in rise_wake_ in line with
  /// its gate count.
  void sync_rise_wake(std::uint32_t index) {
    set_bit(rise_wake_, index, !listeners_[index].gated_off());
  }

  std::string name_;
  std::uint32_t id_;
  Bits value_;
  Bits prev_;
  std::uint64_t last_change_ = 0;
  std::vector<ListenerRec> listeners_;
  /// Wake sets over listeners_, one bit per listener in listener order:
  /// `any_wake_` marks the kAny listeners, `rise_wake_` every listener a
  /// rising edge wakes now (kAny, ungated kRising, and gated kRising with
  /// a nonzero gate).  The kernel visits only set bits, so a gated-off
  /// register costs nothing at the edge.
  std::vector<std::uint64_t> any_wake_;
  std::vector<std::uint64_t> rise_wake_;
  /// Listeners on other nets that this net gates.
  std::vector<GateRef> gated_;
};

}  // namespace fti::sim
