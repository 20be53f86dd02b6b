#include "fti/sim/net.hpp"

#include <algorithm>

#include "fti/util/error.hpp"

namespace fti::sim {

void Net::add_listener(Component* component, Listen mode,
                       std::initializer_list<Net*> gates) {
  FTI_ASSERT(component != nullptr, "null listener on net " + name_);
  for (ListenerRec& rec : listeners_) {
    if (rec.component == component) {
      if (mode == Listen::kAny) {
        rec.mode = Listen::kAny;  // widen
      }
      rec.gates = 0;  // a second registration wakes on every edge
      auto index = static_cast<std::uint32_t>(&rec - listeners_.data());
      set_bit(any_wake_, index, rec.mode == Listen::kAny);
      sync_rise_wake(index);
      return;
    }
  }
  ListenerRec rec{component, mode};
  auto index = static_cast<std::uint32_t>(listeners_.size());
  for (Net* gate : gates) {
    if (gate != nullptr) {
      FTI_ASSERT(mode == Listen::kRising,
                 "gated listener on net " + name_ + " must be kRising");
      gate->gated_.push_back({this, index});
      ++rec.gates;
      rec.active_gates += gate->value().is_zero() ? 0 : 1;
    }
  }
  listeners_.push_back(rec);
  any_wake_.resize(index / 64 + 1, 0);
  rise_wake_.resize(index / 64 + 1, 0);
  set_bit(any_wake_, index, mode == Listen::kAny);
  sync_rise_wake(index);
}

void Net::set_bit(std::vector<std::uint64_t>& set, std::uint32_t index,
                  bool on) {
  std::uint64_t bit = std::uint64_t{1} << (index % 64);
  set[index / 64] = on ? set[index / 64] | bit : set[index / 64] & ~bit;
}

bool Net::commit(const Bits& next, std::uint64_t activation_id) {
  FTI_ASSERT(next.width() == value_.width(),
             "width mismatch driving net " + name_ + ": driving " +
                 std::to_string(next.width()) + " bits onto " +
                 std::to_string(value_.width()));
  if (next == value_) {
    return false;
  }
  prev_ = value_;
  value_ = next;
  last_change_ = activation_id;
  return true;
}

void Net::preset(const Bits& value) {
  FTI_ASSERT(value.width() == value_.width(),
             "width mismatch presetting net " + name_);
  value_ = value;
  prev_ = value;
}

}  // namespace fti::sim
