#include "fti/ops/register.hpp"

#include "fti/util/error.hpp"

namespace fti::ops {

Register::Register(std::string name, sim::Net& clock, sim::Net& d,
                   sim::Net& q, sim::Net* enable, sim::Net* reset,
                   sim::Bits reset_value)
    : Component(std::move(name)), clock_(clock), d_(d), q_(q),
      enable_(enable), reset_(reset),
      reset_value_(reset_value.resized(q.width())) {
  FTI_ASSERT(d_.width() == q_.width(),
             "register '" + this->name() + "' d/q width mismatch");
  // With an enable, the register sleeps through edges where both enable
  // and reset are 0 -- the edges evaluate() would ignore.  Without one it
  // loads on every edge, so every edge must wake it.
  if (enable_ != nullptr) {
    clock_.add_listener(this, sim::Listen::kRising, {enable_, reset_});
  } else {
    clock_.add_listener(this, sim::Listen::kRising);
  }
}

void Register::initialize(sim::Kernel& kernel) {
  // Registers power up holding their reset value, mirroring FPGA flops
  // initialised by the bitstream.
  kernel.schedule(q_, reset_value_, 0);
}

void Register::evaluate(sim::Kernel& kernel) {
  if (!kernel.rising(clock_)) {
    return;
  }
  if (reset_ != nullptr && !reset_->value().is_zero()) {
    kernel.schedule(q_, reset_value_, 0);
    return;
  }
  if (enable_ != nullptr && enable_->value().is_zero()) {
    return;
  }
  ++loads_;
  kernel.schedule(q_, d_.value(), 0);
}

}  // namespace fti::ops
