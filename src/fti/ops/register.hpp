// Clocked register with enable and synchronous reset -- the storage element
// behind every compiler-allocated variable.
#pragma once

#include "fti/sim/component.hpp"
#include "fti/sim/kernel.hpp"

namespace fti::ops {

class Register : public sim::Component {
 public:
  /// `enable` and `reset` may be nullptr (always-enabled / never reset).
  /// On a rising clock edge: reset wins over enable; the captured data is
  /// the pre-edge value of `d` (the register is only sensitive to the
  /// clock, so classic synchronous semantics hold).  A register with an
  /// enable is woken only on edges where enable or reset is nonzero.
  Register(std::string name, sim::Net& clock, sim::Net& d, sim::Net& q,
           sim::Net* enable = nullptr, sim::Net* reset = nullptr,
           sim::Bits reset_value = sim::Bits());

  void initialize(sim::Kernel& kernel) override;
  void evaluate(sim::Kernel& kernel) override;

  std::uint64_t load_count() const { return loads_; }

 private:
  sim::Net& clock_;
  sim::Net& d_;
  sim::Net& q_;
  sim::Net* enable_;
  sim::Net* reset_;
  sim::Bits reset_value_;
  std::uint64_t loads_ = 0;
};

}  // namespace fti::ops
