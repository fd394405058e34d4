#include "infra/vm.hh"

namespace vcp {

const char *
powerStateName(PowerState s)
{
    switch (s) {
      case PowerState::PoweredOff:
        return "poweredOff";
      case PowerState::PoweringOn:
        return "poweringOn";
      case PowerState::PoweredOn:
        return "poweredOn";
      case PowerState::PoweringOff:
        return "poweringOff";
    }
    return "unknown";
}

bool
Vm::canTransitionTo(PowerState target) const
{
    if (is_template)
        return false;
    switch (power) {
      case PowerState::PoweredOff:
        return target == PowerState::PoweringOn;
      case PowerState::PoweringOn:
        return target == PowerState::PoweredOn ||
               target == PowerState::PoweredOff;
      case PowerState::PoweredOn:
        return target == PowerState::PoweringOff;
      case PowerState::PoweringOff:
        return target == PowerState::PoweredOff;
    }
    return false;
}

bool
Vm::transitionTo(PowerState target)
{
    if (!canTransitionTo(target))
        return false;
    power = target;
    return true;
}

} // namespace vcp
