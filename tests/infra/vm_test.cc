/**
 * @file
 * Tests for the VM power-state machine.
 */

#include <gtest/gtest.h>

#include "infra/vm.hh"

namespace vcp {
namespace {

TEST(VmTest, StartsPoweredOff)
{
    Vm vm;
    EXPECT_EQ(vm.powerState(), PowerState::PoweredOff);
}

TEST(VmTest, FullPowerOnOffCycle)
{
    Vm vm;
    EXPECT_TRUE(vm.transitionTo(PowerState::PoweringOn));
    EXPECT_TRUE(vm.transitionTo(PowerState::PoweredOn));
    EXPECT_TRUE(vm.transitionTo(PowerState::PoweringOff));
    EXPECT_TRUE(vm.transitionTo(PowerState::PoweredOff));
}

TEST(VmTest, CannotPowerOnTwice)
{
    Vm vm;
    vm.transitionTo(PowerState::PoweringOn);
    vm.transitionTo(PowerState::PoweredOn);
    EXPECT_FALSE(vm.canTransitionTo(PowerState::PoweringOn));
    EXPECT_FALSE(vm.transitionTo(PowerState::PoweringOn));
    EXPECT_EQ(vm.powerState(), PowerState::PoweredOn);
}

TEST(VmTest, PoweringOnCanFailBackToOff)
{
    Vm vm;
    vm.transitionTo(PowerState::PoweringOn);
    EXPECT_TRUE(vm.transitionTo(PowerState::PoweredOff));
}

TEST(VmTest, CannotSkipTransitionalStates)
{
    Vm vm;
    EXPECT_FALSE(vm.canTransitionTo(PowerState::PoweredOn));
    EXPECT_FALSE(vm.canTransitionTo(PowerState::PoweringOff));
}

TEST(VmTest, TemplatesNeverTransition)
{
    Vm vm;
    vm.is_template = true;
    EXPECT_FALSE(vm.canTransitionTo(PowerState::PoweringOn));
}

TEST(VmTest, ForcePowerStateBypassesChecks)
{
    Vm vm;
    vm.forcePowerState(PowerState::PoweredOn);
    EXPECT_EQ(vm.powerState(), PowerState::PoweredOn);
}

TEST(VmTest, PowerStateNames)
{
    EXPECT_STREQ(powerStateName(PowerState::PoweredOff), "poweredOff");
    EXPECT_STREQ(powerStateName(PowerState::PoweringOn), "poweringOn");
    EXPECT_STREQ(powerStateName(PowerState::PoweredOn), "poweredOn");
}

} // namespace
} // namespace vcp
