/**
 * @file
 * Randomized operation-storm fuzzing of the management server.
 *
 * Issues a large stream of randomly parameterized operations — a
 * deliberate mix of valid and invalid — lets everything drain, and
 * then checks global invariants:
 *
 *   - op accounting: submitted == completed + failed
 *   - no lock, dispatch slot, agent slot, or DB connection leaked
 *   - datastore space equals the sum of resident disk allocations
 *   - host commitments equal the sum of powered-on VM footprints
 *   - disk reference counts equal the number of child disks
 *
 * Any resource leak on any failure path shows up here.
 */

#include "integration/op_fuzzer.hh"

namespace vcp {
namespace {

class FuzzTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(FuzzTest, InvariantsHoldAfterRandomStorm)
{
    OpFuzzer fuzzer(GetParam());
    // Spread phase: ops trickle in over two hours.
    fuzzer.storm(1500, hours(2));
    fuzzer.checkInvariants();
    // Burst phase: dense contention — many ops racing for the same
    // entities and lock queues (where destroy-vs-user races live).
    fuzzer.storm(600, minutes(2));
    fuzzer.checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 23u, 99u,
                                           1234u, 31337u));

} // namespace
} // namespace vcp
