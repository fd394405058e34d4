/**
 * @file
 * Prints the finished-task stream of one op-storm seed: one CSV row
 * per task in finish order with its id, op type, error, latency and
 * per-phase times.  The golden suite digests the stream of seed 17,
 * in which each of the 14 op types fails and all but migrate also
 * succeed; it is the byte-identity oracle for the ops' error paths
 * and for the verbs the vcpsim profiles never issue (clone-full
 * without --full-clones, relocate, add-host without crashes, the
 * maintenance pair).
 *
 * Usage: golden_opstorm SEED
 */

#include <cstdio>

#include "integration/op_fuzzer.hh"
#include "sim/parse_util.hh"

int
main(int argc, char **argv)
{
    using namespace vcp;
    std::uint64_t seed = 0;
    if (argc != 2 || !parseStrictU64(argv[1], seed)) {
        std::fprintf(stderr, "usage: golden_opstorm SEED\n");
        return 2;
    }
    OpFuzzer fuzzer(seed);
    std::printf("id,op,error,latency_us");
    for (std::size_t p = 0; p < kNumTaskPhases; ++p)
        std::printf(",%s_us", taskPhaseName(static_cast<TaskPhase>(p)));
    std::printf("\n");
    fuzzer.server().setTaskObserver([](const Task &t) {
        std::printf("%lld,%s,%s,%lld", (long long)t.id().value,
                    opTypeName(t.type()), taskErrorName(t.error()),
                    (long long)t.latency());
        for (std::size_t p = 0; p < kNumTaskPhases; ++p) {
            std::printf(",%lld", (long long)t.phaseTime(
                                     static_cast<TaskPhase>(p)));
        }
        std::printf("\n");
    });
    // The same two storms the fuzz test runs: a spread phase, then a
    // dense burst.
    fuzzer.storm(1500, hours(2));
    fuzzer.storm(600, minutes(2));
    return 0;
}
