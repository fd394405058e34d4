/**
 * @file
 * TraceRing unit tests: push/wrap/snapshot semantics and the
 * hot-path guard macro.
 */

#include <cstdint>
#include <limits>
#include <new>

#include <gtest/gtest.h>

#include "trace/ring.hh"

namespace vcp {
namespace {

SpanRecord
rec(SimTime start, std::int64_t scope)
{
    SpanRecord r;
    r.start = start;
    r.duration = 1;
    r.scope = scope;
    r.kind = SpanKind::Span;
    return r;
}

TEST(TraceRing, StartsEmptyAndDisabled)
{
    TraceRing ring(8);
    EXPECT_FALSE(ring.enabled());
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.capacity(), 8u);
    EXPECT_EQ(ring.totalRecorded(), 0u);
    EXPECT_EQ(ring.dropped(), 0u);
    EXPECT_TRUE(ring.snapshot().empty());
}

TEST(TraceRing, PushBelowCapacityKeepsEverythingInOrder)
{
    TraceRing ring(8);
    for (int i = 0; i < 5; ++i)
        ring.push(rec(i * 10, i));

    EXPECT_EQ(ring.size(), 5u);
    EXPECT_EQ(ring.totalRecorded(), 5u);
    EXPECT_EQ(ring.dropped(), 0u);

    auto snap = ring.snapshot();
    ASSERT_EQ(snap.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(snap[i].start, i * 10);
        EXPECT_EQ(snap[i].scope, i);
    }
}

TEST(TraceRing, WrapDropsOldestKeepsNewestWindow)
{
    TraceRing ring(4);
    for (int i = 0; i < 10; ++i)
        ring.push(rec(i, i));

    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.totalRecorded(), 10u);
    EXPECT_EQ(ring.dropped(), 6u);

    // Snapshot is oldest-first over the surviving window: 6, 7, 8, 9.
    auto snap = ring.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(snap[i].scope, 6 + i);
}

TEST(TraceRing, WrapExactlyAtCapacityBoundary)
{
    TraceRing ring(4);
    for (int i = 0; i < 4; ++i)
        ring.push(rec(i, i));
    // Full but nothing lost yet.
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.dropped(), 0u);
    EXPECT_EQ(ring.snapshot().front().scope, 0);

    ring.push(rec(4, 4));
    EXPECT_EQ(ring.dropped(), 1u);
    EXPECT_EQ(ring.snapshot().front().scope, 1);
    EXPECT_EQ(ring.snapshot().back().scope, 4);
}

TEST(TraceRing, ZeroCapacityIsInert)
{
    TraceRing ring(0);
    ring.push(rec(1, 1));
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.totalRecorded(), 0u);
    EXPECT_TRUE(ring.snapshot().empty());
}

TEST(TraceRing, CapacityPastTheAddressSpaceThrows)
{
    // 2^59 + 1 records of 32 bytes wrap a 64-bit byte count to 32:
    // the ring refuses instead of allocating one record's worth.
    const std::size_t too_many =
        std::numeric_limits<std::size_t>::max() / sizeof(SpanRecord) + 1;
    EXPECT_THROW(TraceRing{too_many}, std::bad_array_new_length);
    EXPECT_THROW(TraceRing{std::numeric_limits<std::size_t>::max()},
                 std::bad_array_new_length);
}

TEST(TraceRing, ClearForgetsRecordsKeepsCapacity)
{
    TraceRing ring(4);
    for (int i = 0; i < 6; ++i)
        ring.push(rec(i, i));
    ring.clear();

    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.totalRecorded(), 0u);
    EXPECT_EQ(ring.dropped(), 0u);
    EXPECT_EQ(ring.capacity(), 4u);

    ring.push(rec(99, 99));
    auto snap = ring.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].scope, 99);
}

TEST(TraceRing, GuardMacroTracksPointerAndEnable)
{
    TraceRing *none = nullptr;
    EXPECT_FALSE(VCP_TRACE_ON(none));

    TraceRing ring(4);
    TraceRing *p = &ring;
    EXPECT_FALSE(VCP_TRACE_ON(p)); // attached but disabled
    ring.setEnabled(true);
    EXPECT_TRUE(VCP_TRACE_ON(p));
    ring.setEnabled(false);
    EXPECT_FALSE(VCP_TRACE_ON(p));
}

TEST(TraceRing, RecordLayoutStaysCompact)
{
    // The ring is sized in records; keep the record 32 bytes so a
    // 1M-slot ring stays at 32 MiB.
    EXPECT_EQ(sizeof(SpanRecord), 32u);
}

TEST(TraceRing, SlotsAreSixteenByteAligned)
{
    // push() covers a record with two 16-byte streaming stores, which
    // need 16-byte aligned slots.
    for (std::size_t cap : {1u, 3u, 4096u}) {
        TraceRing ring(cap);
        for (std::size_t i = 0; i < cap; ++i)
            ring.push(rec(static_cast<SimTime>(i), 0));
        std::size_t seen = 0;
        ring.forEach([&](const SpanRecord &r) {
            EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&r) % 16, 0u);
            EXPECT_EQ(r.start, static_cast<SimTime>(seen));
            ++seen;
        });
        EXPECT_EQ(seen, cap);
    }
}

} // namespace
} // namespace vcp
