/**
 * @file
 * Unit tests for sim::InlineFunction, the move-only small-buffer
 * callable on the simulator's completion paths.
 *
 * Exercises both storage strategies: inline placement for captures
 * within the byte budget, and the heap-box fallback for oversized,
 * over-aligned, or potentially-throwing-move captures. The fallback is
 * what oversized completion captures (the virtual-cache bridge) rely
 * on, and a silent truncation or slice there would corrupt the walk
 * path. Moves take two routes as well: trivially copyable captures
 * (and heap boxes) relocate by copying the buffer, the rest through
 * their move constructor; both must keep state and destroy once.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/inline_function.hh"

namespace {

using gpuwalk::sim::InlineFunction;

/** Counts constructions/destructions to prove destroy-once. */
struct Counted
{
    static int live;
    static int moves;

    Counted() { ++live; }
    Counted(const Counted &) { ++live; }
    Counted(Counted &&) noexcept
    {
        ++live;
        ++moves;
    }
    ~Counted() { --live; }
};

int Counted::live = 0;
int Counted::moves = 0;

TEST(InlineFunction, EmptyByDefaultAndAfterReset)
{
    InlineFunction<int()> fn;
    EXPECT_FALSE(static_cast<bool>(fn));
    fn = [] { return 7; };
    EXPECT_TRUE(static_cast<bool>(fn));
    EXPECT_EQ(fn(), 7);
    fn.reset();
    EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(InlineFunction, SmallCaptureStoresInline)
{
    // A capture within the default 48-byte budget must not allocate;
    // observable proxy: the callable works after a move even when the
    // source object's storage is reused.
    std::uint64_t a = 3, b = 4;
    InlineFunction<std::uint64_t()> fn = [a, b] { return a * b; };
    EXPECT_EQ(fn(), 12u);

    InlineFunction<std::uint64_t()> moved = std::move(fn);
    EXPECT_FALSE(static_cast<bool>(fn));
    EXPECT_EQ(moved(), 12u);
}

TEST(InlineFunction, OversizedCaptureFallsBackToHeapBox)
{
    // 128 bytes of capture blows the 48-byte budget: the callable must
    // still work, via the boxed path.
    std::array<std::uint64_t, 16> big{};
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = i + 1;
    InlineFunction<std::uint64_t()> fn = [big] {
        std::uint64_t sum = 0;
        for (const auto v : big)
            sum += v;
        return sum;
    };
    EXPECT_EQ(fn(), 136u); // 1 + 2 + ... + 16

    // Boxed relocate is a pointer handoff: moving must preserve the
    // capture bytes exactly and empty the source.
    auto moved = std::move(fn);
    EXPECT_FALSE(static_cast<bool>(fn));
    EXPECT_EQ(moved(), 136u);
}

TEST(InlineFunction, ThrowingMoveCaptureFallsBackToHeapBox)
{
    // A capture whose move may throw cannot live inline (the
    // InlineFunction move constructor is noexcept), so it must box
    // even though it fits the byte budget.
    struct ThrowingMove
    {
        int v = 21;
        ThrowingMove() = default;
        ThrowingMove(const ThrowingMove &) = default;
        ThrowingMove(ThrowingMove &&other) : v(other.v) {} // not noexcept
    };
    static_assert(!std::is_nothrow_move_constructible_v<ThrowingMove>);

    ThrowingMove t;
    InlineFunction<int()> fn = [t] { return t.v * 2; };
    EXPECT_EQ(fn(), 42);
    auto moved = std::move(fn);
    EXPECT_EQ(moved(), 42);
}

TEST(InlineFunction, MoveOnlyCaptureWorks)
{
    // The reason InlineFunction exists: std::function rejects this.
    auto p = std::make_unique<int>(99);
    InlineFunction<int()> fn = [p = std::move(p)] { return *p; };
    EXPECT_EQ(fn(), 99);
    auto moved = std::move(fn);
    EXPECT_EQ(moved(), 99);
}

TEST(InlineFunction, DestroysCaptureExactlyOnceInline)
{
    Counted::live = 0;
    {
        Counted c;
        InlineFunction<void()> fn = [c] {};
        static_assert(sizeof(Counted) <= 48);
        EXPECT_GE(Counted::live, 2); // original + capture
        InlineFunction<void()> moved = std::move(fn);
        moved();
    }
    EXPECT_EQ(Counted::live, 0) << "capture leaked or double-destroyed";
}

TEST(InlineFunction, DestroysCaptureExactlyOnceBoxed)
{
    Counted::live = 0;
    {
        // Pad past the inline budget so the capture is heap-boxed.
        struct BigCapture
        {
            Counted c;
            std::array<std::uint64_t, 16> pad{};
        };
        BigCapture big;
        InlineFunction<void()> fn = [big] {};
        InlineFunction<void()> moved = std::move(fn);
        InlineFunction<void()> assigned;
        assigned = std::move(moved);
        assigned();
        assigned.reset();
        EXPECT_EQ(Counted::live, 1); // only `big` itself remains
    }
    EXPECT_EQ(Counted::live, 0) << "boxed capture leaked";
}

TEST(InlineFunction, TriviallyCopyableCaptureSurvivesMoveChains)
{
    // Buffer-copy relocation: five words of state (plus this-like
    // pointers) must arrive intact after chains of moves, move
    // assignments and vector reallocations.
    std::uint64_t a = 3, b = 5, c = 7, d = 11;
    const int *anchor = &Counted::live;
    auto lambda = [a, b, c, d, anchor] {
        return a * b * c * d + (anchor == &Counted::live ? 1 : 0);
    };
    static_assert(std::is_trivially_copyable_v<decltype(lambda)>);
    static_assert(sizeof(lambda) <= 48);

    InlineFunction<std::uint64_t()> fn = lambda;
    InlineFunction<std::uint64_t()> hop1 = std::move(fn);
    InlineFunction<std::uint64_t()> hop2;
    hop2 = std::move(hop1);
    EXPECT_FALSE(fn);
    EXPECT_FALSE(hop1);

    std::vector<InlineFunction<std::uint64_t()>> grown;
    grown.push_back(std::move(hop2));
    for (int i = 0; i < 64; ++i) // forces several reallocations
        grown.emplace_back([i] { return std::uint64_t(i); });
    EXPECT_EQ(grown.front()(), 1156u);
    EXPECT_EQ(grown.back()(), 63u);
    EXPECT_EQ(grown.front()(), 1156u) << "invoking must not consume";
}

TEST(InlineFunction, NonTrivialCapturesMoveAndDestroyExactlyOnce)
{
    // Thunk relocation: an owning pointer and a destructor counter
    // travel through the same chains; every capture is destroyed
    // exactly once and the owned value is never lost.
    Counted::live = 0;
    {
        Counted counted;
        auto owned = std::make_unique<int>(41);
        InlineFunction<int()> fn = [counted, p = std::move(owned)] {
            return *p + 1;
        };
        EXPECT_EQ(Counted::live, 2); // local + capture
        InlineFunction<int()> hop1 = std::move(fn);
        InlineFunction<int()> hop2;
        hop2 = std::move(hop1);
        EXPECT_EQ(Counted::live, 2) << "a move leaked or dropped a copy";

        std::vector<InlineFunction<int()>> grown;
        grown.push_back(std::move(hop2));
        for (int i = 0; i < 64; ++i)
            grown.emplace_back([counted, i] { return i; });
        EXPECT_EQ(Counted::live, 66);
        EXPECT_EQ(grown.front()(), 42);
        EXPECT_EQ(grown.back()(), 63);

        grown.front().reset();
        EXPECT_EQ(Counted::live, 65);
        grown.clear();
        EXPECT_EQ(Counted::live, 1);
    }
    EXPECT_EQ(Counted::live, 0) << "capture leaked or double-destroyed";
}

TEST(InlineFunction, AssignmentReplacesPreviousTarget)
{
    Counted::live = 0;
    Counted c;
    InlineFunction<int()> fn = [c] { return 1; };
    const int live_with_one = Counted::live;
    fn = [c] { return 2; }; // must destroy the first capture
    EXPECT_EQ(Counted::live, live_with_one);
    EXPECT_EQ(fn(), 2);
}

TEST(InlineFunction, ForwardsArgumentsAndReturnsValues)
{
    InlineFunction<std::uint64_t(std::uint64_t, bool)> fn =
        [](std::uint64_t page, bool large) {
            return large ? page << 9 : page;
        };
    EXPECT_EQ(fn(5, false), 5u);
    EXPECT_EQ(fn(5, true), 5u << 9);

    // Move-only arguments pass through by forwarding.
    InlineFunction<int(std::unique_ptr<int>)> takes =
        [](std::unique_ptr<int> p) { return *p; };
    EXPECT_EQ(takes(std::make_unique<int>(31)), 31);
}

} // namespace
