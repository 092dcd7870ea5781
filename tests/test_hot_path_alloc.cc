/**
 * @file
 * Heap-allocation budget of the per-burst data path.
 *
 * This file replaces the global operator new/delete with counting
 * versions, so it builds into its own test binary: the counter sees
 * no other test and slows none.  Once a row holds its charge vector,
 * RD/WR bursts, BitVec bit access, Swizzle lookups and passing checks
 * must not touch the heap; nor must ACT/PRE/REF over materialized
 * rows, or a violation once the violation log is full.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "dram/chip.h"
#include "dram/swizzle.h"
#include "util/bitvec.h"
#include "util/log.h"

namespace {

std::atomic<uint64_t> g_allocs{0};

} // namespace

// None of these is inlined: GCC would otherwise pair the malloc() or
// free() inside with the caller's delete or new and warn
// (-Wmismatched-new-delete).
[[gnu::noinline]] void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace dramscope {
namespace {

/** Keeps measured results observable. */
volatile uint64_t g_sink = 0;

/** Heap allocations made while running @p fn. */
template <typename Fn>
uint64_t
allocationsDuring(Fn &&fn)
{
    const uint64_t before = g_allocs.load(std::memory_order_relaxed);
    fn();
    return g_allocs.load(std::memory_order_relaxed) - before;
}

TEST(HotPathAlloc, CounterSeesAllocations)
{
    const uint64_t n = allocationsDuring([] {
        std::vector<uint64_t> v(64, 1);
        g_sink = reinterpret_cast<uintptr_t>(v.data());
    });
    EXPECT_GE(n, 1u);
}

/** 10K RD and 10K WR bursts on the open row of one bank. */
void
expectAllocationFreeBursts(const char *preset)
{
    SCOPED_TRACE(preset);
    const dram::DeviceConfig cfg = dram::makePreset(preset);
    dram::Chip chip(cfg);
    const uint32_t cols = cfg.columnsPerRow();
    const uint64_t mask = cfg.rdDataBits == 64
                              ? ~0ULL
                              : (1ULL << cfg.rdDataBits) - 1;
    chip.act(0, 100, 1000);
    const dram::NanoTime now = 1100;  // Past tRCD.

    // Warm-up: the ACT materializes the open row without a charge
    // vector, the first RD allocates it, and the first WR runs the
    // once-per-activation barrier on its AIB neighbours.
    g_sink = chip.read(0, 0, now);
    chip.write(0, 0, 0, now);

    uint64_t acc = 0;
    const uint64_t reads = allocationsDuring([&] {
        for (uint32_t i = 0; i < 10000; ++i)
            acc += chip.read(0, i % cols, now);
    });
    const uint64_t writes = allocationsDuring([&] {
        for (uint32_t i = 0; i < 10000; ++i)
            chip.write(0, i % cols, i * 0x9E3779B97F4A7C15ULL, now);
    });
    g_sink = acc;
    EXPECT_EQ(reads, 0u);
    EXPECT_EQ(writes, 0u);

    // The bursts did their work: the last write of each column reads
    // back, and nothing was out of spec.
    const uint32_t last = 9999;
    EXPECT_EQ(chip.read(0, last % cols, now),
              (last * 0x9E3779B97F4A7C15ULL) & mask);
    EXPECT_EQ(chip.stats().reads, 10002u);
    EXPECT_EQ(chip.stats().writes, 10001u);
    EXPECT_EQ(chip.violationCount(), 0u);
}

TEST(HotPathAlloc, ChipBurstsX4) { expectAllocationFreeBursts("A_x4_2016"); }

TEST(HotPathAlloc, ChipBurstsX8) { expectAllocationFreeBursts("A_x8_2018"); }

TEST(HotPathAlloc, BitVecBitAccess)
{
    BitVec v(4096);
    const uint64_t n = allocationsDuring([&] {
        for (size_t i = 0; i < v.size(); ++i) {
            v.set(i, i % 3 == 0);
            v.flip(i);
            g_sink = v.get(i);
        }
    });
    EXPECT_EQ(n, 0u);
    EXPECT_EQ(v.popcount(), 4096u - 1366u);  // Multiples of 3, flipped.
}

TEST(HotPathAlloc, SwizzleLookup)
{
    for (const char *preset : {"A_x4_2016", "A_x8_2018"}) {
        SCOPED_TRACE(preset);
        const dram::DeviceConfig cfg = dram::makePreset(preset);
        const dram::Swizzle swz(cfg);
        BitVec hit(cfg.rowBits);
        const uint64_t n = allocationsDuring([&] {
            for (dram::ColAddr c = 0; c < cfg.columnsPerRow(); ++c) {
                for (uint32_t i = 0; i < cfg.rdDataBits; ++i)
                    hit.set(swz.physicalBl(c, i), true);
            }
        });
        EXPECT_EQ(n, 0u);
        // Every (column, bit) pair lands on its own bitline.
        EXPECT_EQ(hit.popcount(), size_t(cfg.rowBits));
    }
}

TEST(HotPathAlloc, RefreshCycles)
{
    dram::Chip chip(dram::makePreset("A_x8_2018"));
    dram::NanoTime now = 1000;
    auto act_pre = [&](dram::RowAddr row) {
        chip.act(0, row, now);
        chip.pre(0, now + 40);
        now += 100;
    };
    // A few thousand rows materialized, then one warm-up REF.
    for (dram::RowAddr row = 0; row < 4000; ++row)
        act_pre(row);
    chip.refresh(now);
    now += 400;
    const size_t rows = chip.bank(0).materializedRows();
    EXPECT_GE(rows, 4000u);

    const uint64_t n = allocationsDuring([&] {
        for (uint32_t i = 0; i < 1000; ++i) {
            act_pre(100 + (i * 7) % 3800);
            chip.refresh(now);
            now += 400;
        }
    });
    EXPECT_EQ(n, 0u);
    EXPECT_EQ(chip.bank(0).materializedRows(), rows);
    EXPECT_EQ(chip.stats().refs, 1001u);
    EXPECT_EQ(chip.violationCount(), 0u);
}

TEST(HotPathAlloc, ViolationsPastTheLogCap)
{
    dram::Chip chip(dram::makePreset("A_x4_2016"));
    // Warm-up: fill the 1024-entry log.
    for (dram::NanoTime t = 0; t < 1024; ++t)
        g_sink = chip.read(0, 0, t);
    ASSERT_EQ(chip.violations().size(), 1024u);

    const uint64_t n = allocationsDuring([&] {
        for (dram::NanoTime t = 1024; t < 11024; ++t)
            g_sink = chip.read(0, 0, t);
    });
    EXPECT_EQ(n, 0u);
    EXPECT_EQ(chip.violationCount(), 11024u);
    EXPECT_EQ(chip.violations().size(), 1024u);
    EXPECT_EQ(chip.violations().back().what, "RD to closed bank");
}

TEST(HotPathAlloc, PassingChecks)
{
    g_sink = 0;  // Volatile, so every condition is evaluated and false.
    const uint64_t n = allocationsDuring([] {
        for (uint64_t i = 0; i < 1000; ++i) {
            panicIf(g_sink == i + 1000,
                    "a check message longer than the small-string buffer");
            fatalIf(g_sink == i + 2000,
                    "another check message longer than that buffer");
        }
    });
    EXPECT_EQ(n, 0u);
}

} // namespace
} // namespace dramscope
