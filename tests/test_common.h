/**
 * @file
 * Shared helpers for the DRAMScope test suite.
 */

#ifndef DRAMSCOPE_TESTS_TEST_COMMON_H
#define DRAMSCOPE_TESTS_TEST_COMMON_H

#include <cmath>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "bender/host.h"
#include "bender/program.h"
#include "dram/chip.h"
#include "dram/config.h"
#include "util/bitvec.h"
#include "util/rng.h"

namespace dramscope {
namespace testutil {

/** Tiny config with remap and coupling disabled: pure physics tests. */
inline dram::DeviceConfig
tinyPlain()
{
    dram::DeviceConfig cfg = dram::makeTinyConfig();
    cfg.name = "tiny-plain";
    cfg.rowRemap = dram::RowRemapScheme::None;
    cfg.coupledRowDistance.reset();
    cfg.validate();
    return cfg;
}

/** Tiny config variant with an identity swizzle. */
inline dram::DeviceConfig
tinyIdentitySwizzle()
{
    dram::DeviceConfig cfg = tinyPlain();
    cfg.name = "tiny-identity";
    cfg.swizzlePerm = {0, 1, 2, 3, 4, 5, 6, 7};
    cfg.validate();
    return cfg;
}

/**
 * Expects the row bits @p bits, just written to logical row @p row of
 * bank @p b through Host::writeRowBits, to sit as charge on their
 * swizzled bitlines: bit i of column c at swizzle().physicalBl(c, i),
 * inverted on an anti-cell row.
 */
inline void
expectChargeOnPhysicalBitlines(dram::Chip &chip, const bender::Host &host,
                               dram::BankId b, dram::RowAddr row,
                               const BitVec &bits)
{
    const dram::DeviceConfig &cfg = chip.config();
    const dram::RowAddr phys = chip.toPhysical(row);
    dram::Bank &bank = chip.bank(b);
    const BitVec &charge = bank.chargeRef(phys, host.now());
    const uint32_t w = cfg.rdDataBits;
    for (dram::ColAddr c = 0; c < cfg.columnsPerRow(); ++c) {
        for (uint32_t i = 0; i < w; ++i) {
            const bool bit = bits.get(size_t(c) * w + i);
            ASSERT_EQ(charge.get(chip.swizzle().physicalBl(c, i)),
                      bank.dataToCharge(phys, bit))
                << "row " << row << " column " << c << " bit " << i;
        }
    }
}

/** FNV-1a, fed 64-bit words and length-prefixed strings: digests that
 *  pin byte-identical outputs across refactors. */
struct Fnv1a
{
    uint64_t h = 0xcbf29ce484222325ULL;

    void
    word(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }

    void
    str(const std::string &s)
    {
        word(s.size());
        for (const char c : s) {
            h ^= uint8_t(c);
            h *= 0x100000001b3ULL;
        }
    }
};

// ---------------------------------------------------------------------
// Property-based fuzzing of hammer kernels (fast-forward equivalence).
// ---------------------------------------------------------------------

/**
 * One randomly drawn — but lint-clean by construction — hammer
 * kernel.  Every field is a pure function of @p seed, so a failing
 * case is replayed by logging the seed alone.
 */
struct FuzzHammer
{
    uint64_t seed = 0;
    dram::BankId bank = 0;
    dram::RowAddr row = 0;
    uint64_t count = 0;
    double openNs = 0;
    bool nopBody = false;  //!< Pad the open with Nop cycles, not SleepNs.
};

/**
 * Draws a fuzz kernel.  The open-time menu deliberately spans every
 * engine path of the bulk fast-forward:
 *
 *   35, 48       in-spec, whole-ns period  -> one batched actMany call
 *   31           sub-tRAS, whole-ns period -> batched violation replay
 *   36.25, 41.5  in-spec, fractional period -> whole-ns gate falls
 *                back to per-iteration replay
 *   20, 14.75    sub-tRAS, fractional period -> fallback + violations
 *   7800         the RowPress dwell (long-open dose term), batched
 */
inline FuzzHammer
drawFuzzHammer(const dram::DeviceConfig &cfg, uint64_t seed)
{
    static const double kOpens[] = {35.0,  48.0, 31.0,  36.25,
                                    41.5,  20.0, 14.75, 7800.0};
    constexpr size_t kOpenCount = sizeof(kOpens) / sizeof(kOpens[0]);
    FuzzHammer f;
    f.seed = seed;
    // hashUniform is (0,1]: floor + modulo keeps u == 1 in range.
    f.bank = dram::BankId(uint64_t(hashUniform(seed, 1) * cfg.numBanks) %
                          cfg.numBanks);
    f.row = dram::RowAddr(2 + uint64_t(hashUniform(seed, 2) *
                                       (cfg.rowsPerBank - 4)) %
                                  (cfg.rowsPerBank - 4));
    f.count = 1 + uint64_t(hashUniform(seed, 3) * 96.0);
    f.openNs = kOpens[size_t(hashUniform(seed, 4) * kOpenCount) % kOpenCount];
    // A Nop-padded open (certifiers must accept both idle encodings)
    // needs the pad to be a whole number of tCK cycles.
    const double pad_cycles = (f.openNs - cfg.timing.tCkNs) / cfg.timing.tCkNs;
    f.nopBody = hashUniform(seed, 5) < 0.5 &&
                std::abs(pad_cycles - std::round(pad_cycles)) < 1e-9;
    return f;
}

/**
 * Builds the program for a fuzz kernel.  The SleepNs body is exactly
 * Host::makeHammerProgram; the Nop body re-encodes the open pad as
 * idle cycles, which certifyHammerLoop must cost identically.
 */
inline bender::Program
fuzzHammerProgram(const dram::DeviceConfig &cfg, const FuzzHammer &f)
{
    if (!f.nopBody) {
        return bender::Host::makeHammerProgram(cfg, f.bank, f.row, f.count,
                                               f.openNs);
    }
    const auto &t = cfg.timing;
    const double close_ns =
        std::max(t.tRpNs, t.tRcNs() - f.openNs - t.tCkNs);
    const uint64_t pad =
        uint64_t(std::llround((f.openNs - t.tCkNs) / t.tCkNs));
    bender::Program p;
    p.loopBegin(f.count)
        .act(f.bank, f.row)
        .nop(pad)
        .pre(f.bank)
        .sleepNs(close_ns)
        .loopEnd();
    if (f.openNs < t.tRasNs)
        p.expectViolation(bender::lint::Rule::TRas);
    return p;
}

} // namespace testutil
} // namespace dramscope

#endif // DRAMSCOPE_TESTS_TEST_COMMON_H
