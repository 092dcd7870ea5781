/**
 * @file
 * Speedup guard for the batched fast-forward engine: the paper's
 * 300K-activation hammer train through FastPathMode::Off (step-wise
 * reference) and Exact (batched bit-identical replay).
 *
 * Unlike the google-benchmark microbenches this is a pass/fail tool:
 * it exits non-zero when BM_FastForward (Exact) is not at least 10x
 * faster than BM_Stepwise on the 300K train — the contract that makes
 * Hcnt searches and BER sweeps affordable at paper scale.
 */

#include <cinttypes>
#include <cstdio>

#include "bench/bench_common.h"
#include "bender/host.h"
#include "dram/chip.h"
#include "util/table.h"

using namespace dramscope;

namespace {

/** Seconds per full 300K-ACT hammer under @p mode (best of reps). */
double
hammerSeconds(dram::FastPathMode mode, uint64_t count, int reps)
{
    dram::Chip chip(dram::makePreset("A_x4_2016"));
    bender::Host host(chip);
    host.setFastPathMode(mode);
    host.writeRowPattern(0, 1000, ~0ULL);
    host.writeRowPattern(0, 1002, ~0ULL);
    double best = 1.0e30;
    for (int r = 0; r < reps; ++r) {
        benchutil::WallTimer timer;
        host.hammer(0, 1001, count);
        host.refresh();  // Reset accumulation between reps.
        const double s = timer.seconds();
        if (s < best)
            best = s;
    }
    return best;
}

} // namespace

int
main()
{
    benchutil::header("fast-forward engine speedup",
                      "batched hammer trains >= 10x step-wise issue");
    const uint64_t count = uint64_t(benchutil::scaled(300000, 10000));
    const int reps = 3;

    const double stepwise =
        hammerSeconds(dram::FastPathMode::Off, count, reps);
    const double exact =
        hammerSeconds(dram::FastPathMode::Exact, count, reps);

    Table table({"engine", "seconds/train", "speedup"});
    table.addRow({"BM_Stepwise (off)", Table::num(stepwise), "1.00"});
    table.addRow({"BM_FastForward (exact)", Table::num(exact),
                  Table::num(stepwise / exact)});
    table.print();
    benchutil::maybeWriteCsv(table, "fastforward_speedup");

    const double speedup = stepwise / exact;
    std::printf("%" PRIu64 "-ACT train: exact fast path %.1fx step-wise "
                "(guard: >= 10x)\n",
                count, speedup);
    if (speedup < 10.0) {
        std::printf("FAIL: fast-forward speedup below the 10x guard\n");
        return 1;
    }
    std::printf("PASS\n");
    return 0;
}
