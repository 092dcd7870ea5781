/**
 * @file
 * The abstract DRAM command interface: the exact surface the paper's
 * FPGA platform (DRAM Bender) exposes to experiments — ACT / PRE /
 * RD / WR / REF plus timing-violation reporting.
 *
 * Everything above this line (bender::Host, RE tools, the
 * characterization suite, the protection models) is written against
 * Device and therefore runs unchanged whether the commands land on a
 * single chip, a registered DIMM rank (RCD address inversion + DQ
 * twist applied inside), or one HBM channel.
 *
 * Implementations accept any command sequence, including out-of-spec
 * ones (RowCopy is an ACT inside tRP): violations are *recorded*, and
 * the analog consequences are modeled rather than rejected.
 */

#ifndef DRAMSCOPE_DRAM_DEVICE_H
#define DRAMSCOPE_DRAM_DEVICE_H

#include <span>
#include <string>
#include <vector>

#include "dram/config.h"
#include "dram/types.h"

namespace dramscope {
namespace dram {

/** One recorded command timing violation. */
struct TimingViolation
{
    std::string what;
    NanoTime when;
};

/**
 * Fast-forward mode registry: X(Enumerator, keyword, summary).  The
 * README's DRAMSCOPE_FASTPATH mode table documents exactly these
 * keywords, in this order — tools/check_docs.py fails CI on drift.
 */
#define DRAMSCOPE_FASTPATH_MODES(X)                                     \
    X(Off, "off",                                                       \
      "hammer loops execute slot by slot (step-wise reference engine)") \
    X(Exact, "exact",                                                   \
      "certified loops batch into one train, bit-identical to off")

/** How bender::Host executes certified constant-duration loops. */
enum class FastPathMode : uint8_t
{
#define X(Enumerator, keyword, summary) Enumerator,
    DRAMSCOPE_FASTPATH_MODES(X)
#undef X
};

/** Static description of one fast-forward mode. */
struct FastPathModeInfo
{
    FastPathMode mode;
    const char *id;  //!< The DRAMSCOPE_FASTPATH keyword.
};

/** The mode registry, indexed by FastPathMode enumerator order. */
std::span<const FastPathModeInfo> fastPathModeTable();

/** The spec keyword of a mode ("off", "exact"). */
const char *toString(FastPathMode mode);

/**
 * Mode selected by the DRAMSCOPE_FASTPATH environment variable, read
 * by bender::Host at construction.  Unset or empty selects Exact: the
 * batched train is proven bit-identical to the step-wise engine
 * (tests/test_fastforward.cc), so it is the default.  Any other value
 * that is not a mode keyword is a fatal() user error.
 */
FastPathMode fastPathModeFromEnv();

/**
 * One certified bulk ACT train: @c count repetitions of ACT(row),
 * wait @c openPs, PRE, wait (periodPs - openPs - tCK)... with no
 * other commands interleaved and the bank starting precharged.
 *
 * All times are integer picoseconds of the host clock; the device
 * sees truncated-ns timestamps through the helpers below, exactly
 * the values a slot-by-slot execution would have produced.
 */
struct ActTrain
{
    BankId bank = 0;
    RowAddr row = 0;      //!< Logical (host) row address.
    uint64_t count = 0;   //!< ACT-PRE pairs.
    int64_t startPs = 0;  //!< Host clock at the first ACT.
    int64_t openPs = 0;   //!< ACT-to-PRE issue distance.
    int64_t periodPs = 0; //!< ACT-to-ACT distance (whole body).

    /** Open-row (ACT..PRE) time in ns. */
    double openNs() const { return double(openPs) / 1000.0; }

    /** Activation period in ns. */
    double periodNs() const { return double(periodPs) / 1000.0; }

    /** Issue time of the k-th ACT (truncated ns, like Host::now). */
    NanoTime actNs(uint64_t k) const
    {
        return NanoTime((startPs + int64_t(k) * periodPs) / 1000);
    }

    /** Issue time of the k-th PRE. */
    NanoTime preNs(uint64_t k) const
    {
        return NanoTime(
            (startPs + int64_t(k) * periodPs + openPs) / 1000);
    }

    NanoTime startNs() const { return NanoTime(startPs / 1000); }
    NanoTime lastActNs() const { return actNs(count ? count - 1 : 0); }
    NanoTime lastPreNs() const { return preNs(count ? count - 1 : 0); }
};

/** Abstract command/data interface of one device under test. */
class Device
{
  public:
    virtual ~Device();

    /** Host-visible geometry and timing of this device. */
    virtual const DeviceConfig &config() const = 0;

    /** Activates @p row in bank @p b at time @p now (ns). */
    virtual void act(BankId b, RowAddr row, NanoTime now) = 0;

    /** Precharges bank @p b. */
    virtual void pre(BankId b, NanoTime now) = 0;

    /**
     * Reads one RD_data burst (config().rdDataBits bits, LSB = bit 0)
     * from the open row of bank @p b at column @p col.
     */
    virtual uint64_t read(BankId b, ColAddr col, NanoTime now) = 0;

    /** Writes one RD_data burst to the open row. */
    virtual void write(BankId b, ColAddr col, uint64_t data,
                       NanoTime now) = 0;

    /** Refresh; all banks must be precharged. */
    virtual void refresh(NanoTime now) = 0;

    /**
     * Bulk hammering fast path, bit-exact: one virtual call replays
     * the whole certified train with the same state transitions,
     * violation records and physics bookkeeping as the equivalent
     * slot-by-slot ACT/PRE sequence — so it never pays per-iteration
     * dispatch but stays byte-identical to the step-wise engine.  An
     * implementation batches only where the batch is exact and
     * otherwise issues the train one command at a time through its
     * own act()/pre(): a bank that is open at the first ACT is the
     * step-wise ACT-to-open-bank violation, and every train with a
     * nonzero count ends precharged.
     */
    virtual void actMany(const ActTrain &train) = 0;

    /**
     * Same as actMany().  It remains only because
     * perfbench/timed_device.h still overrides it; delete both together.
     */
    virtual void actManyAnalytic(const ActTrain &train) { actMany(train); }

    /** Total timing violations recorded so far (never truncated). */
    virtual uint64_t violationCount() const = 0;

    /**
     * Recorded violation entries (implementations may cap the log;
     * violationCount() keeps the true total).
     */
    virtual std::vector<TimingViolation> violationLog() const = 0;

    /**
     * In-DRAM mitigation primitive (RFM / DRFM, SS VI-B): refreshes
     * the physically adjacent rows of @p row — resolved through the
     * device's *internal* knowledge (row remap, coupled-row relation,
     * subarray boundaries, and per-chip addressing on a DIMM).
     * @p row is a host/logical address.  Returns rows restored.
     */
    virtual uint32_t refreshAggressorNeighbors(BankId b, RowAddr row,
                                               NanoTime now) = 0;

  protected:
    Device() = default;
    Device(const Device &) = default;
    Device &operator=(const Device &) = default;
};

} // namespace dram
} // namespace dramscope

#endif // DRAMSCOPE_DRAM_DEVICE_H
