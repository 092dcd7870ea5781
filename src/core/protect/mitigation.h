/**
 * @file
 * The unified mitigation interface (SS VI): every `core/protect`
 * defense expressed as one pluggable object the memory-controller
 * scheduler (mc::schedule) and the adversarial hammer path
 * (hammerThroughMitigation / executeSequence) both drive.
 *
 * A Mitigation observes activations through onActivate(), observes
 * refresh-window boundaries through onRefreshWindow(), and answers
 * with pendingCommands(): in-spec command sequences (victim-refresh
 * ACT..PRE cycles, swap migrations) plus an extra blocking cost in
 * picoseconds.  The scheduler injects those sequences into its
 * per-bank queues and prices them with the same FR-FCFS timing math
 * as demand traffic, so defense cost shows up where it belongs —
 * delayed reads, lost row hits, dead bank time.
 *
 * The registry of mitigation kinds lives in the
 * DRAMSCOPE_MITIGATIONS X-macro below; the table in docs/MC.md is
 * machine-checked against it by tools/check_docs.py (the same
 * treatment as the open-row policy table).
 */

#ifndef DRAMSCOPE_CORE_PROTECT_MITIGATION_H
#define DRAMSCOPE_CORE_PROTECT_MITIGATION_H

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "bender/lint.h"
#include "bender/program.h"
#include "core/protect/tracker.h"
#include "dram/config.h"

namespace dramscope {
namespace bender {
class Host;
} // namespace bender

namespace core {

/**
 * The mitigation registry: X(enumerator, "keyword", "knobs",
 * "summary").  tools/check_docs.py parses these entries and requires
 * docs/MC.md to list exactly this set, in this order, with these
 * knob strings.
 */
#define DRAMSCOPE_MITIGATIONS(X)                                            \
    X(None, "none", "-",                                                    \
      "no mitigation: the raw-exposure baseline (byte-identical to the "    \
      "unmitigated scheduler)")                                             \
    X(Graphene, "graphene", "threshold=20000, table_size=64",               \
      "MC-side Misra-Gries activation tracker; a counter crossing the "     \
      "threshold injects a +-1 victim-refresh ACT..PRE sequence")           \
    X(Rfm, "rfm", "raaimt=4096",                                            \
      "DDR5 Refresh Management: an RAA counter issues an RFM every "        \
      "raaimt ACTs; the in-DRAM space-saving table refreshes the "          \
      "hottest row's true neighbours, coupled partner included")            \
    X(Drfm, "drfm", "drfm_interval=8192",                                   \
      "Directed RFM: the DRAM samples the last activated row and, every "   \
      "drfm_interval ACTs, refreshes the sampled row's true neighbours")    \
    X(RowSwap, "rowswap", "swap_threshold=6000, spare_base=auto",           \
      "RRS-style indirection: a hot row crossing swap_threshold is "        \
      "migrated to a spare row, breaking aggressor/victim adjacency")

/** Mitigation kind ids. */
enum class MitigationKind : uint8_t
{
#define X(name, id, knobs, summary) name,
    DRAMSCOPE_MITIGATIONS(X)
#undef X
};

/** Static description of one mitigation kind. */
struct MitigationInfo
{
    MitigationKind kind;
    const char *id;       //!< Stable keyword ("none", "graphene", ...).
    const char *knobs;    //!< Knob summary with defaults ("-" if none).
    const char *summary;  //!< One-line description (doc table).
};

/** The full registry, indexed by MitigationKind enumerator order. */
std::span<const MitigationInfo> mitigationTable();

/** Stable keyword of @p kind ("none", "graphene", ...). */
const char *mitigationId(MitigationKind kind);

/** Row-swap knobs (RRS/ScaleSRS style, SS VI-A). */
struct RowSwapOptions
{
    uint64_t threshold = 6000;

    /** First spare row used for relocation targets. */
    dram::RowAddr spareBase = 0;

    /**
     * When true, a swap relocates the coupled partner as well
     * (requires the MC to know the coupled relation).
     */
    bool coupledAware = false;
    uint32_t coupledDistance = 0;
};

/**
 * Knobs of every mitigation kind, bundled so one options struct can
 * ride through SchedulerOptions / CLI flags.  Only the fields of the
 * selected kind matter.
 */
struct MitigationOptions
{
    /** Graphene: tracker table/threshold/coupling knobs. */
    TrackerOptions graphene;

    /**
     * RFM: RAA initial management threshold (RFM cadence in ACTs).
     * The in-DRAM space-saving table holds 16 entries.
     */
    uint64_t raaimt = 4096;

    /** DRFM: one directed refresh every this many ACTs. */
    uint64_t drfmInterval = 8192;

    /** Row swap: threshold / spare-region / coupling knobs.  A zero
     *  spareBase selects the top eighth of the bank automatically. */
    RowSwapOptions rowswap;
};

/**
 * One injected command sequence: the physical manifestation of a
 * mitigation decision.  `rows` are ACT..PRE victim-refresh cycles (in
 * order); `extraPs` is additional bank-blocking time beyond the row
 * cycles (e.g. a swap's data-migration burst); `neutralized` lists
 * the aggressor rows whose exposure this sequence resets — the
 * scheduler closes their (bank, row, window) exposure samples.  The
 * scheduler prices every kind as these row cycles; on a device,
 * executeSequence() decides how the sequence actually runs.
 */
struct MitigationSequence
{
    MitigationKind kind = MitigationKind::None;
    dram::BankId bank = 0;
    std::vector<dram::RowAddr> rows;
    std::vector<dram::RowAddr> neutralized;
    int64_t extraPs = 0;

    /**
     * The sequence as a standalone in-spec command program: one
     * ACT..sleep(tRAS)..PRE..sleep(tRP) cycle per row, then an
     * `extraPs` wait.  Lints clean on every preset (catalog-covered).
     */
    bender::Program program(const dram::DeviceConfig &cfg) const;
};

/**
 * The interface every defense implements.  Hooks are per-command:
 * the caller reports each (bulk) activation and each refresh-window
 * boundary, and drains pendingCommands() after either hook.
 */
class Mitigation
{
  public:
    virtual ~Mitigation();

    virtual MitigationKind kind() const = 0;

    /** Accounts @p count activations of logical @p row on @p bank. */
    virtual void onActivate(dram::BankId bank, dram::RowAddr row,
                            uint64_t count = 1) = 0;

    /** Refresh-window boundary (REF issued): periodic state decay. */
    virtual void onRefreshWindow() {}

    /** Drains the command sequences generated since the last call. */
    std::vector<MitigationSequence> pendingCommands();

    /** Physical row currently backing logical @p row (identity for
     *  everything except row swap's indirection table). */
    virtual dram::RowAddr resolve(dram::BankId bank,
                                  dram::RowAddr row) const
    {
        (void)bank;
        return row;
    }

    /**
     * Natural accounting chunk for bulk adversarial loops: the
     * largest activation batch that cannot skip a trigger point.
     */
    virtual uint64_t accountingChunk() const = 0;

    /** Sequences generated so far. */
    uint64_t fired() const { return fired_; }

  protected:
    /** Queues @p seq for the next pendingCommands() and counts it. */
    void emit(MitigationSequence seq);

  private:
    std::vector<MitigationSequence> pending_;
    uint64_t fired_ = 0;
};

/**
 * Graphene-style MC-side tracking (one ActivationTracker per bank):
 * a counter crossing the threshold injects a +-1 logical
 * victim-refresh sequence per fired row.  The MC does not know the
 * device's internal topology, so coupled protection only happens
 * when the tracker is configured coupled-aware.
 */
class GrapheneMitigation : public Mitigation
{
  public:
    GrapheneMitigation(const dram::DeviceConfig &cfg, TrackerOptions opts);

    MitigationKind kind() const override
    {
        return MitigationKind::Graphene;
    }
    void onActivate(dram::BankId bank, dram::RowAddr row,
                    uint64_t count = 1) override;
    void onRefreshWindow() override;
    uint64_t accountingChunk() const override;

    /**
     * The per-bank tracker.  Its mitigations() counts threshold
     * crossings; fired() counts sequences, two per coupled-aware
     * crossing.
     */
    const ActivationTracker &tracker(dram::BankId bank) const;

  private:
    dram::DeviceConfig cfg_;
    TrackerOptions opts_;
    std::vector<ActivationTracker> trackers_;  //!< One per bank.
};

/**
 * RfmMitigation's in-DRAM aggressor tracker: a bounded counter table
 * with space-saving eviction — a full table replaces its minimum
 * entry and the newcomer inherits that floor.
 */
class SpaceSavingTable
{
  public:
    explicit SpaceSavingTable(uint32_t capacity);

    /** Accounts @p count activations of @p row. */
    void account(dram::RowAddr row, uint64_t count);

    /** Hottest tracked row; nullopt while the table is empty. */
    std::optional<dram::RowAddr> hottest() const;

    /** Halves @p row's counter (decay instead of reset). */
    void decay(dram::RowAddr row);

  private:
    uint32_t capacity_;
    std::unordered_map<dram::RowAddr, uint64_t> counts_;
};

/**
 * DDR5 RFM as scheduled commands: per bank, an MC-side RAA counter
 * fires every raaimt ACTs; the in-DRAM space-saving table picks the
 * hottest row and the sequence refreshes its true neighbours —
 * coupled partner included, because the DRAM knows its own topology.
 */
class RfmMitigation : public Mitigation
{
  public:
    RfmMitigation(const dram::DeviceConfig &cfg, uint64_t raaimt,
                  uint32_t table_size);

    MitigationKind kind() const override { return MitigationKind::Rfm; }
    void onActivate(dram::BankId bank, dram::RowAddr row,
                    uint64_t count = 1) override;
    uint64_t accountingChunk() const override;

  private:
    struct BankState
    {
        explicit BankState(uint32_t table_size) : table(table_size) {}

        SpaceSavingTable table;
        uint64_t raa = 0;
    };

    dram::DeviceConfig cfg_;
    uint64_t raaimt_;
    std::vector<BankState> banks_;
};

/**
 * Directed RFM: the DRAM samples the last activated row per bank;
 * every drfm_interval ACTs the sampled row's true neighbours are
 * refreshed (coupled partner included).
 */
class DrfmMitigation : public Mitigation
{
  public:
    DrfmMitigation(const dram::DeviceConfig &cfg, uint64_t interval);

    MitigationKind kind() const override { return MitigationKind::Drfm; }
    void onActivate(dram::BankId bank, dram::RowAddr row,
                    uint64_t count = 1) override;
    uint64_t accountingChunk() const override;

  private:
    struct BankState
    {
        std::optional<dram::RowAddr> sampled;
        uint64_t sinceLast = 0;
    };

    dram::DeviceConfig cfg_;
    uint64_t interval_;
    std::vector<BankState> banks_;
};

/**
 * RRS-style row swap as an MC indirection table: a logical row
 * crossing the threshold is remapped to the next spare row, and the
 * migration is emitted as a command sequence (one ACT..PRE cycle on
 * source and target plus the data-burst cost in extraPs).
 */
class RowSwapMitigation : public Mitigation
{
  public:
    RowSwapMitigation(const dram::DeviceConfig &cfg, RowSwapOptions opts);

    MitigationKind kind() const override
    {
        return MitigationKind::RowSwap;
    }
    void onActivate(dram::BankId bank, dram::RowAddr row,
                    uint64_t count = 1) override;
    dram::RowAddr resolve(dram::BankId bank,
                          dram::RowAddr row) const override;
    uint64_t accountingChunk() const override;

    /** Swaps performed so far (== fired()). */
    uint64_t swaps() const { return fired(); }

  private:
    struct BankState
    {
        std::unordered_map<dram::RowAddr, dram::RowAddr> indirection;
        std::unordered_map<dram::RowAddr, uint64_t> counters;
        dram::RowAddr nextSpare = 0;
    };

    void swapOut(dram::BankId bank, dram::RowAddr row);

    dram::DeviceConfig cfg_;
    RowSwapOptions opts_;
    std::vector<BankState> banks_;
};

/**
 * The +-1 in-range victims of @p row; with @p device_aware set (and
 * the config coupled) the coupled partner's victims are appended —
 * the in-DRAM view an RFM/DRFM mitigation is allowed to use.
 */
std::vector<dram::RowAddr> victimRows(const dram::DeviceConfig &cfg,
                                      dram::RowAddr row,
                                      bool device_aware);

/**
 * Statically certifies the exemplar command sequence mitigation
 * @p kind injects (the worst-case victim-refresh burst for the
 * tracker kinds, the double row cycle plus data burst for row swap;
 * an empty program for None): exposure bound, energy and rolling
 * power window via bender::lint::certify.  A defense whose own
 * sequences blow the power budget — or hammer a victim row past the
 * disturbance threshold — is a bug in the defense, not the workload.
 */
bender::lint::Certificate
certifyMitigationSequences(MitigationKind kind,
                           const dram::DeviceConfig &cfg,
                           const bender::lint::CertifyOptions &opts = {});

/**
 * Builds the mitigation selected by @p kind for @p cfg; returns
 * nullptr for MitigationKind::None (no-overhead baseline).  The
 * kind's exemplar sequence is certified at registration
 * (certifyMitigationSequences); an uncertifiable defense fatal()s
 * here rather than injecting out-of-envelope commands at runtime.
 */
std::unique_ptr<Mitigation> makeMitigation(MitigationKind kind,
                                           const dram::DeviceConfig &cfg,
                                           const MitigationOptions &opts);

/**
 * Runs @p seq on @p host the way its kind reaches the device.  RFM
 * and DRFM mitigate in-DRAM: Device::refreshAggressorNeighbors on the
 * neutralized aggressor, so the device resolves its own remap and
 * coupled partner (SS VI-B).  A row swap copies the source row's data
 * to the target.  Graphene runs its victim-refresh program().
 * Returns the rows the device restored in-DRAM (0 for the kinds that
 * run as host commands).
 */
uint32_t executeSequence(bender::Host &host, const MitigationSequence &seq);

/**
 * Routes an adversarial bulk hammer through @p mit: chunked by
 * accountingChunk() so no trigger point is skipped, each chunk
 * hammered at the resolved physical row, accounted via onActivate(),
 * and every pending sequence run through executeSequence().
 */
void hammerThroughMitigation(bender::Host &host, Mitigation &mit,
                             dram::BankId bank, dram::RowAddr row,
                             uint64_t count);

} // namespace core
} // namespace dramscope

#endif // DRAMSCOPE_CORE_PROTECT_MITIGATION_H
