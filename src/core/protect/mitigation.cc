/**
 * @file
 * Unified mitigation implementations.
 */

#include "core/protect/mitigation.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "bender/host.h"
#include "util/log.h"

namespace dramscope {
namespace core {

namespace {

/** Exact conversion for the repo's dyadic-rational timing values. */
int64_t
ps(double ns)
{
    return int64_t(std::llround(ns * 1000.0));
}

} // namespace

const std::vector<MitigationInfo> &
mitigationTable()
{
    static const std::vector<MitigationInfo> table = {
#define X(name, id, knobs, summary)                                         \
    {MitigationKind::name, id, knobs, summary},
        DRAMSCOPE_MITIGATIONS(X)
#undef X
    };
    return table;
}

const MitigationInfo &
mitigationInfo(MitigationKind kind)
{
    return mitigationTable()[size_t(kind)];
}

const char *
mitigationId(MitigationKind kind)
{
    return mitigationInfo(kind).id;
}

std::optional<MitigationKind>
mitigationFromString(const std::string &id)
{
    for (const auto &info : mitigationTable())
        if (id == info.id)
            return info.kind;
    return std::nullopt;
}

bender::Program
MitigationSequence::program(const dram::DeviceConfig &cfg) const
{
    // One in-spec ACT..PRE cycle per row (a victim refresh), then
    // the extra blocking time (a swap's data-migration burst).
    bender::Program p;
    const auto &t = cfg.timing;
    for (const dram::RowAddr r : rows)
        p.act(bank, r).sleepNs(t.tRasNs).pre(bank).sleepNs(t.tRpNs);
    if (extraPs > 0)
        p.sleepPs(extraPs);
    return p;
}

int64_t
MitigationSequence::costPs(const dram::TimingParams &t) const
{
    // Each row cycle: the ACT and PRE command slots (tCK each) plus
    // the tRAS open and tRP precharge waits.
    const int64_t perRow = 2 * ps(t.tCkNs) + ps(t.tRasNs) + ps(t.tRpNs);
    return int64_t(rows.size()) * perRow + extraPs;
}

Mitigation::~Mitigation() = default;

std::vector<dram::RowAddr>
victimRows(const dram::DeviceConfig &cfg, dram::RowAddr row,
           bool device_aware)
{
    std::vector<dram::RowAddr> victims;
    const auto push_neighbours = [&](dram::RowAddr r) {
        for (const int d : {-1, +1}) {
            const int64_t v = int64_t(r) + d;
            if (v < 0 || v >= int64_t(cfg.rowsPerBank))
                continue;
            const auto va = dram::RowAddr(v);
            if (std::find(victims.begin(), victims.end(), va) ==
                victims.end())
                victims.push_back(va);
        }
    };
    push_neighbours(row);
    if (device_aware && cfg.coupledRowDistance) {
        const dram::RowAddr partner = row ^ *cfg.coupledRowDistance;
        if (partner != row && partner < cfg.rowsPerBank)
            push_neighbours(partner);
    }
    return victims;
}

// ---------------------------------------------------------------- Graphene

GrapheneMitigation::GrapheneMitigation(const dram::DeviceConfig &cfg,
                                       TrackerOptions opts)
    : cfg_(cfg), opts_(opts)
{
    trackers_.reserve(cfg_.numBanks);
    for (uint32_t b = 0; b < cfg_.numBanks; ++b)
        trackers_.emplace_back(opts_);
}

void
GrapheneMitigation::onActivate(dram::BankId bank, dram::RowAddr row,
                               uint64_t count)
{
    fatalIf(bank >= trackers_.size(), "GrapheneMitigation: bad bank");
    for (const auto fired : trackers_[bank].onActivate(row, count)) {
        MitigationSequence seq;
        seq.kind = MitigationKind::Graphene;
        seq.bank = bank;
        // The MC-side tracker assumes +-1 logical adjacency; it does
        // not know the device's internal topology.
        seq.rows = victimRows(cfg_, fired, /*device_aware=*/false);
        seq.neutralized = {fired};
        pending_.push_back(std::move(seq));
        ++fired_;
    }
}

void
GrapheneMitigation::onRefreshWindow()
{
    for (auto &tracker : trackers_)
        tracker.reset();
}

std::vector<MitigationSequence>
GrapheneMitigation::pendingCommands()
{
    return std::exchange(pending_, {});
}

uint64_t
GrapheneMitigation::accountingChunk() const
{
    return std::max<uint64_t>(1, opts_.threshold / 4);
}

const ActivationTracker &
GrapheneMitigation::tracker(dram::BankId bank) const
{
    fatalIf(bank >= trackers_.size(), "GrapheneMitigation: bad bank");
    return trackers_[bank];
}

// --------------------------------------------------------------------- RFM

SpaceSavingTable::SpaceSavingTable(uint32_t capacity)
    : capacity_(capacity)
{
    fatalIf(capacity_ == 0, "SpaceSavingTable: empty table");
}

void
SpaceSavingTable::account(dram::RowAddr row, uint64_t count)
{
    auto it = counts_.find(row);
    if (it != counts_.end()) {
        it->second += count;
        return;
    }
    if (counts_.size() < capacity_) {
        counts_.emplace(row, count);
        return;
    }
    // Space-saving: replace the minimum entry, inheriting its count.
    // determinism-ok: comparator total-orders ties by row address
    auto min_it = std::min_element(
        counts_.begin(), counts_.end(), [](const auto &a, const auto &b) {
            return a.second != b.second ? a.second < b.second
                                        : a.first < b.first;
        });
    const uint64_t floor = min_it->second;
    counts_.erase(min_it);
    counts_.emplace(row, floor + count);
}

std::optional<dram::RowAddr>
SpaceSavingTable::hottest() const
{
    if (counts_.empty())
        return std::nullopt;
    // determinism-ok: ties pick the lowest row, not the hash order
    return std::max_element(counts_.begin(), counts_.end(),
                            [](const auto &a, const auto &b) {
                                return a.second != b.second
                                           ? a.second < b.second
                                           : a.first > b.first;
                            })
        ->first;
}

void
SpaceSavingTable::decay(dram::RowAddr row)
{
    const auto it = counts_.find(row);
    if (it != counts_.end())
        it->second /= 2;  // Decay instead of reset: conservative.
}

RfmMitigation::RfmMitigation(const dram::DeviceConfig &cfg,
                             uint64_t raaimt, uint32_t table_size)
    : cfg_(cfg), raaimt_(raaimt)
{
    fatalIf(raaimt_ == 0, "RfmMitigation: zero RAAIMT");
    banks_.reserve(cfg_.numBanks);
    for (uint32_t b = 0; b < cfg_.numBanks; ++b)
        banks_.emplace_back(table_size);
}

void
RfmMitigation::onActivate(dram::BankId bank, dram::RowAddr row,
                          uint64_t count)
{
    fatalIf(bank >= banks_.size(), "RfmMitigation: bad bank");
    BankState &st = banks_[bank];
    st.table.account(row, count);

    // MC-side RAA counter: one RFM per RAAIMT activations.
    st.raa += count;
    while (st.raa >= raaimt_) {
        st.raa -= raaimt_;
        const auto hot = st.table.hottest();
        if (!hot)
            continue;
        MitigationSequence seq;
        seq.kind = MitigationKind::Rfm;
        seq.bank = bank;
        // The DRAM knows its own topology: true neighbours of the
        // hot row *and* of its coupled partner (SS VI-B).
        seq.rows = victimRows(cfg_, *hot, /*device_aware=*/true);
        seq.neutralized = {*hot};
        if (cfg_.coupledRowDistance) {
            const dram::RowAddr partner = *hot ^ *cfg_.coupledRowDistance;
            if (partner != *hot && partner < cfg_.rowsPerBank)
                seq.neutralized.push_back(partner);
        }
        st.table.decay(*hot);
        pending_.push_back(std::move(seq));
        ++fired_;
    }
}

std::vector<MitigationSequence>
RfmMitigation::pendingCommands()
{
    return std::exchange(pending_, {});
}

uint64_t
RfmMitigation::accountingChunk() const
{
    return std::max<uint64_t>(1, raaimt_ / 4);
}

// -------------------------------------------------------------------- DRFM

DrfmMitigation::DrfmMitigation(const dram::DeviceConfig &cfg,
                               uint64_t interval)
    : cfg_(cfg), interval_(interval), banks_(cfg.numBanks)
{
    fatalIf(interval_ == 0, "DrfmMitigation: zero interval");
}

void
DrfmMitigation::onActivate(dram::BankId bank, dram::RowAddr row,
                           uint64_t count)
{
    fatalIf(bank >= banks_.size(), "DrfmMitigation: bad bank");
    BankState &st = banks_[bank];
    st.sampled = row;
    st.sinceLast += count;
    if (st.sinceLast < interval_)
        return;
    st.sinceLast = 0;

    MitigationSequence seq;
    seq.kind = MitigationKind::Drfm;
    seq.bank = bank;
    seq.rows = victimRows(cfg_, *st.sampled, /*device_aware=*/true);
    seq.neutralized = {*st.sampled};
    if (cfg_.coupledRowDistance) {
        const dram::RowAddr partner =
            *st.sampled ^ *cfg_.coupledRowDistance;
        if (partner != *st.sampled && partner < cfg_.rowsPerBank)
            seq.neutralized.push_back(partner);
    }
    pending_.push_back(std::move(seq));
    ++fired_;
}

std::vector<MitigationSequence>
DrfmMitigation::pendingCommands()
{
    return std::exchange(pending_, {});
}

uint64_t
DrfmMitigation::accountingChunk() const
{
    return std::max<uint64_t>(1, interval_ / 4);
}

// ---------------------------------------------------------------- Row swap

RowSwapMitigation::RowSwapMitigation(const dram::DeviceConfig &cfg,
                                     RowSwapOptions opts)
    : cfg_(cfg), opts_(opts), banks_(cfg.numBanks)
{
    fatalIf(opts_.threshold == 0, "RowSwapMitigation: zero threshold");
    fatalIf(opts_.coupledAware && opts_.coupledDistance == 0,
            "RowSwapMitigation: coupledAware needs a distance");
    for (auto &st : banks_)
        st.nextSpare = opts_.spareBase;
}

dram::RowAddr
RowSwapMitigation::resolve(dram::BankId bank, dram::RowAddr row) const
{
    fatalIf(bank >= banks_.size(), "RowSwapMitigation: bad bank");
    const auto &ind = banks_[bank].indirection;
    const auto it = ind.find(row);
    return it == ind.end() ? row : it->second;
}

void
RowSwapMitigation::swapOut(dram::BankId bank, dram::RowAddr row)
{
    BankState &st = banks_[bank];
    const dram::RowAddr from = resolve(bank, row);
    const dram::RowAddr to = st.nextSpare;
    st.nextSpare += 4;  // Keep spares apart so they never interact.
    if (st.nextSpare >= cfg_.rowsPerBank)
        st.nextSpare = opts_.spareBase;
    st.indirection[row] = to;
    st.counters[row] = 0;

    MitigationSequence seq;
    seq.kind = MitigationKind::RowSwap;
    seq.bank = bank;
    seq.rows = {from, to};  // Migration: source cycle, target cycle.
    seq.neutralized = {from};
    // The data burst: every column read from the source and written
    // back to the target, one command slot each.
    seq.extraPs =
        int64_t(2 * cfg_.columnsPerRow()) * ps(cfg_.timing.tCkNs);
    pending_.push_back(std::move(seq));
    ++fired_;
}

void
RowSwapMitigation::onActivate(dram::BankId bank, dram::RowAddr row,
                              uint64_t count)
{
    fatalIf(bank >= banks_.size(), "RowSwapMitigation: bad bank");
    uint64_t &ctr = banks_[bank].counters[row];
    ctr += count;
    if (ctr >= opts_.threshold) {
        swapOut(bank, row);
        if (opts_.coupledAware)
            swapOut(bank, row ^ opts_.coupledDistance);
    }
}

std::vector<MitigationSequence>
RowSwapMitigation::pendingCommands()
{
    return std::exchange(pending_, {});
}

uint64_t
RowSwapMitigation::accountingChunk() const
{
    return std::max<uint64_t>(1, opts_.threshold / 4);
}

// ----------------------------------------------------------------- Factory

bender::lint::Certificate
certifyMitigationSequences(MitigationKind kind,
                           const dram::DeviceConfig &cfg,
                           const bender::lint::CertifyOptions &opts)
{
    // The exemplar sequence of each kind, at the catalog's default
    // probe row.  The tracker kinds inject victim-refresh cycles
    // (device-aware ones cover the coupled partner too); row swap
    // costs a double row cycle plus the data-migration burst.
    const auto row =
        std::min<dram::RowAddr>(1024, cfg.rowsPerBank / 2);
    MitigationSequence seq;
    seq.kind = kind;
    seq.bank = 0;
    switch (kind) {
    case MitigationKind::None:
        break;  // Certifies the empty program: the free baseline.
    case MitigationKind::Graphene:
        seq.rows = victimRows(cfg, row, false);
        break;
    case MitigationKind::Rfm:
    case MitigationKind::Drfm:
        seq.rows = victimRows(cfg, row, true);
        break;
    case MitigationKind::RowSwap:
        seq.rows = {row, cfg.rowsPerBank - cfg.rowsPerBank / 8};
        seq.extraPs =
            int64_t(2 * cfg.columnsPerRow()) * ps(cfg.timing.tCkNs);
        break;
    }
    return bender::lint::certify(seq.program(cfg), cfg, opts);
}

std::unique_ptr<Mitigation>
makeMitigation(MitigationKind kind, const dram::DeviceConfig &cfg,
               const MitigationOptions &opts)
{
    const auto cert = certifyMitigationSequences(kind, cfg);
    for (const auto &d : cert.report.diags) {
        if (!d.expected && d.severity == bender::lint::Severity::Error)
            fatal("makeMitigation: " + std::string(mitigationId(kind)) +
                  "'s own sequence fails certification: " + d.message);
    }
    switch (kind) {
    case MitigationKind::None:
        return nullptr;
    case MitigationKind::Graphene: {
        TrackerOptions t = opts.graphene;
        if (t.coupledAware && t.coupledDistance == 0)
            t.coupledDistance = cfg.coupledRowDistance.value_or(0);
        return std::make_unique<GrapheneMitigation>(cfg, t);
    }
    case MitigationKind::Rfm:
        return std::make_unique<RfmMitigation>(cfg, opts.raaimt,
                                               opts.rfmTableSize);
    case MitigationKind::Drfm:
        return std::make_unique<DrfmMitigation>(cfg, opts.drfmInterval);
    case MitigationKind::RowSwap: {
        RowSwapOptions r = opts.rowswap;
        if (r.spareBase == 0) {
            // Auto: reserve the top eighth of the bank for spares,
            // clear of the demand footprint.
            r.spareBase = cfg.rowsPerBank - cfg.rowsPerBank / 8;
        }
        if (r.coupledAware && r.coupledDistance == 0)
            r.coupledDistance = cfg.coupledRowDistance.value_or(0);
        return std::make_unique<RowSwapMitigation>(cfg, r);
    }
    }
    fatal("makeMitigation: bad kind");
    return nullptr;
}

uint32_t
executeSequence(bender::Host &host, const MitigationSequence &seq)
{
    switch (seq.kind) {
    case MitigationKind::Rfm:
    case MitigationKind::Drfm:
        // In-DRAM: the device translates the aggressor through its
        // own remap and refreshes its coupled partner's neighbours too.
        return host.device().refreshAggressorNeighbors(
            seq.bank, seq.neutralized.front(), host.now());
    case MitigationKind::RowSwap:
        // The data migration: a straight row copy, source to target.
        host.writeRowBits(seq.bank, seq.rows[1],
                          host.readRowBits(seq.bank, seq.rows[0]));
        return 0;
    case MitigationKind::None:
    case MitigationKind::Graphene:
        // MC-side victim refresh: ordinary ACT..PRE commands.
        host.run(seq.program(host.config()));
        return 0;
    }
    fatal("executeSequence: bad kind");
    return 0;
}

void
hammerThroughMitigation(bender::Host &host, Mitigation &mit,
                        dram::BankId bank, dram::RowAddr row,
                        uint64_t count)
{
    // Chunked execution keeps the simulation fast while preserving
    // trigger semantics: counters accumulate exactly `count`
    // activations and no firing point can be skipped past.
    const uint64_t chunk = mit.accountingChunk();
    uint64_t remaining = count;
    while (remaining > 0) {
        const uint64_t n = std::min(chunk, remaining);
        host.hammer(bank, mit.resolve(bank, row), n);
        mit.onActivate(bank, row, n);
        for (const auto &seq : mit.pendingCommands())
            executeSequence(host, seq);
        remaining -= n;
    }
}

} // namespace core
} // namespace dramscope
