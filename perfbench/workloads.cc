/**
 * @file
 * The four benchmark workloads.  Each one builds its devices in the
 * set-up phase, then calls each layer's public functions, wrapping
 * every call in a span and checking every operation's output.
 */

#include "workloads.h"

#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "bender/host.h"
#include "bender/lint.h"
#include "core/charact.h"
#include "core/physmap.h"
#include "core/re_adjacency.h"
#include "core/re_coupled.h"
#include "core/re_polarity.h"
#include "core/re_retention.h"
#include "core/re_subarray.h"
#include "mc/mc.h"
#include "mc/sweep.h"
#include "mc/workload.h"
#include "util/rng.h"

namespace perfbench {

using namespace dramscope;

// ---------------------------------------------------------------------
// Workload sizes.  Pinned: changing one changes what the benchmark
// measures, so it needs a new baseline.
// ---------------------------------------------------------------------

/** aib_sweep: victim rows per attack (Hcnt searches use up to 24). */
constexpr uint32_t kAibVictimRows = 64;

/** mc_exec / mc_certify: requests per grid cell. */
constexpr size_t kExecRequests = 10000;
constexpr size_t kCertifyRequests = 10000;

/** Device preset of the mc workloads. */
constexpr const char *kMcPreset = "A_x8_2018";

// ---------------------------------------------------------------------
// Shared bookkeeping.
// ---------------------------------------------------------------------

void
SimCounts::addChip(dram::Chip &chip)
{
    const dram::ChipStats &s = chip.stats();
    cmds += s.acts + s.pres + s.reads + s.writes + s.refs;
    acts += s.acts;
    for (uint32_t b = 0; b < chip.config().numBanks; ++b) {
        const dram::BankStats &bs = chip.bank(dram::BankId(b)).stats();
        disturbFlips += bs.disturbFlips;
        retentionFlips += bs.retentionFlips;
    }
    violations += chip.violationCount();
}

void
Digest::bytes(const void *p, size_t n)
{
    const auto *c = static_cast<const unsigned char *>(p);
    for (size_t i = 0; i < n; ++i) {
        h_ ^= c[i];
        h_ *= 0x100000001b3ULL;
    }
}

Digest &
Digest::add(uint64_t v)
{
    bytes(&v, sizeof(v));
    return *this;
}

Digest &
Digest::add(double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return add(bits);
}

Digest &
Digest::add(const std::string &s)
{
    add(uint64_t(s.size()));
    bytes(s.data(), s.size());
    return *this;
}

Round::Round(bool traced, bool first)
    : tracer_(traced), first_(first), start_(Clock::now())
{
}

void
Round::beginTimed()
{
    timedStart_ = Clock::now();
    result_.setupS =
        std::chrono::duration<double>(timedStart_ - start_).count();
    cpuStart_ = processCpuSeconds();
}

void
Round::endTimed()
{
    result_.wallS =
        std::chrono::duration<double>(Clock::now() - timedStart_).count();
    result_.cpuS = processCpuSeconds() - cpuStart_;
    if (traced()) {
        result_.spans = tracer_.spans();
        result_.device = tracer_.deviceTotals();
    }
}

void
Round::op(const std::string &name, const std::function<uint64_t()> &body)
{
    result_.ops.push_back({name, 0, true, {}});
    current_ = &result_.ops.back();
    try {
        SpanScope span(tracer_, "op:" + name);
        current_->digest = body();
    } catch (const std::exception &e) {
        fail(std::string("exception: ") + e.what());
    }
    current_ = nullptr;
}

void
Round::fail(const std::string &why)
{
    if (current_ && current_->ok) {
        current_->ok = false;
        current_->error = why;
    }
}

namespace {

/** Runs @p fn inside a layer-call span. */
template <typename Fn>
auto
layer(Round &round, const char *name, Fn &&fn)
{
    SpanScope span(round.tracer(), name);
    return fn();
}

/** Process-variation seed of a device workload's chips. */
uint64_t
deviceSeed(uint64_t seed)
{
    return hashCombine(0xd2a35c09ULL, seed);
}

/** A device built during set-up: the Chip, optionally behind a timer. */
struct BuiltDevice
{
    std::unique_ptr<dram::Device> device;  //!< What the host drives.
    dram::Chip *chip = nullptr;            //!< The simulated silicon.
    const TimedDevice *timed = nullptr;    //!< Traced rounds only.
};

BuiltDevice
buildDevice(const dram::DeviceConfig &cfg, Round &round)
{
    BuiltDevice out;
    auto chip = std::make_unique<dram::Chip>(cfg);
    out.chip = chip.get();
    if (round.traced()) {
        auto timed = std::make_unique<TimedDevice>(std::move(chip));
        out.timed = timed.get();
        round.tracer().addDevice(out.timed);
        out.device = std::move(timed);
    } else {
        out.device = std::move(chip);
    }
    return out;
}

/**
 * Sweep replicas built during set-up.  SweepRunner creates replicas
 * lazily from inside its workers; handing out pre-built devices keeps
 * their construction out of the timed phase.
 */
class ReplicaPool
{
  public:
    ReplicaPool(const dram::DeviceConfig &cfg, unsigned count, Round &round)
    {
        for (unsigned i = 0; i < count; ++i)
            built_.push_back(buildDevice(cfg, round));
    }

    /** Factory handing out one pre-built device per call. */
    core::DeviceFactory
    factory()
    {
        return [this](const dram::DeviceConfig &) {
            std::lock_guard<std::mutex> lock(mu_);
            if (handedOut_ == built_.size())
                throw std::runtime_error("more sweep replicas requested "
                                         "than pre-built");
            return std::move(built_[handedOut_++].device);
        };
    }

    /** Adds every replica's counters, used or not. */
    void
    addSim(SimCounts &sim) const
    {
        for (const BuiltDevice &b : built_)
            sim.addChip(*b.chip);
    }

    /** Device seconds of every replica the sweep used. */
    std::vector<double>
    busySeconds() const
    {
        std::vector<double> out;
        for (size_t i = 0; i < handedOut_; ++i) {
            if (built_[i].timed)
                out.push_back(double(built_[i].timed->tally().totalNs()) *
                              1e-9);
        }
        return out;
    }

    size_t handedOut() const { return handedOut_; }

  private:
    std::vector<BuiltDevice> built_;
    std::mutex mu_;
    size_t handedOut_ = 0;
};

bool
isProbability(double v)
{
    return std::isfinite(v) && v >= 0.0 && v <= 1.0;
}

// ---------------------------------------------------------------------
// aib_sweep: the characterization suite on the parallel sweep engine.
// ---------------------------------------------------------------------

void
runAibSweep(const Settings &s, Round &round)
{
    dram::DeviceConfig cfg = dram::makePreset("A_x4_2021");
    cfg.variationSeed = deviceSeed(s.seed);
    BuiltDevice dut = buildDevice(cfg, round);
    bender::Host host(*dut.device);
    host.setFastPathMode(dram::FastPathMode::Exact);
    ReplicaPool replicas(cfg, kSweepJobs, round);

    core::CharactOptions opts;
    opts.rowRemap = cfg.rowRemap;
    opts.victimRows = kAibVictimRows;
    opts.jobs = kSweepJobs;
    opts.sweepSeed = s.seed;
    opts.deviceFactory = replicas.factory();
    core::Characterization charact(
        host,
        core::PhysMap::fromSwizzle(dut.chip->swizzle(), cfg.columnsPerRow(),
                                   cfg.rdDataBits),
        opts);

    round.beginTimed();

    // Figure 12 panels.
    struct Panel
    {
        const char *name;
        dram::AibMechanism mech;
        bool dataOne;
        bool upper;
    };
    const Panel panels[] = {
        {"press-dis-up", dram::AibMechanism::RowPress, false, true},
        {"press-chg-up", dram::AibMechanism::RowPress, true, true},
        {"press-dis-lo", dram::AibMechanism::RowPress, false, false},
        {"press-chg-lo", dram::AibMechanism::RowPress, true, false},
        {"hammer-dis-up", dram::AibMechanism::RowHammer, false, true},
        {"hammer-chg-up", dram::AibMechanism::RowHammer, true, true},
        {"hammer-dis-lo", dram::AibMechanism::RowHammer, false, false},
        {"hammer-chg-lo", dram::AibMechanism::RowHammer, true, false},
    };
    for (const Panel &p : panels) {
        round.op(std::string("fig12/") + p.name, [&] {
            const auto ber = layer(round, "charact.ber", [&] {
                return charact.berVsPhysIndex(p.mech, p.dataOne, p.upper);
            });
            const double sum = std::accumulate(ber.begin(), ber.end(), 0.0);
            bool in_range = ber.size() == 32;
            for (const double v : ber)
                in_range = in_range && isProbability(v);
            if (!in_range)
                round.fail("BER outside [0, 1]");
            // RowHammer flips both data values; RowPress flips charged
            // cells.
            const bool press = p.mech == dram::AibMechanism::RowPress;
            if ((!press || p.dataOne) && sum <= 0.0)
                round.fail("panel that must flip cells has no flips");
            Digest d;
            for (const double v : ber)
                d.add(v);
            return d.value();
        });
    }

    // Figure 13 gate types.
    for (const auto mech :
         {dram::AibMechanism::RowHammer, dram::AibMechanism::RowPress}) {
        const bool press = mech == dram::AibMechanism::RowPress;
        round.op(press ? "fig13/press" : "fig13/hammer", [&] {
            const core::GateTypeBer g = layer(round, "charact.gate", [&] {
                return charact.gateTypeBer(mech);
            });
            const double v[4] = {g.dischargedGateA, g.dischargedGateB,
                                 g.chargedGateA, g.chargedGateB};
            for (const double x : v) {
                if (!isProbability(x))
                    round.fail("gate-type BER outside [0, 1]");
            }
            if (v[2] + v[3] <= 0.0)
                round.fail("no charged-cell flips");
            Digest d;
            for (const double x : v)
                d.add(x);
            return d.value();
        });
    }

    // Figure 16 pattern cells: the baseline, the O14 worst case and
    // a complementary pair.
    const uint8_t cells[][2] = {{0xF, 0x0}, {0x3, 0xC}, {0x5, 0xA}};
    for (const auto &c : cells) {
        char name[32];
        std::snprintf(name, sizeof(name), "fig16/v%X-a%X", c[0], c[1]);
        round.op(name, [&] {
            const double ber = layer(round, "charact.pattern", [&] {
                return charact.patternBer(c[0], c[1]);
            });
            if (!isProbability(ber) || ber <= 0.0)
                round.fail("pattern BER not in (0, 1]");
            return Digest().add(ber).value();
        });
    }

    // Figure 15 relative Hcnt, worst case: both neighbour distances
    // opposite to a discharged Vic0.
    round.op("fig15/vic0-d12", [&] {
        const double rel = layer(round, "charact.hcnt", [&] {
            return charact.relativeHcnt(false, true, true);
        });
        if (!std::isfinite(rel) || rel <= 0.0)
            round.fail("relative Hcnt not positive");
        return Digest().add(rel).value();
    });

    round.endTimed();

    RoundResult &r = round.result();
    r.sim.addChip(*dut.chip);
    replicas.addSim(r.sim);
    r.replicaBusyS = replicas.busySeconds();
    round.count("sweep.replicas", double(replicas.handedOut()));
}

// ---------------------------------------------------------------------
// re_scan: the `dramscope_cli report` pipeline plus retention profile.
// ---------------------------------------------------------------------

/** Subarray heights the first edge section must decompose into. */
std::vector<uint32_t>
expectedHeights(const dram::DeviceConfig &cfg)
{
    std::vector<uint32_t> out;
    while (std::accumulate(out.begin(), out.end(), 0u) < cfg.edgeSectionRows) {
        for (const auto &e : cfg.subarrayPattern)
            out.insert(out.end(), e.count, e.height);
    }
    return out;
}

void
runReScan(const Settings &s, Round &round)
{
    const char *presets[] = {"A_x4_2016", "C_x4_2021"};
    struct Dut
    {
        dram::DeviceConfig cfg;
        BuiltDevice built;
        std::unique_ptr<bender::Host> host;
    };
    std::vector<Dut> duts;
    for (const char *id : presets) {
        Dut d;
        d.cfg = dram::makePreset(id);
        d.cfg.variationSeed = deviceSeed(s.seed);
        d.built = buildDevice(d.cfg, round);
        d.host = std::make_unique<bender::Host>(*d.built.device);
        d.host->setFastPathMode(dram::FastPathMode::Exact);
        duts.push_back(std::move(d));
    }

    round.beginTimed();

    for (Dut &dut : duts) {
        const dram::DeviceConfig &cfg = dut.cfg;
        bender::Host &host = *dut.host;
        const std::string prefix = cfg.name + "/";

        dram::RowRemapScheme scheme = dram::RowRemapScheme::None;
        round.op(prefix + "adjacency", [&] {
            scheme = layer(round, "re.adjacency", [&] {
                core::AdjacencyMapper adjacency(host);
                return adjacency.detectRemapScheme(1024);
            });
            if (scheme != cfg.rowRemap)
                round.fail("remap scheme differs from the device's");
            return Digest().add(uint64_t(scheme)).value();
        });

        core::SubarrayOptions sopts;
        sopts.rowRemap = scheme;
        core::SubarrayMapper subarrays(host, sopts);
        core::SubarrayDiscovery disc;
        round.op(prefix + "subarray", [&] {
            disc = layer(round, "re.subarray",
                         [&] { return subarrays.discoverFirstSection(); });
            if (disc.sectionRows != cfg.edgeSectionRows)
                round.fail("section rows differ from the device's");
            if (disc.heights != expectedHeights(cfg))
                round.fail("subarray heights differ from the device's");
            if (!disc.edgePairConfirmed || !disc.openBitline)
                round.fail("edge pair / open bitline not confirmed");
            Digest d;
            for (const uint32_t h : disc.heights)
                d.add(uint64_t(h));
            d.add(uint64_t(disc.sectionRows))
                .add(uint64_t(disc.openBitline))
                .add(uint64_t(disc.copyInvertsData))
                .add(uint64_t(disc.edgePairConfirmed));
            return d.value();
        });
        // Downstream steps need two discovered subarrays.
        if (disc.heights.size() < 2)
            disc.heights = expectedHeights(cfg);

        round.op(prefix + "aib_check", [&] {
            const bool ok = layer(round, "re.aib_check", [&] {
                return subarrays.aibCrossCheckBoundary(disc.heights.at(0));
            });
            if (!ok)
                round.fail("AIB cross-check of the first boundary failed");
            return Digest().add(uint64_t(ok)).value();
        });

        round.op(prefix + "coupled", [&] {
            const auto distance = layer(round, "re.coupled", [&] {
                core::CoupledOptions copts;
                copts.probeRow = 1200;
                core::CoupledRowDetector coupled(host, copts);
                return coupled.detect();
            });
            if (distance != cfg.coupledRowDistance)
                round.fail("coupled distance differs from the device's");
            return Digest().add(uint64_t(distance.value_or(0))).value();
        });

        round.op(prefix + "polarity", [&] {
            const core::PolarityResult pol = layer(round, "re.polarity", [&] {
                core::CellTypeClassifier polarity(host);
                return polarity.classify(
                    {disc.heights.at(0) / 2,
                     disc.heights.at(0) + disc.heights.at(1) / 2});
            });
            const bool interleaved =
                cfg.polarityPolicy ==
                dram::CellPolarityPolicy::InterleavedPerSubarray;
            if (pol.mixed != interleaved)
                round.fail("cell polarity differs from the device's");
            Digest d;
            for (const auto &p : pol.probes) {
                d.add(uint64_t(p.row))
                    .add(uint64_t(p.onesToZeros))
                    .add(uint64_t(p.zerosToOnes));
            }
            return d.value();
        });

        round.op(prefix + "retention", [&] {
            const core::RetentionProfile prof =
                layer(round, "re.retention", [&] {
                    core::RetentionProfiler profiler(host);
                    return profiler.profile();
                });
            bool monotone = !prof.curve.empty();
            for (size_t k = 1; k < prof.curve.size(); ++k)
                monotone = monotone && prof.curve[k].decayed >=
                                           prof.curve[k - 1].decayed;
            if (!monotone || !(prof.medianMs > 0.0))
                round.fail("retention curve not monotone or no median");
            Digest d;
            for (const auto &p : prof.curve)
                d.add(p.waitMs).add(p.decayed).add(p.tested);
            d.add(prof.medianMs).add(uint64_t(prof.weakCells.size()));
            return d.value();
        });
    }

    round.endTimed();
    for (Dut &dut : duts)
        round.result().sim.addChip(*dut.built.chip);
}

// ---------------------------------------------------------------------
// The mc workloads.
// ---------------------------------------------------------------------

/** A grid cell with its index in the plan it came from. */
struct McCell
{
    mc::SweepCell cell;
    uint32_t shard;
};

std::string
cellName(const mc::SweepCell &c)
{
    return std::string(mc::workloadId(c.workload)) + "/" +
           mc::policyId(c.policy) + "/" + core::mitigationId(c.mitigation);
}

/**
 * Generates and schedules one cell exactly as mc::buildSweepCellSchedule
 * does (same per-shard seed split), one layer call at a time.
 */
mc::ScheduleResult
scheduleCell(Round &round, const McCell &c, const dram::DeviceConfig &cfg,
             uint64_t seed, size_t requests)
{
    const uint64_t block =
        uint64_t(mc::workloadTable().size()) * mc::policyTable().size();
    mc::WorkloadOptions wopt;
    wopt.requests = requests;
    wopt.seed = hashCombine(seed, c.shard % block);
    const auto reqs = layer(round, "mc.workload", [&] {
        return mc::makeWorkload(c.cell.workload, cfg, wopt);
    });
    mc::SchedulerOptions sopt;
    sopt.policy = c.cell.policy;
    sopt.mitigation = c.cell.mitigation;
    auto result = layer(round, "mc.schedule",
                        [&] { return mc::schedule(reqs, cfg, sopt); });

    const mc::ScheduleStats &st = result.stats;
    if (st.served() != reqs.size())
        round.fail("scheduler served a different number of requests");
    round.count("mc.requests", double(reqs.size()));
    round.count("mc.rowhits", double(st.rowHits));
    round.count("mc.served", double(st.served()));
    round.count("mc.mit_cmds", double(st.mitCmds));
    double &max_acts = round.result().counts["mc.max_row_acts"];
    max_acts = std::max(max_acts, double(st.maxRowActsPerRefWindow));
    return result;
}

/**
 * Round 0 only (empty otherwise): each cell's schedule summary as
 * mc::buildSweepCellSchedule makes it.  The operations compare their
 * own schedules with these, so scheduleCell's copy of the seed split
 * cannot drift from what `mcsweep` and `certify --grid` run unnoticed.
 */
std::vector<std::string>
librarySummaries(Round &round, const std::vector<McCell> &cells,
                 const dram::DeviceConfig &cfg, uint64_t seed,
                 size_t requests)
{
    std::vector<std::string> out;
    if (!round.first())
        return out;
    mc::McSweepOptions opt;
    opt.requests = requests;
    opt.seed = seed;
    for (const McCell &c : cells) {
        out.push_back(mc::buildSweepCellSchedule(c.cell, c.shard, cfg, opt)
                          .stats.summary());
    }
    return out;
}

/** Fails the operation when round 0's library schedule differs. */
void
checkLibrarySchedule(Round &round, const std::vector<std::string> &library,
                     size_t i, const mc::ScheduleResult &sched)
{
    if (!library.empty() && library.at(i) != sched.stats.summary())
        round.fail("schedule differs from mc::buildSweepCellSchedule's");
}

void
runMcExec(const Settings &s, Round &round)
{
    const dram::DeviceConfig cfg = dram::makePreset(kMcPreset);
    std::vector<McCell> cells;
    const auto plan =
        mc::sweepPlan({core::MitigationKind::None,
                       core::MitigationKind::Graphene});
    for (uint32_t i = 0; i < plan.size(); ++i) {
        if (plan[i].policy == mc::RowPolicy::Open ||
            plan[i].policy == mc::RowPolicy::Closed)
            cells.push_back({plan[i], i});
    }
    // A fresh chip per cell, as the certify-then-run flow uses.
    std::vector<BuiltDevice> devices;
    std::vector<std::unique_ptr<bender::Host>> hosts;
    for (size_t i = 0; i < cells.size(); ++i) {
        devices.push_back(buildDevice(cfg, round));
        hosts.push_back(std::make_unique<bender::Host>(*devices.back().device));
        hosts.back()->setFastPathMode(dram::FastPathMode::Exact);
    }
    const std::vector<std::string> library =
        librarySummaries(round, cells, cfg, s.seed, kExecRequests);

    round.beginTimed();

    for (size_t i = 0; i < cells.size(); ++i) {
        round.op(cellName(cells[i].cell), [&] {
            const mc::ScheduleResult sched =
                scheduleCell(round, cells[i], cfg, s.seed, kExecRequests);
            checkLibrarySchedule(round, library, i, sched);
            const bender::lint::Report report = layer(round, "lint.lint", [&] {
                return bender::lint::lint(sched.program, cfg);
            });
            for (const auto &d : report.diags) {
                if (!d.expected) {
                    round.fail("unexpected lint diagnostic: " + d.message);
                    break;
                }
            }
            const bender::ExecResult exec = layer(round, "host.run", [&] {
                return hosts[i]->run(sched.program);
            });
            if (devices[i].device->violationCount() != 0)
                round.fail("device recorded timing violations");
            if (exec.commandsIssued != report.commandCount)
                round.fail("executed command count differs from lint's");
            if (exec.reads.size() != sched.stats.reads)
                round.fail("read results differ from reads served");
            round.count("lint.lint.cmds", double(report.commandCount));
            round.count("host.run.cmds", double(exec.commandsIssued));
            // Done with this cell's chip: count it, then free it, so
            // memory holds one cell's rows at a time.
            round.result().sim.addChip(*devices[i].chip);
            hosts[i].reset();
            if (devices[i].timed)
                round.tracer().retireDevice(devices[i].timed);
            devices[i] = BuiltDevice();

            Digest d;
            d.add(sched.stats.summary());
            for (const uint64_t v : exec.reads)
                d.add(v);
            d.add(uint64_t(exec.endNs)).add(exec.commandsIssued);
            return d.value();
        });
    }

    round.endTimed();
}

void
runMcCertify(const Settings &s, Round &round)
{
    const dram::DeviceConfig cfg = dram::makePreset(kMcPreset);
    std::vector<core::MitigationKind> mitigations;
    for (const auto &info : core::mitigationTable())
        mitigations.push_back(info.kind);
    std::vector<McCell> cells;
    const auto plan = mc::sweepPlan(mitigations);
    for (uint32_t i = 0; i < plan.size(); ++i)
        cells.push_back({plan[i], i});
    const std::vector<std::string> library =
        librarySummaries(round, cells, cfg, s.seed, kCertifyRequests);

    round.beginTimed();

    SimCounts &sim = round.result().sim;
    for (size_t i = 0; i < cells.size(); ++i) {
        round.op(cellName(cells[i].cell), [&] {
            const mc::ScheduleResult sched =
                scheduleCell(round, cells[i], cfg, s.seed, kCertifyRequests);
            checkLibrarySchedule(round, library, i, sched);
            const bender::lint::Certificate cert =
                layer(round, "lint.certify", [&] {
                    return bender::lint::certify(sched.program, cfg);
                });
            if (!cert.certified())
                round.fail("cell schedule not certified");
            // Static exposure bound >= dynamic exposure, always.
            if (cert.maxRowActs < sched.stats.maxRowActsPerRefWindow)
                round.fail("certified bound below the scheduler's exposure");
            round.count("lint.certify.cmds",
                        double(cert.report.commandCount));
            sim.cmds += cert.report.commandCount;
            for (const auto &ins : sched.program.instrs())
                sim.acts += ins.op == bender::Opcode::Act ? 1 : 0;

            Digest d;
            d.add(sched.stats.summary()).add(cert.summary());
            return d.value();
        });
    }

    round.endTimed();
}

} // namespace

const std::vector<WorkloadDef> &
workloads()
{
    // Why each workload exists: BENCHMARK.json and README.md.
    static const std::vector<WorkloadDef> table = {
        {"aib_sweep", runAibSweep, true},
        {"re_scan", runReScan},
        {"mc_exec", runMcExec},
        {"mc_certify", runMcCertify},
    };
    return table;
}

} // namespace perfbench
