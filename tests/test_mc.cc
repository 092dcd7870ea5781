/**
 * @file
 * Memory-controller layer tests: address decode, policy registry,
 * workload generators, trace round-trip, the lint-certification
 * contract (scheduled streams are in-spec by construction on every
 * backend), and serial==parallel equivalence of the mc sweep.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>

#include "bender/host.h"
#include "bender/lint.h"
#include "dram/chip.h"
#include "dram/hbm_stack.h"
#include "mapping/dimm.h"
#include "mc/mc.h"
#include "mc/sweep.h"
#include "mc/workload.h"
#include "test_common.h"
#include "util/jsonl.h"
#include "util/metrics.h"
#include "util/registry.h"
#include "util/rng.h"

namespace dramscope {
namespace {

using mc::AddrDecoder;
using mc::ReqType;
using mc::Request;
using mc::RowPolicy;
using mc::SchedulerOptions;
using mc::WorkloadKind;
using mc::WorkloadOptions;

// ---------------------------------------------------------------------
// Address decode.
// ---------------------------------------------------------------------

TEST(McAddrDecoder, DecodeEncodeIsABijectionOverTheWholeSpace)
{
    const AddrDecoder dec(testutil::tinyPlain());
    EXPECT_EQ(dec.addressSpace(),
              uint64_t(dec.banks()) * dec.rows() * dec.columns());
    for (uint64_t a = 0; a < dec.addressSpace(); ++a) {
        const auto d = dec.decode(a);
        EXPECT_LT(d.bank, dec.banks());
        EXPECT_LT(d.row, dec.rows());
        EXPECT_LT(d.col, dec.columns());
        EXPECT_EQ(dec.encode(d.bank, d.row, d.col), a);
    }
}

TEST(McAddrDecoder, OutOfRangeAddressesWrap)
{
    const AddrDecoder dec(testutil::tinyPlain());
    const uint64_t space = dec.addressSpace();
    const auto lo = dec.decode(17);
    const auto hi = dec.decode(17 + 3 * space);
    EXPECT_EQ(lo.bank, hi.bank);
    EXPECT_EQ(lo.row, hi.row);
    EXPECT_EQ(lo.col, hi.col);
}

TEST(McAddrDecoder, SequentialAddressesWalkColumnsThenBanks)
{
    const AddrDecoder dec(testutil::tinyPlain());
    const auto a0 = dec.decode(0);
    const auto a1 = dec.decode(1);
    EXPECT_EQ(a0.row, a1.row);
    EXPECT_EQ(a0.bank, a1.bank);
    EXPECT_EQ(a1.col, a0.col + 1);
    const auto b = dec.decode(dec.columns());
    EXPECT_EQ(b.bank, a0.bank + 1);
    EXPECT_EQ(b.row, a0.row);
}

// ---------------------------------------------------------------------
// Registries.
// ---------------------------------------------------------------------

TEST(McPolicies, RegistryRoundTripsAndRejectsUnknownIds)
{
    EXPECT_EQ(mc::policyTable().size(), 4u);
    for (const auto &info : mc::policyTable()) {
        EXPECT_STREQ(mc::policyId(info.policy), info.id);
        EXPECT_EQ(registry::find(mc::policyTable(), info.id), &info);
    }
    EXPECT_STREQ(mc::policyId(RowPolicy::Open), "open");
    EXPECT_STREQ(mc::policyId(RowPolicy::HitCap), "cap");
    EXPECT_EQ(registry::find(mc::policyTable(), "fifo"), nullptr);
}

TEST(McWorkloads, RegistryRoundTripsAndRejectsUnknownIds)
{
    EXPECT_EQ(mc::workloadTable().size(), 3u);
    for (const auto &info : mc::workloadTable()) {
        EXPECT_STREQ(mc::workloadId(info.kind), info.id);
        EXPECT_EQ(registry::find(mc::workloadTable(), info.id), &info);
    }
    EXPECT_EQ(registry::find(mc::workloadTable(), "random"), nullptr);
}

// ---------------------------------------------------------------------
// Workload generators.
// ---------------------------------------------------------------------

TEST(McWorkloads, GeneratorsAreSeedDeterministic)
{
    const auto cfg = testutil::tinyPlain();
    for (const auto &[kind, id] : mc::workloadTable()) {
        WorkloadOptions opt;
        opt.requests = 500;
        opt.seed = 77;
        const auto a = mc::makeWorkload(kind, cfg, opt);
        const auto b = mc::makeWorkload(kind, cfg, opt);
        EXPECT_EQ(a, b) << mc::workloadId(kind);
        opt.seed = 78;
        EXPECT_NE(mc::makeWorkload(kind, cfg, opt), a)
            << mc::workloadId(kind);
    }
}

TEST(McWorkloads, ArrivalsAreMonotoneAndAddressesInRange)
{
    const auto cfg = testutil::tinyPlain();
    const AddrDecoder dec(cfg);
    for (const auto &[kind, id] : mc::workloadTable()) {
        WorkloadOptions opt;
        opt.requests = 300;
        const auto reqs = mc::makeWorkload(kind, cfg, opt);
        ASSERT_EQ(reqs.size(), 300u);
        int64_t prev = 0;
        for (const auto &r : reqs) {
            EXPECT_GE(r.arrivalPs, prev);
            EXPECT_LT(r.addr, dec.addressSpace());
            prev = r.arrivalPs;
        }
    }
}

TEST(McWorkloads, ZipfianConcentratesOnHotRows)
{
    const auto cfg = testutil::tinyPlain();
    const AddrDecoder dec(cfg);
    WorkloadOptions opt;
    opt.requests = 4000;
    const auto reqs =
        mc::makeWorkload(WorkloadKind::Zipfian, cfg, opt);
    std::map<uint64_t, uint64_t> perRow;
    for (const auto &r : reqs)
        ++perRow[dec.decode(r.addr).row];
    uint64_t hottest = 0;
    for (const auto &[row, n] : perRow)
        hottest = std::max(hottest, n);
    // At skew 1.2 over 1024 rows, rank 1 alone draws about 17% of the
    // requests; uniform traffic would put ~4 requests on each row.
    EXPECT_GT(hottest, opt.requests / 20);
}

// ---------------------------------------------------------------------
// Trace round-trip.
// ---------------------------------------------------------------------

TEST(McTrace, WriteReadRoundTripsExactly)
{
    const auto cfg = testutil::tinyPlain();
    WorkloadOptions opt;
    opt.requests = 200;
    const auto reqs =
        mc::makeWorkload(WorkloadKind::Zipfian, cfg, opt);
    const std::string path = testing::TempDir() + "mc_trace_rt.jsonl";
    mc::writeTrace(path, reqs);
    EXPECT_EQ(mc::readTrace(path), reqs);
    std::remove(path.c_str());
}

TEST(McTrace, MalformedLinesAreRejectedWithTheLineNumber)
{
    const std::string path = testing::TempDir() + "mc_trace_bad.jsonl";
    {
        std::ofstream out(path, std::ios::trunc);
        out << "{\"arrival_ps\":10,\"addr\":3,\"type\":\"rd\"}\n"
            << "{\"arrival_ps\":20,\"addr\":4}\n";
    }
    try {
        mc::readTrace(path);
        FAIL() << "expected a parse error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("trace:2"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(McTrace, UnknownKeysAndBadTypesAreRejected)
{
    const std::string path = testing::TempDir() + "mc_trace_bad2.jsonl";
    {
        std::ofstream out(path, std::ios::trunc);
        out << "{\"arrival_ps\":10,\"addr\":3,\"type\":\"zz\"}\n";
    }
    EXPECT_THROW(mc::readTrace(path), std::runtime_error);
    {
        std::ofstream out(path, std::ios::trunc);
        out << "{\"arrival_ps\":10,\"addr\":3,\"type\":\"rd\","
               "\"extra\":1}\n";
    }
    EXPECT_THROW(mc::readTrace(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(McTrace, OutOfRangeNumbersAndRepeatedKeysAreRejected)
{
    const std::string path = testing::TempDir() + "mc_trace_bad3.jsonl";
    for (const char *line :
         {"{\"arrival_ps\":99999999999999999999999,\"addr\":3,"
          "\"type\":\"rd\"}",
          "{\"arrival_ps\":18446744073709551615,\"addr\":3,"
          "\"type\":\"rd\"}",
          "{\"arrival_ps\":9223372036854775807,\"addr\":3,"
          "\"type\":\"rd\"}",
          "{\"arrival_ps\":1,\"arrival_ps\":2,\"addr\":3,"
          "\"type\":\"rd\"}"}) {
        {
            std::ofstream out(path, std::ios::trunc);
            out << line << "\n";
        }
        try {
            mc::readTrace(path);
            ADD_FAILURE() << "accepted " << line;
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("trace:1"),
                      std::string::npos)
                << e.what();
        } catch (const std::exception &e) {
            ADD_FAILURE() << line << " threw an untyped " << e.what();
        }
    }
    // The latest arrival the scheduler accepts still fits.
    {
        std::ofstream out(path, std::ios::trunc);
        out << "{\"arrival_ps\":" << mc::kMaxArrivalPs
            << ",\"addr\":3,\"type\":\"rd\"}\n";
    }
    EXPECT_EQ(mc::readTrace(path).at(0).arrivalPs, mc::kMaxArrivalPs);
    std::remove(path.c_str());
}

TEST(McTrace, ArrivalPastTheSchedulerLimitNamesItsLineAndColumn)
{
    const std::string path = testing::TempDir() + "mc_trace_late.jsonl";
    {
        std::ofstream out(path, std::ios::trunc);
        out << "{\"arrival_ps\":10,\"addr\":3,\"type\":\"rd\"}\n"
            << "{\"addr\":5, \"arrival_ps\":" << mc::kMaxArrivalPs + 1
            << ",\"type\":\"rd\"}\n";
    }
    try {
        mc::readTrace(path);
        ADD_FAILURE() << "accepted an arrival past kMaxArrivalPs";
    } catch (const jsonl::ParseError &e) {
        EXPECT_EQ(e.line, 2u);
        EXPECT_EQ(e.col, 25u);
        EXPECT_EQ(std::string(e.what()).rfind("trace:2:25: ", 0), 0u)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(McTrace, MissingFileThrows)
{
    EXPECT_THROW(mc::readTrace("/nonexistent/mc.jsonl"),
                 std::runtime_error);
}

// ---------------------------------------------------------------------
// Scheduler invariants.
// ---------------------------------------------------------------------

std::vector<Request>
mixedWorkload(const dram::DeviceConfig &cfg, size_t n, uint64_t seed)
{
    WorkloadOptions opt;
    opt.requests = n;
    opt.seed = seed;
    return mc::makeWorkload(WorkloadKind::Zipfian, cfg, opt);
}

TEST(McScheduler, ServesEveryRequestAndAccountsOutcomes)
{
    const auto cfg = testutil::tinyPlain();
    const auto reqs = mixedWorkload(cfg, 2000, 5);
    const auto res = mc::schedule(reqs, cfg, {});
    const auto &st = res.stats;
    EXPECT_EQ(st.served(), reqs.size());
    EXPECT_EQ(st.rowHits + st.rowMisses + st.rowConflicts, st.served());
    EXPECT_GE(st.acts, st.rowMisses + st.rowConflicts);
    // Every ACT lands in exactly one exposure window sample.
    uint64_t sampled = 0;
    for (const auto s : st.exposureSamples)
        sampled += s;
    EXPECT_EQ(sampled, st.acts);
    EXPECT_GE(st.maxRowActsPerRefWindow, 1u);
    // Per-bank breakdowns sum to the totals.
    uint64_t acts = 0, hits = 0;
    for (size_t b = 0; b < st.bankActs.size(); ++b) {
        acts += st.bankActs[b];
        hits += st.bankHits[b];
    }
    EXPECT_EQ(acts, st.acts);
    EXPECT_EQ(hits, st.rowHits);
    EXPECT_GT(st.spanPs, 0);
}

TEST(McScheduler, IsDeterministic)
{
    const auto cfg = testutil::tinyPlain();
    const auto reqs = mixedWorkload(cfg, 1000, 9);
    const auto a = mc::schedule(reqs, cfg, {});
    const auto b = mc::schedule(reqs, cfg, {});
    EXPECT_EQ(a.program.size(), b.program.size());
    EXPECT_EQ(a.stats.summary(), b.stats.summary());
}

TEST(McScheduler, RefreshInsertionFollowsTheIntervalKnob)
{
    const auto cfg = testutil::tinyPlain();
    const auto reqs = mixedWorkload(cfg, 1500, 3);
    SchedulerOptions off;
    off.refreshIntervalNs = 0;
    EXPECT_EQ(mc::schedule(reqs, cfg, off).stats.refs, 0u);

    SchedulerOptions dflt;  // < 0: the config's tREFI.
    const auto withRef = mc::schedule(reqs, cfg, dflt);
    EXPECT_GT(withRef.stats.refs, 0u);
    // Roughly one REF per elapsed tREFI.
    const auto expected = uint64_t(
        double(withRef.stats.spanPs) / (cfg.timing.tRefiNs * 1000.0));
    EXPECT_GE(withRef.stats.refs + 1, expected);
}

TEST(McScheduler, PolicyOrderingMatchesIntuition)
{
    const auto cfg = testutil::tinyPlain();
    WorkloadOptions wopt;
    wopt.requests = 2000;
    wopt.seed = 21;
    const auto stream =
        mc::makeWorkload(WorkloadKind::Streaming, cfg, wopt);

    const auto run = [&](RowPolicy p) {
        SchedulerOptions o;
        o.policy = p;
        return mc::schedule(stream, cfg, o).stats;
    };
    const auto open = run(RowPolicy::Open);
    const auto closed = run(RowPolicy::Closed);
    const auto timeout = run(RowPolicy::Timeout);
    const auto cap = run(RowPolicy::HitCap);

    // Streaming traffic row-buffer-hits heavily under an open policy.
    EXPECT_GT(open.rowHitRate(), 0.5);
    // A closed policy can only lose hits relative to open, and the
    // eager precharges cost extra PREs elsewhere on this traffic.
    EXPECT_LE(closed.rowHits, open.rowHits);
    EXPECT_GE(timeout.pres, open.pres);
    EXPECT_GE(cap.pres, open.pres);
    // The hit cap bounds the burst length: with cap=4, at most 4 of
    // every 5 column commands on a bank are hits.
    EXPECT_LT(cap.rowHitRate(), 0.9);

    // Pointer chasing barely hits no matter the policy.
    const auto chase = mc::schedule(
        mc::makeWorkload(WorkloadKind::PointerChase, cfg, wopt), cfg,
        {});
    EXPECT_LT(chase.stats.rowHitRate(), 0.2);
}

TEST(McScheduler, ServesTheOldestArrivedHitFirstOnAnUnsortedTrace)
{
    // A replayed trace may list requests out of arrival order.  Three
    // reads hit bank 0, row 5; the youngest has the lowest index.
    const auto cfg = dram::makePreset("A_x8_2018");
    const AddrDecoder dec(cfg);
    const std::vector<Request> reqs = {
        {dec.encode(0, 5, 2), ReqType::Read, 5000},
        {dec.encode(0, 5, 1), ReqType::Read, 4000},
        {dec.encode(0, 5, 0), ReqType::Read, 0},
    };
    const auto res = mc::schedule(reqs, cfg, {});
    std::vector<dram::ColAddr> cols;
    for (const auto &ins : res.program.instrs()) {
        if (ins.op == bender::Opcode::Rd)
            cols.push_back(ins.col);
    }
    EXPECT_EQ(cols, (std::vector<dram::ColAddr>{0, 1, 2}));
}

TEST(McScheduler, ServesAHitThatEntersTheWindowWhenAServedHitLeaves)
{
    // 65 reads to bank 0 arrive together: the first and the last hit
    // row 5, the 63 between them other rows.  The last one sits past
    // the 64-entry hit window until serving the first erases it from
    // the queue; it must then be served before the row closes.
    const auto cfg = dram::makePreset("A_x8_2018");
    const AddrDecoder dec(cfg);
    std::vector<Request> reqs = {{dec.encode(0, 5, 0), ReqType::Read, 0}};
    for (dram::RowAddr row = 100; row < 163; ++row)
        reqs.push_back({dec.encode(0, row, 0), ReqType::Read, 0});
    reqs.push_back({dec.encode(0, 5, 1), ReqType::Read, 0});
    const auto res = mc::schedule(reqs, cfg, {});

    std::vector<std::string> cmds;
    for (const auto &ins : res.program.instrs()) {
        if (ins.op == bender::Opcode::Act)
            cmds.push_back("ACT row " + std::to_string(ins.row));
        else if (ins.op == bender::Opcode::Rd)
            cmds.push_back("RD col " + std::to_string(ins.col));
        else if (ins.op == bender::Opcode::Pre)
            cmds.push_back("PRE");
        if (cmds.size() == 4)
            break;
    }
    EXPECT_EQ(cmds, (std::vector<std::string>{"ACT row 5", "RD col 0",
                                              "RD col 1", "PRE"}));
    EXPECT_EQ(res.stats.served(), reqs.size());
}

TEST(McScheduler, RejectsInputsItCannotSchedule)
{
    const auto cfg = testutil::tinyPlain();
    const auto reqs = mixedWorkload(cfg, 100, 4);
    const auto expectRejected = [&](const std::vector<Request> &in,
                                    const SchedulerOptions &opt,
                                    const std::string &names) {
        try {
            mc::schedule(in, cfg, opt);
            ADD_FAILURE() << "scheduled; expected a rejection of "
                          << names;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(names),
                      std::string::npos)
                << e.what();
        }
    };

    // A zero hit cap would close every row before serving it.
    SchedulerOptions cap;
    cap.policy = RowPolicy::HitCap;
    cap.maxRowHits = 0;
    expectRejected(reqs, cap, "maxRowHits");
    cap.policy = RowPolicy::Open;  // The cap is unused: no error.
    EXPECT_EQ(mc::schedule(reqs, cfg, cap).stats.served(), reqs.size());

    // Times the int64 ps clock cannot hold.
    auto late = reqs;
    late[37].arrivalPs = mc::kMaxArrivalPs + 1;
    expectRejected(late, {}, "request 37 ");
    late[37].arrivalPs = INT64_MAX;
    expectRejected(late, {}, "request 37 ");
    SchedulerOptions knob;
    knob.refreshIntervalNs = mc::kMaxIntervalNs + 1;
    expectRejected(reqs, knob, "refreshIntervalNs");
    knob = {};
    knob.maxRowIdleNs = -1.0;
    expectRejected(reqs, knob, "maxRowIdleNs");
    knob.maxRowIdleNs = 1e300;
    expectRejected(reqs, knob, "maxRowIdleNs");
}

TEST(McScheduler, AnArrivalAtTheLimitSchedulesInSpec)
{
    const auto cfg = dram::makePreset("A_x8_2018");
    const AddrDecoder dec(cfg);
    const std::vector<Request> reqs = {
        {dec.encode(0, 5, 0), ReqType::Read, mc::kMaxArrivalPs},
        {dec.encode(0, 9, 1), ReqType::Write, mc::kMaxArrivalPs},
        {dec.encode(1, 5, 2), ReqType::Read, mc::kMaxArrivalPs},
    };
    SchedulerOptions opt;
    opt.refreshIntervalNs = 0;  // One REF per tREFI would not fit RAM.
    const auto res = mc::schedule(reqs, cfg, opt);
    EXPECT_EQ(res.stats.served(), reqs.size());
    EXPECT_GT(res.stats.spanPs, mc::kMaxArrivalPs);
    // No timing rule fires; only the missing REFs are reported.
    const auto report = bender::lint::lint(res.program, cfg);
    for (const auto &d : report.diags)
        EXPECT_EQ(d.rule, bender::lint::Rule::RefreshBudget) << d.message;
}

// ---------------------------------------------------------------------
// The byte-identity contract, pinned: digests of every scheduled
// program, its stats and its certificate over the workload x policy x
// mitigation grid.  A change to the scheduler's or the certifier's
// bookkeeping that keeps their algorithms must keep these digests.
// ---------------------------------------------------------------------

/**
 * Digest of the grid on @p preset at 2000 requests per cell.
 * @p lowered selects knobs under which every mitigation kind fires
 * and neutralizes rows, and the hit cap closes the row after every
 * column command; @p fired then counts each kind's sequences.
 */
uint64_t
gridDigest(const std::string &preset, bool lowered,
           std::map<std::string, uint64_t> &fired)
{
    const auto cfg = dram::makePreset(preset);
    testutil::Fnv1a fnv;
    for (const auto &[kind, id] : mc::workloadTable()) {
        WorkloadOptions wopt;
        wopt.requests = 2000;
        const auto reqs = mc::makeWorkload(kind, cfg, wopt);
        for (const auto &policy : mc::policyTable()) {
            for (const auto &mit : core::mitigationTable()) {
                SchedulerOptions opt;
                opt.policy = policy.policy;
                opt.mitigation = mit.kind;
                if (lowered) {
                    // bench_mitigations' Graphene threshold; the other
                    // kinds' are scaled down to 2000 requests.
                    opt.maxRowHits = 1;
                    auto &knobs = opt.mitigationOptions;
                    knobs.graphene.threshold = 5;
                    knobs.raaimt = 32;
                    knobs.drfmInterval = 64;
                    knobs.rowswap.threshold = 8;
                }
                const auto res = mc::schedule(reqs, cfg, opt);
                fired[mit.id] += res.stats.mitFired;
                fnv.word(res.program.size());
                for (const auto &ins : res.program.instrs()) {
                    fnv.word(uint64_t(ins.op));
                    fnv.word(ins.bank);
                    fnv.word(ins.row);
                    fnv.word(ins.col);
                    fnv.word(ins.data);
                    fnv.word(ins.count);
                    fnv.word(uint64_t(ins.ps));
                }
                fnv.str(res.stats.summary());
                fnv.word(res.stats.exposureSamples.size());
                for (const auto sample : res.stats.exposureSamples)
                    fnv.word(sample);
                const auto cert = bender::lint::certify(res.program, cfg);
                fnv.str(cert.summary());
            }
        }
    }
    return fnv.h;
}

TEST(McScheduler, ProgramsAndCertificatesMatchRecordedDigests)
{
    struct Case
    {
        const char *preset;
        bool lowered;
        uint64_t digest;
    };
    const Case cases[] = {
        {"A_x8_2018", false, 0x03fa4145c02b3b2dULL},
        {"A_x8_2018", true, 0xec2200c0d3fcbac3ULL},
        {"HBM2_A", false, 0x2842825aec802c3cULL},
        {"HBM2_A", true, 0xd251b468ea1015cdULL},
    };
    for (const auto &c : cases) {
        std::map<std::string, uint64_t> fired;
        const uint64_t got = gridDigest(c.preset, c.lowered, fired);
        EXPECT_EQ(got, c.digest)
            << c.preset << (c.lowered ? " lowered" : " default")
            << ": digest 0x" << std::hex << got;
        for (const auto &[id, n] : fired)
            EXPECT_TRUE(!c.lowered || id == "none" || n > 0)
                << c.preset << " " << id << " never fired";
    }
}

// ---------------------------------------------------------------------
// Lint certification: scheduled streams are in-spec by construction,
// on every device backend, and execute without device violations.
// ---------------------------------------------------------------------

void
expectLintCleanAndRuns(dram::Device &dev, RowPolicy policy,
                       size_t requests)
{
    bender::Host host(dev);
    const auto &cfg = host.config();
    const auto reqs = mixedWorkload(cfg, requests, 0xC0FFEE);
    SchedulerOptions opt;
    opt.policy = policy;
    const auto res = mc::schedule(reqs, cfg, opt);

    const auto report = bender::lint::lint(res.program, cfg);
    for (const auto &d : report.diags)
        EXPECT_TRUE(d.expected) << d.message;

    const auto before = dev.violationCount();
    const auto exec = host.run(res.program);
    EXPECT_EQ(dev.violationCount(), before);
    EXPECT_EQ(exec.reads.size(), res.stats.reads);
}

TEST(McLintCertification, TenThousandRequestsOnAChip)
{
    dram::Chip chip(testutil::tinyPlain());
    expectLintCleanAndRuns(chip, RowPolicy::Open, 10000);
}

TEST(McLintCertification, TenThousandRequestsOnADimm)
{
    mapping::Dimm dimm(testutil::tinyPlain());
    expectLintCleanAndRuns(dimm, RowPolicy::Timeout, 10000);
}

TEST(McLintCertification, TenThousandRequestsOnAnHbmChannel)
{
    dram::HbmStack stack(testutil::tinyPlain(), 2);
    expectLintCleanAndRuns(stack.channel(1), RowPolicy::HitCap, 10000);
}

TEST(McLintCertification, EveryPolicyIsCleanOnAChip)
{
    for (const auto &info : mc::policyTable()) {
        dram::Chip chip(testutil::tinyPlain());
        expectLintCleanAndRuns(chip, info.policy, 2000);
    }
}

// ---------------------------------------------------------------------
// Mitigations inside the scheduler.
// ---------------------------------------------------------------------

bool
samePrograms(const bender::Program &a, const bender::Program &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        const auto &x = a.instrs()[i];
        const auto &y = b.instrs()[i];
        if (x.op != y.op || x.bank != y.bank || x.row != y.row ||
            x.col != y.col || x.data != y.data || x.count != y.count ||
            x.ps != y.ps)
            return false;
    }
    return true;
}

TEST(McMitigation, NoneMatchesANeverFiringMitigationByteForByte)
{
    // The byte-identity contract, checked from the inside: an armed
    // mitigation whose threshold is never reached must schedule the
    // exact same program as None — every mitigation branch in the
    // scheduler is demand-invisible until a sequence fires.
    const auto cfg = testutil::tinyPlain();
    const auto reqs = mixedWorkload(cfg, 3000, 11);

    const auto none = mc::schedule(reqs, cfg, {});
    SchedulerOptions armed;
    armed.mitigation = core::MitigationKind::Graphene;
    armed.mitigationOptions.graphene.threshold = 1u << 30;
    const auto inert = mc::schedule(reqs, cfg, armed);

    EXPECT_TRUE(samePrograms(none.program, inert.program));
    EXPECT_EQ(inert.stats.mitFired, 0u);
    EXPECT_EQ(inert.stats.mitCmds, 0u);
    EXPECT_EQ(inert.stats.mitLostRowHits, 0u);
    EXPECT_EQ(none.stats.rowHits, inert.stats.rowHits);
    EXPECT_EQ(none.stats.spanPs, inert.stats.spanPs);

    // The None summary carries no mitigation fields at all.
    EXPECT_EQ(none.stats.summary().find("mit-"), std::string::npos);
    EXPECT_NE(inert.stats.summary().find("mit-fired=0"),
              std::string::npos);
}

/**
 * A hammer-shaped stream: per bank, two hot rows strictly ping-pong
 * (every access a row conflict, so FR-FCFS cannot coalesce them into
 * row hits), with every tenth access going to a 32-row warm pool.
 * Arrivals are paced at the conflict service rate, keeping the
 * backlog shallow — each request costs one ACT.  The 34-row footprint
 * fits the tracker table, so no Misra-Gries spill is possible and
 * Graphene's bound is exact: no row may collect more than `threshold`
 * ACTs inside one refresh window.
 */
std::vector<Request>
hotRowStream(const dram::DeviceConfig &cfg, size_t n)
{
    const AddrDecoder dec(cfg);
    std::vector<Request> reqs;
    reqs.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        const uint64_t u = hashCombine(0xFEED, i);
        const auto bank = dram::BankId(i % dec.banks());
        const uint64_t j = i / dec.banks();
        const auto row =
            dram::RowAddr(j % 10 == 9 ? 200 + (u >> 8) % 32
                                      : 50 + j % 2);
        Request r;
        r.addr = dec.encode(bank, row, dram::ColAddr((u >> 16) % 4));
        r.type = (u >> 40) % 4 == 0 ? ReqType::Write : ReqType::Read;
        r.arrivalPs = int64_t(i) * 30000;  // One conflict per 30 ns.
        reqs.push_back(r);
    }
    return reqs;
}

void
expectGrapheneBoundsExposure(dram::Device &dev)
{
    bender::Host host(dev);
    const auto &cfg = host.config();
    const auto reqs = hotRowStream(cfg, 20000);
    const uint64_t threshold = 50;

    SchedulerOptions opt;
    // The closed policy issues one ACT per request (the open policy
    // would wait for future hits and coalesce the ping-pong), and the
    // stretched refresh window (4x tREFI) lets an unmitigated hot row
    // collect a few hundred ACTs per window — far over the bound.
    opt.policy = RowPolicy::Closed;
    opt.refreshIntervalNs = 31200;
    const auto bare = mc::schedule(reqs, cfg, opt);
    opt.mitigation = core::MitigationKind::Graphene;
    opt.mitigationOptions.graphene.threshold = threshold;
    const auto defended = mc::schedule(reqs, cfg, opt);

    // The unmitigated stream blows through the threshold; the
    // defended one is capped at it (exact: the footprint fits the
    // table, so Misra-Gries never spills).
    EXPECT_GT(bare.stats.maxRowActsPerRefWindow, threshold);
    EXPECT_LE(defended.stats.maxRowActsPerRefWindow, threshold);
    EXPECT_GT(defended.stats.mitFired, 0u);
    EXPECT_EQ(defended.stats.mitCmds, 2 * 2 * defended.stats.mitFired);

    // Injected sequences keep the program in-spec and runnable.
    const auto report = bender::lint::lint(defended.program, cfg);
    for (const auto &d : report.diags)
        EXPECT_TRUE(d.expected) << d.message;
    const auto before = dev.violationCount();
    host.run(defended.program);
    EXPECT_EQ(dev.violationCount(), before);
}

TEST(McMitigation, GrapheneBoundsExposureOnAChip)
{
    dram::Chip chip(testutil::tinyPlain());
    expectGrapheneBoundsExposure(chip);
}

TEST(McMitigation, GrapheneBoundsExposureOnADimm)
{
    mapping::Dimm dimm(testutil::tinyPlain());
    expectGrapheneBoundsExposure(dimm);
}

TEST(McMitigation, GrapheneBoundsExposureOnAnHbmChannel)
{
    dram::HbmStack stack(testutil::tinyPlain(), 2);
    expectGrapheneBoundsExposure(stack.channel(1));
}

TEST(McMitigation, EveryKindSchedulesInSpecAndAccountsItsCommands)
{
    const auto cfg = testutil::tinyPlain();
    const auto reqs = hotRowStream(cfg, 20000);
    for (const auto &info : core::mitigationTable()) {
        SchedulerOptions opt;
        opt.policy = RowPolicy::Closed;
        opt.refreshIntervalNs = 31200;
        opt.mitigation = info.kind;
        opt.mitigationOptions.graphene.threshold = 50;
        opt.mitigationOptions.raaimt = 200;
        opt.mitigationOptions.drfmInterval = 300;
        opt.mitigationOptions.rowswap.threshold = 400;
        const auto res = mc::schedule(reqs, cfg, opt);
        const auto report = bender::lint::lint(res.program, cfg);
        for (const auto &d : report.diags)
            EXPECT_TRUE(d.expected) << info.id << ": " << d.message;
        EXPECT_EQ(res.stats.served(), reqs.size()) << info.id;
        if (info.kind == core::MitigationKind::None) {
            EXPECT_EQ(res.stats.mitFired, 0u);
        } else {
            EXPECT_GT(res.stats.mitFired, 0u) << info.id;
            EXPECT_GT(res.stats.mitCmds, 0u) << info.id;
        }
    }
}

// ---------------------------------------------------------------------
// The policy x workload sweep: serial == parallel, bit for bit.
// ---------------------------------------------------------------------

TEST(McSweep, SerialAndParallelAgreeBitForBit)
{
    mc::McSweepOptions opt;
    opt.requests = 200;

    const auto runAll = [&](unsigned jobs) {
        dram::Chip chip(testutil::tinyPlain());
        bender::Host host(chip);
        obs::MetricsRegistry metrics;
        host.setMetrics(&metrics);
        core::SweepRunner runner(host, core::SweepOptions(jobs, 42));
        const auto report = mc::runMcSweep(runner, opt);
        EXPECT_TRUE(report.complete());
        return std::make_pair(report.payloads(), metrics.snapshot());
    };

    const auto serial = runAll(1);
    const auto parallel = runAll(4);
    EXPECT_EQ(serial.first, parallel.first);
    EXPECT_EQ(serial.second, parallel.second);

    // The grid covers every (workload, policy) cell, in plan order.
    ASSERT_EQ(serial.first.size(),
              mc::sweepPlan({core::MitigationKind::None}).size());
    EXPECT_NE(serial.first[0].find("workload=streaming policy=open"),
              std::string::npos);
}

TEST(McSweep, MitigationAxisKeepsNoneBytesAndAgreesInParallel)
{
    mc::McSweepOptions base;
    base.requests = 200;

    const auto runAll = [&](const mc::McSweepOptions &opt,
                            unsigned jobs) {
        dram::Chip chip(testutil::tinyPlain());
        bender::Host host(chip);
        core::SweepRunner runner(host, core::SweepOptions(jobs, 42));
        const auto report = mc::runMcSweep(runner, opt);
        EXPECT_TRUE(report.complete());
        return report.payloads();
    };

    mc::McSweepOptions axis = base;
    for (const auto &info : core::mitigationTable())
        if (info.kind != core::MitigationKind::None)
            axis.mitigations.push_back(info.kind);

    const auto serial = runAll(axis, 1);
    const auto parallel = runAll(axis, 4);
    EXPECT_EQ(serial, parallel);

    // The leading None block is byte-identical to the axis-free grid,
    // and every later block faces the same traffic (same block-folded
    // workload seeds), tagged with its mitigation id.
    const auto plain = runAll(base, 1);
    const size_t block = plain.size();
    ASSERT_EQ(serial.size(), block * core::mitigationTable().size());
    for (size_t i = 0; i < block; ++i)
        EXPECT_EQ(serial[i], plain[i]) << i;
    EXPECT_NE(serial[block].find(" mitigation=graphene "),
              std::string::npos)
        << serial[block];
}

} // namespace
} // namespace dramscope
