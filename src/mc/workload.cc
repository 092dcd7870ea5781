/**
 * @file
 * Workload generators and JSONL trace I/O.
 */

#include "mc/workload.h"

#include <cmath>
#include <fstream>
#include <stdexcept>

#include "util/jsonl.h"
#include "util/rng.h"

namespace dramscope {
namespace mc {

std::span<const WorkloadInfo>
workloadTable()
{
    static constexpr WorkloadInfo kTable[] = {
#define X(name, id, summary) {WorkloadKind::name, id},
        DRAMSCOPE_MC_WORKLOADS(X)
#undef X
    };
    return kTable;
}

const char *
workloadId(WorkloadKind kind)
{
    return workloadTable()[size_t(kind)].id;
}

namespace {

/** Fraction of reads (the rest are writes); chase reads only. */
constexpr double kReadFraction = 0.75;

/** Mean inter-arrival gap (ns); arrivals are jittered +-50%. */
constexpr double kInterArrivalNs = 15.0;

/** Zipf exponent: larger skews harder onto the hottest rows. */
constexpr double kZipfSkew = 1.2;

/** Continuous-approximation Zipf rank sampler: inverse-CDF of
 *  P(rank <= r) ~ r^(1-s), ranks in [1, n]. */
uint64_t
zipfRank(double u, uint64_t n, double s)
{
    if (s == 1.0)
        s = 1.0 + 1e-9;
    const double e = 1.0 - s;
    const double r = std::pow(u * (std::pow(double(n), e) - 1.0) + 1.0,
                              1.0 / e);
    const auto rank = uint64_t(r);
    return rank < 1 ? 1 : (rank > n ? n : rank);
}

} // namespace

std::vector<Request>
makeWorkload(WorkloadKind kind, const dram::DeviceConfig &cfg,
             const WorkloadOptions &opt)
{
    const AddrDecoder dec(cfg);
    Rng rng(hashCombine(opt.seed, uint64_t(kind)));
    std::vector<Request> reqs;
    reqs.reserve(opt.requests);

    // Zipfian ranks are drawn from every row of the device.
    const uint64_t rows = dec.rows();

    int64_t clock = 0;
    uint64_t chaseAddr = splitmix64(opt.seed) % dec.addressSpace();
    const uint64_t streamBase = chaseAddr;

    for (size_t i = 0; i < opt.requests; ++i) {
        // Jittered arrival: mean kInterArrivalNs, uniform +-50%.
        clock += int64_t(std::llround(kInterArrivalNs * 1000.0 *
                                      (0.5 + rng.uniform())));
        Request r;
        r.arrivalPs = clock;
        switch (kind) {
          case WorkloadKind::Streaming:
            r.addr = (streamBase + i) % dec.addressSpace();
            r.type = rng.chance(kReadFraction) ? ReqType::Read
                                               : ReqType::Write;
            break;
          case WorkloadKind::PointerChase:
            r.addr = chaseAddr;
            // Mix the step index into the hash: a pure addr -> addr
            // walk falls into a ~sqrt(space) cycle (birthday bound)
            // and turns row-buffer friendly on small geometries.
            chaseAddr = hashCombine(hashCombine(opt.seed, i),
                                    chaseAddr) %
                        dec.addressSpace();
            r.type = ReqType::Read;
            break;
          case WorkloadKind::Zipfian: {
            // Hot ranks scatter over the footprint via a hash so the
            // hottest rows are not physically adjacent.
            const uint64_t rank = zipfRank(rng.uniform(), rows,
                                           kZipfSkew);
            const auto row = dram::RowAddr(
                hashCombine(opt.seed ^ 0x517cc1b727220a95ULL, rank) %
                rows);
            const auto bank = dram::BankId(rng.below(dec.banks()));
            const auto col = dram::ColAddr(rng.below(dec.columns()));
            r.addr = dec.encode(bank, row, col);
            r.type = rng.chance(kReadFraction) ? ReqType::Read
                                               : ReqType::Write;
            break;
          }
        }
        reqs.push_back(r);
    }
    return reqs;
}

void
writeTrace(const std::string &path, const std::vector<Request> &reqs)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        throw std::runtime_error("trace: cannot open '" + path +
                                 "' for writing");
    for (const auto &r : reqs) {
        out << "{\"arrival_ps\":" << r.arrivalPs << ",\"addr\":" << r.addr
            << ",\"type\":\""
            << (r.type == ReqType::Read ? "rd" : "wr") << "\"}\n";
    }
    out.flush();
    if (!out)
        throw std::runtime_error("trace: write to '" + path +
                                 "' failed");
}

std::vector<Request>
readTrace(const std::string &path)
{
    static constexpr std::string_view kTypes[] = {"rd", "wr"};
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("trace: cannot open '" + path + "'");
    std::vector<Request> reqs;
    std::string line, type;
    size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;  // Blank lines are fine.
        Request r;
        uint64_t arrival = 0;
        jsonl::read(line,
                    {{.key = "arrival_ps", .num = &arrival,
                      .max = uint64_t(kMaxArrivalPs)},
                     {.key = "addr", .num = &r.addr},
                     {.key = "type", .str = &type, .oneOf = kTypes}},
                    "trace", lineNo);
        r.arrivalPs = int64_t(arrival);
        r.type = type == "rd" ? ReqType::Read : ReqType::Write;
        reqs.push_back(r);
    }
    return reqs;
}

} // namespace mc
} // namespace dramscope
