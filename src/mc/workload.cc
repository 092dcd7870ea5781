/**
 * @file
 * Workload generators and JSONL trace I/O.
 */

#include "mc/workload.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/rng.h"

namespace dramscope {
namespace mc {

const char *
workloadId(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::Streaming:
        return "streaming";
      case WorkloadKind::PointerChase:
        return "chase";
      case WorkloadKind::Zipfian:
        return "zipfian";
    }
    return "?";
}

std::optional<WorkloadKind>
workloadFromString(const std::string &id)
{
    for (const auto kind : workloadTable()) {
        if (id == workloadId(kind))
            return kind;
    }
    return std::nullopt;
}

const std::vector<WorkloadKind> &
workloadTable()
{
    static const std::vector<WorkloadKind> table = {
        WorkloadKind::Streaming,
        WorkloadKind::PointerChase,
        WorkloadKind::Zipfian,
    };
    return table;
}

namespace {

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

    const uint64_t rows =
        opt.footprintRows == 0
            ? dec.rows()
            : std::min<uint64_t>(opt.footprintRows, dec.rows());

    int64_t clock = 0;
    uint64_t chaseAddr = splitmix64(opt.seed) % dec.addressSpace();
    const uint64_t streamBase = chaseAddr;

    for (size_t i = 0; i < opt.requests; ++i) {
        // Jittered arrival: mean interArrivalNs, uniform +-50%.
        clock += int64_t(std::llround(opt.interArrivalNs * 1000.0 *
                                      (0.5 + rng.uniform())));
        Request r;
        r.arrivalPs = clock;
        switch (kind) {
          case WorkloadKind::Streaming:
            r.addr = (streamBase + i) % dec.addressSpace();
            r.type = rng.chance(opt.readFraction) ? ReqType::Read
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
                                           opt.zipfSkew);
            const auto row = dram::RowAddr(
                hashCombine(opt.seed ^ 0x517cc1b727220a95ULL, rank) %
                rows);
            const auto bank = dram::BankId(rng.below(dec.banks()));
            const auto col = dram::ColAddr(rng.below(dec.columns()));
            r.addr = dec.encode(bank, row, col);
            r.type = rng.chance(opt.readFraction) ? ReqType::Read
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

namespace {

/** Minimal parser for the one-object-per-line trace schema. */
struct LineParser
{
    const std::string &s;
    size_t i = 0;
    size_t lineNo;

    [[noreturn]] void
    fail(const std::string &what) const
    {
        std::ostringstream os;
        os << "trace:" << lineNo << ": " << what;
        throw std::runtime_error(os.str());
    }

    void
    ws()
    {
        while (i < s.size() && std::isspace(uint8_t(s[i])))
            ++i;
    }

    void
    expect(char c)
    {
        ws();
        if (i >= s.size() || s[i] != c)
            fail(std::string("expected '") + c + "'");
        ++i;
    }

    std::string
    string()
    {
        expect('"');
        const size_t start = i;
        while (i < s.size() && s[i] != '"')
            ++i;
        if (i >= s.size())
            fail("unterminated string");
        return s.substr(start, i++ - start);
    }

    uint64_t
    number()
    {
        ws();
        uint64_t v = 0;
        const auto [end, ec] =
            std::from_chars(s.data() + i, s.data() + s.size(), v);
        if (ec == std::errc::invalid_argument)
            fail("expected a number");
        if (ec == std::errc::result_out_of_range)
            fail("number out of range");
        i = size_t(end - s.data());
        return v;
    }

    bool
    atEnd()
    {
        ws();
        return i >= s.size();
    }
};

} // namespace

std::vector<Request>
readTrace(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("trace: cannot open '" + path + "'");
    std::vector<Request> reqs;
    std::string line;
    size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        LineParser p{line, 0, lineNo};
        if (p.atEnd())
            continue;  // Blank lines are fine.
        p.i = 0;
        p.expect('{');
        Request r;
        bool haveArrival = false, haveAddr = false, haveType = false;
        for (;;) {
            const std::string key = p.string();
            p.expect(':');
            bool *have = key == "arrival_ps" ? &haveArrival
                         : key == "addr"     ? &haveAddr
                         : key == "type"     ? &haveType
                                             : nullptr;
            if (!have)
                p.fail("unknown key '" + key + "'");
            if (*have)
                p.fail("duplicate key '" + key + "'");
            *have = true;
            if (key == "arrival_ps") {
                const uint64_t v = p.number();
                if (v > uint64_t(INT64_MAX))
                    p.fail("arrival_ps out of range");
                r.arrivalPs = int64_t(v);
            } else if (key == "addr") {
                r.addr = p.number();
            } else {
                const std::string v = p.string();
                if (v == "rd")
                    r.type = ReqType::Read;
                else if (v == "wr")
                    r.type = ReqType::Write;
                else
                    p.fail("type must be \"rd\" or \"wr\"");
            }
            p.ws();
            if (p.i < line.size() && line[p.i] == ',') {
                ++p.i;
                continue;
            }
            break;
        }
        p.expect('}');
        if (!p.atEnd())
            p.fail("trailing characters after object");
        if (!haveArrival || !haveAddr || !haveType)
            p.fail("missing key (need arrival_ps, addr, type)");
        reqs.push_back(r);
    }
    return reqs;
}

} // namespace mc
} // namespace dramscope
