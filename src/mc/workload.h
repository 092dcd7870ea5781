/**
 * @file
 * Synthetic request-stream generators and the JSONL address-trace
 * format.
 *
 * Three generators cover the interesting corners of the scheduling
 * space: streaming (sequential, row-buffer friendly), pointer-chase
 * (dependent random walk — every access a likely miss), and hot-row
 * Zipfian ("millions of users" traffic where a few rows absorb most
 * accesses, the realistic RowHammer-exposure scenario).  All three are
 * seed-deterministic.  A generated or externally recorded stream can
 * round-trip through a JSONL trace file and replay on any device
 * geometry (addresses wrap modulo the address space).
 */

#ifndef DRAMSCOPE_MC_WORKLOAD_H
#define DRAMSCOPE_MC_WORKLOAD_H

#include <span>
#include <string>
#include <vector>

#include "dram/config.h"
#include "mc/mc.h"

namespace dramscope {
namespace mc {

/**
 * The workload generator registry: X(enumerator, "keyword",
 * "summary").  tools/check_docs.py requires docs/MC.md's workload
 * table to list exactly these keywords, in this order.
 */
#define DRAMSCOPE_MC_WORKLOADS(X)                                           \
    X(Streaming, "streaming",                                               \
      "sequential addresses: hit- and interleave-heavy")                    \
    X(PointerChase, "chase",                                                \
      "hash-dependent random walk, reads only")                             \
    X(Zipfian, "zipfian",                                                   \
      "hot-row skewed accesses (aggressor exposure)")

/** Workload generator kinds. */
enum class WorkloadKind : uint8_t
{
#define X(name, id, summary) name,
    DRAMSCOPE_MC_WORKLOADS(X)
#undef X
};

/** Static description of one generator. */
struct WorkloadInfo
{
    WorkloadKind kind;
    const char *id;  //!< Stable keyword ("streaming", "chase", ...).
};

/** The full registry, indexed by WorkloadKind enumerator order. */
std::span<const WorkloadInfo> workloadTable();

/** Stable keyword of @p kind ("streaming", "chase", "zipfian"). */
const char *workloadId(WorkloadKind kind);

/**
 * Generator knobs.  The traffic shape is fixed (workload.cc): 75%
 * reads (chase reads only), a 15 ns mean inter-arrival gap jittered
 * +-50%, and Zipf exponent 1.2 over every row of the device.
 */
struct WorkloadOptions
{
    size_t requests = 1000;
    uint64_t seed = 0x5eedULL;
};

/** Generates @p opt.requests transactions for @p kind on @p cfg. */
std::vector<Request> makeWorkload(WorkloadKind kind,
                                  const dram::DeviceConfig &cfg,
                                  const WorkloadOptions &opt);

/**
 * Writes @p reqs as a JSONL trace: one object per line with keys
 * arrival_ps (integer), addr (integer), type ("rd" | "wr").  Throws
 * std::runtime_error on I/O failure.
 */
void writeTrace(const std::string &path, const std::vector<Request> &reqs);

/**
 * Reads a JSONL trace written by writeTrace() (or by hand) through
 * jsonl::read(); a malformed line throws jsonl::ParseError, reading
 * `trace:<line>:<col>: <reason>`, and so does an `arrival_ps` past
 * kMaxArrivalPs.  Blank lines are skipped.
 */
std::vector<Request> readTrace(const std::string &path);

} // namespace mc
} // namespace dramscope

#endif // DRAMSCOPE_MC_WORKLOAD_H
