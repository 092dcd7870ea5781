/**
 * @file
 * Sweep engine implementation: the parallel shard scheduler plus the
 * resilience layer (retry/quarantine, watchdog, JSONL shard journal
 * with checkpoint/resume).
 *
 * Journal format (one JSON object per line, append-only, fsync per
 * record so a killed process loses at most the shard in flight):
 *
 *   {"kind":"header","hash":"<16 hex>","shards":N}
 *   {"kind":"shard","shard":S,"attempts":K,"payload":"<escaped>"}
 *
 * The header's hash covers everything that determines shard results
 * (seed, shard count, tag, device geometry and variation seed, any
 * active fault spec) — resuming under a different hash is refused.
 * Records land in completion order; resume keys them by shard index,
 * so the merged payloads are always in shard order.
 */

#include "core/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>
#include <unistd.h>

#include "dram/chip.h"
#include "dram/faulty_device.h"
#include "util/log.h"

namespace dramscope {
namespace core {

unsigned
resolveJobs(unsigned requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("DRAMSCOPE_JOBS")) {
        const long v = std::atol(env);
        if (v > 0)
            return unsigned(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

const char *
toString(ShardStatus status)
{
    switch (status) {
      case ShardStatus::Ok:          return "ok";
      case ShardStatus::Resumed:     return "resumed";
      case ShardStatus::Quarantined: return "quarantined";
    }
    return "?";
}

std::vector<std::string>
SweepReport::payloads() const
{
    std::vector<std::string> out;
    out.reserve(shards.size());
    for (const auto &rec : shards)
        out.push_back(rec.payload);
    return out;
}

uint64_t
RetryPolicy::delayMsBefore(uint32_t next_attempt) const
{
    if (backoffBaseMs == 0 || next_attempt < 2)
        return 0;
    // Deterministic exponential backoff, no jitter: retry schedules
    // are part of the reproducibility contract.
    const uint32_t exponent = next_attempt - 2;
    uint64_t delay = backoffBaseMs;
    for (uint32_t i = 0; i < exponent && delay < backoffCapMs; ++i)
        delay *= 2;
    return delay < backoffCapMs ? delay : backoffCapMs;
}

// ---------------------------------------------------------------------
// Journal encoding.
// ---------------------------------------------------------------------

namespace {

/** Escapes a payload for embedding in one JSON string literal. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (const unsigned char c : s) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '"':  out += "\\\""; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += char(c);
            }
        }
    }
    return out;
}

/**
 * Reads an escaped JSON string starting after the opening quote at
 * @p p; on success leaves @p p past the closing quote.
 */
bool
jsonUnescape(const char *&p, std::string &out)
{
    out.clear();
    while (*p != '\0' && *p != '"') {
        if (*p != '\\') {
            out += *p++;
            continue;
        }
        ++p;
        switch (*p) {
          case '\\': out += '\\'; ++p; break;
          case '"':  out += '"'; ++p; break;
          case 'n':  out += '\n'; ++p; break;
          case 'r':  out += '\r'; ++p; break;
          case 't':  out += '\t'; ++p; break;
          case 'u': {
            ++p;
            char hex[5] = {};
            for (int i = 0; i < 4; ++i) {
                if (!std::isxdigit(static_cast<unsigned char>(p[i])))
                    return false;
                hex[i] = p[i];
            }
            out += char(std::strtoul(hex, nullptr, 16));
            p += 4;
            break;
          }
          default: return false;
        }
    }
    if (*p != '"')
        return false;
    ++p;
    return true;
}

/** Scans `key` and leaves @p p just past it; false when absent. */
bool
expectKey(const char *&p, const char *key)
{
    const char *found = std::strstr(p, key);
    if (!found)
        return false;
    p = found + std::strlen(key);
    return true;
}

bool
scanU64(const char *&p, uint64_t &out)
{
    char *end = nullptr;
    out = std::strtoull(p, &end, 10);
    if (end == p)
        return false;
    p = end;
    return true;
}

std::string
formatHash(uint64_t hash)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

/** One journaled shard result recovered during resume. */
struct JournaledShard
{
    uint32_t attempts = 0;
    std::string payload;
};

/** Mixes a byte string into a running hash. */
uint64_t
mixString(uint64_t h, const std::string &s)
{
    h = hashCombine(h, s.size());
    for (const char c : s)
        h = hashCombine(h, uint64_t(uint8_t(c)));
    return h;
}

} // namespace

/**
 * Append-only, fsync-per-record shard journal.  Reading (resume) and
 * writing never overlap: the journal is fully loaded before the
 * sweep starts, then reopened for appends.
 */
class ShardJournal
{
  public:
    ~ShardJournal()
    {
        if (file_)
            std::fclose(file_);
    }

    /** Truncates @p path and writes the header. */
    void
    openFresh(const std::string &path, uint64_t hash, uint32_t shards)
    {
        file_ = std::fopen(path.c_str(), "w");
        if (!file_)
            throw ResumeError("cannot open checkpoint file " + path);
        writeLine("{\"kind\":\"header\",\"hash\":\"" +
                  formatHash(hash) + "\",\"shards\":" +
                  std::to_string(shards) + "}");
    }

    /**
     * Loads an existing journal (header must match @p hash and
     * @p shards) and reopens it for appending.  A missing file
     * starts fresh.  @throws ResumeError on any incompatibility.
     */
    std::map<uint32_t, JournaledShard>
    openResume(const std::string &path, uint64_t hash, uint32_t shards)
    {
        std::map<uint32_t, JournaledShard> out;
        std::ifstream in(path);
        if (!in.is_open()) {
            openFresh(path, hash, shards);
            return out;
        }

        // A line counts only with its newline: a kill mid-append
        // leaves a torn tail, which is never parsed and is cut below.
        std::string line;
        bool have_header = false;
        std::streamoff kept = 0;  // End of the last accepted line.
        while (std::getline(in, line) && !in.eof()) {
            const char *p = line.c_str();
            if (!have_header) {
                if (line.empty())
                    break;  // Torn header write: treat as fresh.
                std::string file_hash;
                uint64_t file_shards = 0;
                if (!expectKey(p, "\"kind\":\"header\"") ||
                    !expectKey(p, "\"hash\":\"") ||
                    !jsonUnescape(p, file_hash) ||
                    !expectKey(p, "\"shards\":") ||
                    !scanU64(p, file_shards)) {
                    throw ResumeError("checkpoint " + path +
                                      ": unreadable journal header");
                }
                if (file_hash != formatHash(hash) ||
                    file_shards != shards) {
                    throw ResumeError(
                        "checkpoint " + path +
                        " was written by a different sweep "
                        "(config hash mismatch); refusing to resume");
                }
                have_header = true;
                kept = in.tellg();
                continue;
            }
            uint64_t shard = 0, attempts = 0;
            JournaledShard rec;
            if (!expectKey(p, "\"kind\":\"shard\"") ||
                !expectKey(p, "\"shard\":") || !scanU64(p, shard) ||
                !expectKey(p, "\"attempts\":") ||
                !scanU64(p, attempts) ||
                !expectKey(p, "\"payload\":\"") ||
                !jsonUnescape(p, rec.payload)) {
                // An unreadable record ends the journal: it and
                // everything after it are cut below.
                break;
            }
            if (shard >= shards)
                throw ResumeError("checkpoint " + path +
                                  ": shard index out of range");
            rec.attempts = uint32_t(attempts);
            out[uint32_t(shard)] = std::move(rec);
            kept = in.tellg();
        }
        in.close();

        if (!have_header) {
            out.clear();
            openFresh(path, hash, shards);
            return out;
        }
        // Cut what was not accepted, so the next record starts on a
        // line of its own instead of being glued onto a torn tail.
        if (::truncate(path.c_str(), off_t(kept)) == 0)
            file_ = std::fopen(path.c_str(), "a");
        if (!file_)
            throw ResumeError("cannot reopen checkpoint file " + path);
        return out;
    }

    /** Appends one completed shard (thread-safe, fsync'd). */
    void
    append(uint32_t shard, uint32_t attempts, const std::string &payload)
    {
        std::lock_guard<std::mutex> lock(mu_);
        writeLine("{\"kind\":\"shard\",\"shard\":" +
                  std::to_string(shard) + ",\"attempts\":" +
                  std::to_string(attempts) + ",\"payload\":\"" +
                  jsonEscape(payload) + "\"}");
    }

  private:
    void
    writeLine(const std::string &line)
    {
        if (std::fprintf(file_, "%s\n", line.c_str()) < 0 ||
            std::fflush(file_) != 0) {
            warn("shard journal: write failed (results of this run "
                 "may not be resumable)");
            return;
        }
        // fsync per record: the durability point of the whole layer.
        ::fsync(fileno(file_));
    }

    std::FILE *file_ = nullptr;
    std::mutex mu_;
};

// ---------------------------------------------------------------------
// Runner.
// ---------------------------------------------------------------------

/** One worker's private device replica plus its host, with a local
 *  metrics registry the runner drains after every sweep. */
struct SweepRunner::Replica
{
    std::unique_ptr<dram::Device> dev;
    bender::Host host;
    obs::MetricsRegistry metrics;

    explicit Replica(std::unique_ptr<dram::Device> device)
        : dev(std::move(device)), host(*dev)
    {
    }
};

namespace {

/** The device behind @p host, as a FaultyDevice when it is one. */
dram::FaultyDevice *
faultyOf(bender::Host &host)
{
    return dynamic_cast<dram::FaultyDevice *>(&host.device());
}

/**
 * Best-effort precharge of every bank before a retry: a shard that
 * failed mid-program may leave rows open, and the next attempt must
 * start from the same idle state a fresh shard would.  Injected
 * faults during recovery are swallowed (the attempt's own commands
 * will surface them).
 */
void
recoverBanks(bender::Host &host)
{
    dram::Device &dev = host.device();
    const uint32_t banks = dev.config().numBanks;
    for (uint32_t b = 0; b < banks; ++b) {
        try {
            dev.pre(dram::BankId(b), host.now());
        } catch (...) {
        }
    }
}

} // namespace

SweepRunner::SweepRunner(bender::Host &host, SweepOptions opts)
    : host_(host), jobs_(resolveJobs(opts.jobs)), seed_(opts.seed),
      factory_(std::move(opts.deviceFactory))
{
}

SweepRunner::~SweepRunner() = default;

uint64_t
SweepRunner::configHash(uint32_t shards, const std::string &tag) const
{
    const dram::DeviceConfig &cfg = host_.config();
    uint64_t h = hashCombine(0x5eed'c4ec'9015'7a1eULL, seed_);
    h = hashCombine(h, shards);
    h = mixString(h, tag);
    h = mixString(h, cfg.name);
    h = hashCombine(h, cfg.numBanks);
    h = hashCombine(h, cfg.rowsPerBank);
    h = hashCombine(h, cfg.rowBits);
    h = hashCombine(h, cfg.rdDataBits);
    h = hashCombine(h, cfg.variationSeed);
    if (const auto *f =
            dynamic_cast<const dram::FaultyDevice *>(&host_.device()))
        h = mixString(h, f->spec().toString());
    return h;
}

void
SweepRunner::forEachShard(uint32_t shards,
                          const std::function<void(ShardContext &)> &unit)
{
    if (shards == 0)
        return;

    // Metrics attachment is decided per sweep from the legacy host's
    // current registry.  Interval state resets at every shard boundary
    // (serial and parallel alike) so observation windows never span
    // shards: the merged histograms are then independent of how
    // shards land on workers, and serial == parallel bit for bit.
    const bool want_metrics = host_.metrics() != nullptr;

    if (jobs_ <= 1 || shards == 1) {
        // Legacy serial path: shard order on the caller's host.
        if (dram::FaultyDevice *faulty = faultyOf(host_))
            faulty->setMetrics(want_metrics ? host_.metrics() : nullptr);
        for (uint32_t s = 0; s < shards; ++s) {
            if (want_metrics)
                host_.resetMetricsWindow();
            // Fault streams are keyed by shard index, so injection is
            // identical wherever (and whenever) the shard runs.
            if (dram::FaultyDevice *faulty = faultyOf(host_))
                faulty->beginShard(s, 1);
            ShardContext ctx{host_, Rng(hashCombine(seed_, s)), s, shards};
            unit(ctx);
        }
        return;
    }

    // Worker w drives only replica w and runs its own stride of shards
    // (w, w + n, ...) first, then the unclaimed shards of the other
    // strides, which rebalances a slow worker.  Own stride first keeps
    // a shard on the replica that ran it last sweep: a replica commits
    // the pending dose of the rows its shards left at its next barrier,
    // so the replica changes a shard's cost, though not its result.
    const uint32_t n = std::min<uint32_t>(jobs_, shards);
    if (replicas_.size() < n)
        replicas_.resize(n);
    const dram::DeviceConfig &cfg = host_.config();
    const auto run_shard = [&](uint32_t w, uint32_t s) {
        // Each worker touches only its own replica slot, so the lazy
        // construction below is race-free without locking.
        auto &replica = replicas_[w];
        if (!replica) {
            replica = std::make_unique<Replica>(
                factory_ ? factory_(cfg)
                         : std::make_unique<dram::Chip>(cfg));
        }
        // One fast-forward mode end to end: replicas inherit the
        // caller host's mode, not whatever the env said at their
        // construction.
        replica->host.setFastPathMode(host_.fastPathMode());
        if (want_metrics) {
            if (!replica->host.metrics())
                replica->host.setMetrics(&replica->metrics);
            replica->host.resetMetricsWindow();
        } else if (replica->host.metrics()) {
            replica->host.setMetrics(nullptr);
        }
        if (dram::FaultyDevice *faulty = faultyOf(replica->host)) {
            obs::MetricsRegistry *want =
                want_metrics ? &replica->metrics : nullptr;
            if (faulty->metrics() != want)
                faulty->setMetrics(want);
            faulty->beginShard(s, 1);
        }
        ShardContext ctx{replica->host, Rng(hashCombine(seed_, s)), s,
                         shards};
        unit(ctx);
    };

    std::vector<std::atomic<uint32_t>> claimed(n);  // Per stride.
    std::vector<std::exception_ptr> errors(shards);
    const auto work = [&](uint32_t w) {
        for (uint32_t k = 0; k < n; ++k) {
            const uint32_t stride = (w + k) % n;
            uint64_t s = 0;
            while ((s = stride + uint64_t(n) * claimed[stride]++) < shards) {
                try {
                    run_shard(w, uint32_t(s));
                } catch (...) {
                    errors[s] = std::current_exception();
                }
            }
        }
    };
    {
        std::vector<std::jthread> workers;
        for (uint32_t w = 0; w < n; ++w)
            workers.emplace_back(work, w);
    }  // Joins every worker.

    if (want_metrics) {
        // Drain replica registries into the caller's, in replica
        // order.  Counters and histogram buckets are exact integers,
        // so the aggregate equals the serial run's regardless of
        // which worker executed which shard.
        for (auto &replica : replicas_) {
            if (!replica)
                continue;
            host_.metrics()->merge(replica->metrics);
            replica->metrics.reset();
        }
    }
    // The lowest-indexed failure, whichever failed first in time.
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

SweepReport
SweepRunner::runResilient(uint32_t shards, const ResilientUnit &unit,
                          const ResilienceOptions &opts)
{
    SweepReport report;
    report.shards.resize(shards);
    for (uint32_t s = 0; s < shards; ++s)
        report.shards[s].shard = s;
    if (shards == 0)
        return report;

    std::unique_ptr<ShardJournal> journal;
    if (!opts.checkpointPath.empty()) {
        const uint64_t hash = configHash(shards, opts.tag);
        journal = std::make_unique<ShardJournal>();
        if (opts.resume) {
            for (auto &[s, rec] :
                 journal->openResume(opts.checkpointPath, hash, shards)) {
                ShardRecord &slot = report.shards[s];
                slot.status = ShardStatus::Resumed;
                slot.attempts = 0;
                slot.payload = std::move(rec.payload);
            }
        } else {
            journal->openFresh(opts.checkpointPath, hash, shards);
        }
    }

    const uint32_t max_attempts =
        opts.retry.maxAttempts > 0 ? opts.retry.maxAttempts : 1;
    std::atomic<uint64_t> timeouts{0};

    forEachShard(shards, [&](ShardContext &ctx) {
        ShardRecord &slot = report.shards[ctx.shard];
        if (slot.status == ShardStatus::Resumed)
            return;  // Recovered from the journal; do not re-execute.

        dram::FaultyDevice *faulty = faultyOf(ctx.host);
        std::string last_error;
        for (uint32_t attempt = 1; attempt <= max_attempts; ++attempt) {
            slot.attempts = attempt;
            if (attempt > 1) {
                const uint64_t delay_ms =
                    opts.retry.delayMsBefore(attempt);
                if (delay_ms > 0) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(delay_ms));
                }
                recoverBanks(ctx.host);
                ctx.host.resetMetricsWindow();
            }
            // Retries draw a *fresh* fault stream: a transient fault
            // does not deterministically re-fire forever, yet every
            // (shard, attempt) pair stays reproducible per seed.
            if (faulty)
                faulty->beginShard(ctx.shard, attempt);
            ShardContext attempt_ctx{ctx.host,
                                     Rng(hashCombine(seed_, ctx.shard)),
                                     ctx.shard, ctx.shardCount, attempt};
            const auto t0 = std::chrono::steady_clock::now();
            try {
                std::string payload = unit(attempt_ctx);
                if (opts.shardTimeoutMs > 0) {
                    const auto elapsed_ms =
                        std::chrono::duration_cast<
                            std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
                    if (uint64_t(elapsed_ms) > opts.shardTimeoutMs) {
                        timeouts.fetch_add(1,
                                           std::memory_order_relaxed);
                        last_error =
                            "shard watchdog: attempt took " +
                            std::to_string(elapsed_ms) + " ms (limit " +
                            std::to_string(opts.shardTimeoutMs) + " ms)";
                        continue;
                    }
                }
                slot.status = ShardStatus::Ok;
                slot.payload = std::move(payload);
                slot.error.clear();
                if (journal)
                    journal->append(ctx.shard, attempt, slot.payload);
                return;
            } catch (const dram::DeviceDeadError &e) {
                // Hard faults are not transient: quarantine now.
                last_error = e.what();
                break;
            } catch (const std::exception &e) {
                last_error = e.what();
            } catch (...) {
                last_error = "unknown error";
            }
        }
        slot.status = ShardStatus::Quarantined;
        slot.payload.clear();
        slot.error = last_error;
    });

    for (const ShardRecord &slot : report.shards) {
        switch (slot.status) {
          case ShardStatus::Ok:          ++report.executed; break;
          case ShardStatus::Resumed:     ++report.resumed; break;
          case ShardStatus::Quarantined: ++report.quarantined; break;
        }
        if (slot.attempts > 1)
            report.retries += slot.attempts - 1;
    }
    report.timeouts = timeouts.load(std::memory_order_relaxed);

    if (obs::MetricsRegistry *metrics = host_.metrics()) {
        metrics->counter("sweep.shards.executed").add(report.executed);
        metrics->counter("sweep.shards.retried").add(report.retries);
        metrics->counter("sweep.shards.resumed").add(report.resumed);
        metrics->counter("sweep.shards.quarantined")
            .add(report.quarantined);
        metrics->counter("sweep.shards.timeout").add(report.timeouts);
    }
    return report;
}

} // namespace core
} // namespace dramscope
