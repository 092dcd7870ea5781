/**
 * @file
 * Command tracing (`dramscope::obs`): every command the Host issues
 * can be streamed to a TraceSink as a `{ns, cmd, bank, row, col}`
 * record — the same per-command visibility DRAM Bender and SoftMC
 * expose on the FPGA platform.
 *
 * Two sinks ship with the library:
 *
 *  - CommandTracer: a bounded ring buffer keeping the most recent
 *    records in memory.  Tests use it to assert on exact command
 *    streams.
 *  - JsonlWriter: streams records straight to a file, one JSON object
 *    per line, with no retention limit (the CLI `--trace=FILE` path).
 *
 * Records carry the *issue time* of the command (host clock, ns).
 * The Host's bulk hammer fast path synthesizes the per-iteration
 * ACT/PRE records a slot-by-slot execution would have produced, so a
 * traced loop and its unrolled equivalent emit identical streams.
 */

#ifndef DRAMSCOPE_BENDER_TRACE_H
#define DRAMSCOPE_BENDER_TRACE_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "dram/types.h"

namespace dramscope {
namespace obs {

/** Command kinds that appear in a trace. */
enum class TraceCmd : uint8_t { Act, Pre, Rd, Wr, Ref };

/** Upper-case command mnemonic ("ACT", "PRE", ...). */
const char *toString(TraceCmd cmd);

/** One traced command. */
struct TraceRecord
{
    double ns = 0.0;          //!< Issue time on the host clock.
    TraceCmd cmd = TraceCmd::Act;
    dram::BankId bank = 0;
    dram::RowAddr row = 0;    //!< 0 for commands without a row.
    dram::ColAddr col = 0;    //!< 0 for commands without a column.

    bool operator==(const TraceRecord &) const = default;
};

/** Serializes one record as a single JSON line (no trailing \n). */
std::string toJsonl(const TraceRecord &rec);

/** Receiver of traced commands. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Called once per issued command, in issue order. */
    virtual void onCommand(const TraceRecord &rec) = 0;
};

/** Ring-buffer tracer: keeps the most recent @p capacity records. */
class CommandTracer : public TraceSink
{
  public:
    /** @param capacity Records retained; older ones are dropped. */
    explicit CommandTracer(size_t capacity = size_t(1) << 16);

    void onCommand(const TraceRecord &rec) override;

    /** Records currently retained (<= capacity). */
    size_t size() const;

    /** Total records ever seen. */
    uint64_t recorded() const { return recorded_; }

    /** Records evicted by the ring (recorded() - size()). */
    uint64_t dropped() const { return recorded_ - size(); }

    /** Retained records, oldest first. */
    std::vector<TraceRecord> records() const;

    /** Forgets every record (capacity unchanged). */
    void clear();

  private:
    std::vector<TraceRecord> ring_;
    size_t capacity_;
    size_t head_ = 0;  //!< Next write slot once the ring is full.
    uint64_t recorded_ = 0;
};

/**
 * Streaming JSONL sink: one line per command, no retention limit.
 *
 * Write and flush errors are detected (a full disk must not silently
 * truncate an hours-long trace): the first failure latches failed()
 * and is reported once via warn().  The destructor flushes, so a
 * trace that outlives its writer without an explicit flush() still
 * reaches the file — or reports that it could not.
 */
class JsonlWriter : public TraceSink
{
  public:
    /** Opens @p path for writing; check ok() before use. */
    explicit JsonlWriter(const std::string &path);

    /** Flushes; warns when records could not be written. */
    ~JsonlWriter() override;

    JsonlWriter(const JsonlWriter &) = delete;
    JsonlWriter &operator=(const JsonlWriter &) = delete;

    void onCommand(const TraceRecord &rec) override;

    /** True when the file opened successfully. */
    bool ok() const { return file_ != nullptr; }

    /** True once any write or flush has failed. */
    bool failed() const { return failed_; }

    /**
     * Flushes buffered records to the file.  Returns false (and
     * latches failed()) when the stream reports an error — e.g. a
     * full disk.
     */
    bool flush();

    /** Lines written so far (excluding failed writes). */
    uint64_t written() const { return written_; }

  private:
    void noteError();

    std::string path_;
    std::FILE *file_;
    uint64_t written_ = 0;
    bool failed_ = false;
    bool error_reported_ = false;
};

} // namespace obs
} // namespace dramscope

#endif // DRAMSCOPE_BENDER_TRACE_H
