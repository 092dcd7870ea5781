/**
 * @file
 * In-memory spans of the traced benchmark run.
 *
 * The benchmark opens a span around each operation and around each
 * call it makes into a layer's public functions (operation -> layer
 * call).  Device commands are not recorded one span each: at span
 * close, the commands every registered TimedDevice executed since the
 * span opened (minus those its child spans already claimed) are folded
 * into the span as per-kind aggregates, the third level of the tree.
 * A disabled Tracer makes open/close a single branch.
 */

#ifndef DRAMSCOPE_PERFBENCH_SPANS_H
#define DRAMSCOPE_PERFBENCH_SPANS_H

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "timed_device.h"

namespace perfbench {

/** One closed span. */
struct Span
{
    int parent = -1;          //!< Index of the enclosing span, -1 at root.
    std::string name;
    double startS = 0.0;      //!< Wall seconds since the tracer's epoch.
    double endS = 0.0;
    double cpuS = 0.0;        //!< Process CPU seconds (all threads).
    DeviceTally device;       //!< Device work directly beneath.
    DeviceTally deviceIncl;   //!< Device work beneath, children included.

    double seconds() const { return endS - startS; }
};

/** Process CPU time of all threads, in seconds. */
double processCpuSeconds();

/** Span recorder for one benchmark round. */
class Tracer
{
  public:
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Devices whose commands are attributed to spans (borrowed). */
    void addDevice(const TimedDevice *device);

    /** Keeps @p device's tally and stops reading it (about to die). */
    void retireDevice(const TimedDevice *device);

    /** Opens a span under the innermost open one; -1 when disabled. */
    int open(const std::string &name);

    /** Closes span @p id (must be the innermost open span). */
    void close(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Sum of every registered device's tally. */
    DeviceTally deviceTotals() const;

  private:
    struct Frame
    {
        int id;
        DeviceTally atOpen;
        DeviceTally claimedByChildren;
        double cpuAtOpen;
    };

    double now() const;

    bool enabled_;
    std::chrono::steady_clock::time_point epoch_;
    std::vector<const TimedDevice *> devices_;
    DeviceTally retired_;
    std::vector<Span> spans_;
    std::vector<Frame> stack_;
};

/** Writes @p spans as one JSON array (no trailing newline). */
void writeSpansJson(std::FILE *out, const std::vector<Span> &spans);

/** RAII span: open on construction, close on destruction. */
class SpanScope
{
  public:
    SpanScope(Tracer &tracer, const std::string &name)
        : tracer_(tracer), id_(tracer.enabled() ? tracer.open(name) : -1)
    {
    }

    ~SpanScope()
    {
        if (id_ >= 0)
            tracer_.close(id_);
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer &tracer_;
    int id_;
};

} // namespace perfbench

#endif // DRAMSCOPE_PERFBENCH_SPANS_H
