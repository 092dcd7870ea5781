/**
 * @file
 * Span recorder implementation.
 */

#include "spans.h"

#include <ctime>

namespace perfbench {

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now())
{
}

double
Tracer::now() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
}

void
Tracer::addDevice(const TimedDevice *device)
{
    devices_.push_back(device);
}

void
Tracer::retireDevice(const TimedDevice *device)
{
    for (size_t i = 0; i < devices_.size(); ++i) {
        if (devices_[i] == device) {
            retired_ += device->tally();
            devices_.erase(devices_.begin() + long(i));
            return;
        }
    }
}

DeviceTally
Tracer::deviceTotals() const
{
    DeviceTally sum = retired_;
    for (const TimedDevice *d : devices_)
        sum += d->tally();
    return sum;
}

int
Tracer::open(const std::string &name)
{
    Span span;
    span.parent = stack_.empty() ? -1 : stack_.back().id;
    span.name = name;
    const int id = int(spans_.size());
    spans_.push_back(std::move(span));
    stack_.push_back({id, deviceTotals(), {}, processCpuSeconds()});
    spans_[size_t(id)].startS = now();
    return id;
}

void
Tracer::close(int id)
{
    const double end = now();
    Frame frame = stack_.back();
    stack_.pop_back();
    Span &span = spans_[size_t(id)];
    span.endS = end;
    span.cpuS = processCpuSeconds() - frame.cpuAtOpen;
    span.deviceIncl = deviceTotals();
    span.deviceIncl -= frame.atOpen;
    span.device = span.deviceIncl;
    span.device -= frame.claimedByChildren;
    if (!stack_.empty())
        stack_.back().claimedByChildren += span.deviceIncl;
}

void
writeSpansJson(std::FILE *out, const std::vector<Span> &spans)
{
    std::fputc('[', out);
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(out,
                     "%s{\"id\":%zu,\"parent\":%d,\"name\":\"%s\","
                     "\"start_s\":%.9f,\"end_s\":%.9f,\"cpu_s\":%.9f,"
                     "\"device\":{",
                     i ? "," : "", i, s.parent, s.name.c_str(), s.startS,
                     s.endS, s.cpuS);
        bool first = true;
        for (size_t k = 0; k < kCmdKinds; ++k) {
            if (s.device.calls[k] == 0)
                continue;
            std::fprintf(out, "%s\"device.%s\":{\"calls\":%llu,\"s\":%.9f}",
                         first ? "" : ",", cmdName(Cmd(k)),
                         (unsigned long long)s.device.calls[k],
                         double(s.device.ns[k]) * 1e-9);
            first = false;
        }
        std::fputs("}}", out);
    }
    std::fputc(']', out);
}

} // namespace perfbench
