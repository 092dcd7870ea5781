/**
 * @file
 * Command tracer implementation.
 */

#include "bender/trace.h"

#include "util/log.h"

namespace dramscope {
namespace obs {

const char *
toString(TraceCmd cmd)
{
    switch (cmd) {
      case TraceCmd::Act: return "ACT";
      case TraceCmd::Pre: return "PRE";
      case TraceCmd::Rd:  return "RD";
      case TraceCmd::Wr:  return "WR";
      case TraceCmd::Ref: return "REF";
    }
    return "?";
}

std::string
toJsonl(const TraceRecord &rec)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "{\"ns\":%.3f,\"cmd\":\"%s\",\"bank\":%u,\"row\":%u,"
                  "\"col\":%u}",
                  rec.ns, toString(rec.cmd), unsigned(rec.bank),
                  unsigned(rec.row), unsigned(rec.col));
    return buf;
}

CommandTracer::CommandTracer(size_t capacity)
    : capacity_(capacity ? capacity : 1)
{
    ring_.reserve(capacity_ < 4096 ? capacity_ : 4096);
}

void
CommandTracer::onCommand(const TraceRecord &rec)
{
    if (ring_.size() < capacity_) {
        ring_.push_back(rec);
    } else {
        ring_[head_] = rec;
        head_ = (head_ + 1) % capacity_;
    }
    ++recorded_;
}

size_t
CommandTracer::size() const
{
    return ring_.size();
}

std::vector<TraceRecord>
CommandTracer::records() const
{
    std::vector<TraceRecord> out;
    out.reserve(ring_.size());
    for (size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[(head_ + i) % ring_.size()]);
    return out;
}

void
CommandTracer::clear()
{
    ring_.clear();
    head_ = 0;
    recorded_ = 0;
}

JsonlWriter::JsonlWriter(const std::string &path)
    : path_(path), file_(std::fopen(path.c_str(), "w"))
{
}

JsonlWriter::~JsonlWriter()
{
    if (!file_)
        return;
    // Flush before closing so buffered records are either on disk or
    // reported as lost — never silently dropped.
    flush();
    if (std::fclose(file_) != 0)
        noteError();
    file_ = nullptr;
}

void
JsonlWriter::noteError()
{
    failed_ = true;
    if (!error_reported_) {
        error_reported_ = true;
        warn("trace: cannot write " + path_ +
             " (records are being lost)");
    }
}

bool
JsonlWriter::flush()
{
    if (!file_)
        return false;
    if (std::fflush(file_) != 0 || std::ferror(file_) != 0) {
        noteError();
        return false;
    }
    return !failed_;
}

void
JsonlWriter::onCommand(const TraceRecord &rec)
{
    if (!file_)
        return;
    if (std::fprintf(file_, "%s\n", toJsonl(rec).c_str()) < 0) {
        noteError();
        return;
    }
    ++written_;
}

} // namespace obs
} // namespace dramscope
