/**
 * @file
 * Command tracer implementation.
 */

#include "bender/trace.h"

#include <cstdlib>
#include <cstring>

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

namespace {

/** Scans `"key":` and leaves @p p after the colon; false if absent. */
bool
expectKey(const char *&p, const char *key)
{
    const char *found = std::strstr(p, key);
    if (!found)
        return false;
    p = found + std::strlen(key);
    return true;
}

} // namespace

bool
parseJsonl(const std::string &line, TraceRecord &out)
{
    // The format is machine-generated and fixed-order (see toJsonl),
    // so a keyed scan is sufficient — no general JSON parser needed.
    const char *p = line.c_str();
    char *end = nullptr;

    if (!expectKey(p, "\"ns\":"))
        return false;
    out.ns = std::strtod(p, &end);
    if (end == p)
        return false;

    if (!expectKey(p, "\"cmd\":\""))
        return false;
    bool matched = false;
    for (const auto cmd : {TraceCmd::Act, TraceCmd::Pre, TraceCmd::Rd,
                           TraceCmd::Wr, TraceCmd::Ref}) {
        const char *name = toString(cmd);
        const size_t len = std::strlen(name);
        if (std::strncmp(p, name, len) == 0 && p[len] == '"') {
            out.cmd = cmd;
            matched = true;
            break;
        }
    }
    if (!matched)
        return false;

    if (!expectKey(p, "\"bank\":"))
        return false;
    out.bank = dram::BankId(std::strtoul(p, &end, 10));
    if (end == p)
        return false;

    if (!expectKey(p, "\"row\":"))
        return false;
    out.row = dram::RowAddr(std::strtoul(p, &end, 10));
    if (end == p)
        return false;

    if (!expectKey(p, "\"col\":"))
        return false;
    out.col = dram::ColAddr(std::strtoul(p, &end, 10));
    return end != p;
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

void
CommandTracer::writeJsonl(std::FILE *f) const
{
    for (const auto &rec : records())
        std::fprintf(f, "%s\n", toJsonl(rec).c_str());
}

bool
CommandTracer::writeJsonl(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    writeJsonl(f);
    return std::fclose(f) == 0;
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
