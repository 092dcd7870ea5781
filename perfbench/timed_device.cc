/**
 * @file
 * Timing decorator implementation.
 */

#include "timed_device.h"

#include <chrono>

namespace perfbench {

using namespace dramscope;

namespace {

using Clock = std::chrono::steady_clock;

/** Times one forwarded call into @p tally under @p cmd. */
class CallTimer
{
  public:
    CallTimer(DeviceTally &tally, Cmd cmd)
        : tally_(tally), cmd_(size_t(cmd)), t0_(Clock::now())
    {
    }

    ~CallTimer()
    {
        tally_.ns[cmd_] += uint64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0_)
                .count());
        ++tally_.calls[cmd_];
    }

    CallTimer(const CallTimer &) = delete;
    CallTimer &operator=(const CallTimer &) = delete;

  private:
    DeviceTally &tally_;
    size_t cmd_;
    Clock::time_point t0_;
};

} // namespace

const char *
cmdName(Cmd cmd)
{
    switch (cmd) {
      case Cmd::Act:     return "act";
      case Cmd::Pre:     return "pre";
      case Cmd::Rd:      return "rd";
      case Cmd::Wr:      return "wr";
      case Cmd::Ref:     return "ref";
      case Cmd::ActMany: return "actMany";
      case Cmd::RefNbr:  return "refnbr";
    }
    return "?";
}

uint64_t
DeviceTally::totalNs() const
{
    uint64_t sum = 0;
    for (const uint64_t v : ns)
        sum += v;
    return sum;
}

DeviceTally &
DeviceTally::operator+=(const DeviceTally &o)
{
    for (size_t k = 0; k < kCmdKinds; ++k) {
        calls[k] += o.calls[k];
        ns[k] += o.ns[k];
    }
    trainActs += o.trainActs;
    return *this;
}

DeviceTally &
DeviceTally::operator-=(const DeviceTally &o)
{
    for (size_t k = 0; k < kCmdKinds; ++k) {
        calls[k] -= o.calls[k];
        ns[k] -= o.ns[k];
    }
    trainActs -= o.trainActs;
    return *this;
}

TimedDevice::TimedDevice(std::unique_ptr<dram::Device> inner)
    : inner_(std::move(inner))
{
}

const dram::DeviceConfig &
TimedDevice::config() const
{
    return inner_->config();
}

void
TimedDevice::act(dram::BankId b, dram::RowAddr row, dram::NanoTime now)
{
    CallTimer t(tally_, Cmd::Act);
    inner_->act(b, row, now);
}

void
TimedDevice::pre(dram::BankId b, dram::NanoTime now)
{
    CallTimer t(tally_, Cmd::Pre);
    inner_->pre(b, now);
}

uint64_t
TimedDevice::read(dram::BankId b, dram::ColAddr col, dram::NanoTime now)
{
    CallTimer t(tally_, Cmd::Rd);
    return inner_->read(b, col, now);
}

void
TimedDevice::write(dram::BankId b, dram::ColAddr col, uint64_t data,
                   dram::NanoTime now)
{
    CallTimer t(tally_, Cmd::Wr);
    inner_->write(b, col, data, now);
}

void
TimedDevice::refresh(dram::NanoTime now)
{
    CallTimer t(tally_, Cmd::Ref);
    inner_->refresh(now);
}

void
TimedDevice::actMany(const dram::ActTrain &train)
{
    CallTimer t(tally_, Cmd::ActMany);
    tally_.trainActs += train.count;
    inner_->actMany(train);
}

void
TimedDevice::actManyAnalytic(const dram::ActTrain &train)
{
    CallTimer t(tally_, Cmd::ActMany);
    tally_.trainActs += train.count;
    inner_->actManyAnalytic(train);
}

uint64_t
TimedDevice::violationCount() const
{
    return inner_->violationCount();
}

std::vector<dram::TimingViolation>
TimedDevice::violationLog() const
{
    return inner_->violationLog();
}

uint32_t
TimedDevice::refreshAggressorNeighbors(dram::BankId b, dram::RowAddr row,
                                       dram::NanoTime now)
{
    CallTimer t(tally_, Cmd::RefNbr);
    return inner_->refreshAggressorNeighbors(b, row, now);
}

} // namespace perfbench
