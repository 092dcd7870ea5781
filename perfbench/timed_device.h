/**
 * @file
 * A dram::Device decorator that times every command it forwards.
 *
 * The traced benchmark run puts one TimedDevice in front of every
 * device a workload drives: the legacy host's Chip and, through
 * CharactOptions::deviceFactory, every sweep replica.  Each instance
 * is used by one thread at a time (a replica belongs to one pool
 * worker), so its tally needs no locking; the tracer reads the
 * tallies only between sweeps, after the pool has joined.
 */

#ifndef DRAMSCOPE_PERFBENCH_TIMED_DEVICE_H
#define DRAMSCOPE_PERFBENCH_TIMED_DEVICE_H

#include <array>
#include <cstdint>
#include <memory>

#include "dram/device.h"

namespace perfbench {

/** Device command kinds the decorator times. */
enum class Cmd : uint8_t
{
    Act,
    Pre,
    Rd,
    Wr,
    Ref,
    ActMany,  //!< actMany and actManyAnalytic trains.
    RefNbr,   //!< refreshAggressorNeighbors.
};

inline constexpr size_t kCmdKinds = 7;

/** Metric name of a command kind ("act", "actMany", ...). */
const char *cmdName(Cmd cmd);

/** Call counts and host time per command kind. */
struct DeviceTally
{
    std::array<uint64_t, kCmdKinds> calls{};
    std::array<uint64_t, kCmdKinds> ns{};
    uint64_t trainActs = 0;  //!< ACTs carried by actMany trains.

    uint64_t totalNs() const;
    DeviceTally &operator+=(const DeviceTally &o);
    DeviceTally &operator-=(const DeviceTally &o);
};

/** Forwards every Device call to an owned device and times it. */
class TimedDevice final : public dramscope::dram::Device
{
  public:
    explicit TimedDevice(std::unique_ptr<dramscope::dram::Device> inner);

    const dramscope::dram::DeviceConfig &config() const override;
    void act(dramscope::dram::BankId b, dramscope::dram::RowAddr row,
             dramscope::dram::NanoTime now) override;
    void pre(dramscope::dram::BankId b,
             dramscope::dram::NanoTime now) override;
    uint64_t read(dramscope::dram::BankId b, dramscope::dram::ColAddr col,
                  dramscope::dram::NanoTime now) override;
    void write(dramscope::dram::BankId b, dramscope::dram::ColAddr col,
               uint64_t data, dramscope::dram::NanoTime now) override;
    void refresh(dramscope::dram::NanoTime now) override;
    void actMany(const dramscope::dram::ActTrain &train) override;
    void actManyAnalytic(const dramscope::dram::ActTrain &train) override;
    uint64_t violationCount() const override;
    std::vector<dramscope::dram::TimingViolation>
    violationLog() const override;
    uint32_t refreshAggressorNeighbors(
        dramscope::dram::BankId b, dramscope::dram::RowAddr row,
        dramscope::dram::NanoTime now) override;

    /** Everything timed since construction. */
    const DeviceTally &tally() const { return tally_; }

  private:
    std::unique_ptr<dramscope::dram::Device> inner_;
    DeviceTally tally_;
};

} // namespace perfbench

#endif // DRAMSCOPE_PERFBENCH_TIMED_DEVICE_H
