/**
 * @file
 * HBM2 stack aggregate: the paper tests 4-Hi stacks (Table I), where
 * each die exposes independent channels.  The simulator models one
 * channel as a Chip; this class composes a stack of them so
 * stack-level experiments (per-channel variation, cross-channel
 * independence) can be expressed.
 */

#ifndef DRAMSCOPE_DRAM_HBM_STACK_H
#define DRAMSCOPE_DRAM_HBM_STACK_H

#include <memory>
#include <vector>

#include "dram/chip.h"
#include "util/rng.h"

namespace dramscope {
namespace dram {

/** A 4-Hi HBM2 stack: channels with independent process variation. */
class HbmStack
{
  public:
    /**
     * @param cfg Channel configuration (usually the HBM2_A preset).
     * @param channels Channels in the stack (8 for 4-Hi HBM2: two
     *        per die).
     */
    explicit HbmStack(DeviceConfig cfg, uint32_t channels = 8)
        : cfg_(std::move(cfg))
    {
        fatalIf(channels == 0, "HbmStack: no channels");
        for (uint32_t c = 0; c < channels; ++c) {
            DeviceConfig channel_cfg = cfg_;
            // Each channel is distinct silicon: derive its variation
            // from the stack seed and channel index.
            channel_cfg.variationSeed =
                hashCombine(cfg_.variationSeed, 0x48424Dull + c);
            channel_cfg.name = cfg_.name + "/ch" + std::to_string(c);
            channels_.push_back(
                std::make_unique<Chip>(std::move(channel_cfg)));
        }
    }

    /** Channels in the stack. */
    uint32_t channelCount() const { return uint32_t(channels_.size()); }

    /** Channel @p c (a Chip, hence a Device). */
    Chip &
    channel(uint32_t c)
    {
        panicIf(c >= channels_.size(), "HbmStack: channel out of range");
        return *channels_[c];
    }

    /** Channel @p c, read-only. */
    const Chip &
    channel(uint32_t c) const
    {
        panicIf(c >= channels_.size(), "HbmStack: channel out of range");
        return *channels_[c];
    }

    /** The stack-level configuration template. */
    const DeviceConfig &config() const { return cfg_; }

  private:
    DeviceConfig cfg_;
    std::vector<std::unique_ptr<Chip>> channels_;
};

} // namespace dram
} // namespace dramscope

#endif // DRAMSCOPE_DRAM_HBM_STACK_H
