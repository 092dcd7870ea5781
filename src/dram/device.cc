/**
 * @file
 * Device interface out-of-line anchor (keeps one vtable per binary)
 * and the fast-forward mode registry helpers.
 */

#include "dram/device.h"

#include "util/registry.h"

namespace dramscope {
namespace dram {

Device::~Device() = default;

std::span<const FastPathModeInfo>
fastPathModeTable()
{
    static constexpr FastPathModeInfo kTable[] = {
#define X(Enumerator, keyword, summary) {FastPathMode::Enumerator, keyword},
        DRAMSCOPE_FASTPATH_MODES(X)
#undef X
    };
    return kTable;
}

const char *
toString(FastPathMode mode)
{
    return fastPathModeTable()[size_t(mode)].id;
}

FastPathMode
fastPathModeFromEnv()
{
    return registry::fromEnv("DRAMSCOPE_FASTPATH", fastPathModeTable(),
                             "fast-path mode", FastPathMode::Exact);
}

} // namespace dram
} // namespace dramscope
