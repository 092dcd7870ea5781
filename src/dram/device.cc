/**
 * @file
 * Device interface out-of-line anchor (keeps one vtable per binary)
 * and the fast-forward mode registry helpers.
 */

#include "dram/device.h"

#include <cstdlib>

#include "util/log.h"

namespace dramscope {
namespace dram {

Device::~Device() = default;

const char *
toString(FastPathMode mode)
{
    switch (mode) {
#define X(Enumerator, keyword, summary)                                 \
      case FastPathMode::Enumerator:                                    \
        return keyword;
        DRAMSCOPE_FASTPATH_MODES(X)
#undef X
    }
    return "off";
}

std::optional<FastPathMode>
fastPathModeFromString(const std::string &s)
{
#define X(Enumerator, keyword, summary)                                 \
    if (s == keyword)                                                   \
        return FastPathMode::Enumerator;
    DRAMSCOPE_FASTPATH_MODES(X)
#undef X
    return std::nullopt;
}

FastPathMode
fastPathModeFromEnv()
{
    const char *env = std::getenv("DRAMSCOPE_FASTPATH");
    if (!env || !*env)
        return FastPathMode::Exact;
    if (const auto mode = fastPathModeFromString(env))
        return *mode;
#define X(Enumerator, keyword, summary) "|" keyword
    static constexpr char kKeywords[] = DRAMSCOPE_FASTPATH_MODES(X);
#undef X
    fatal(std::string("DRAMSCOPE_FASTPATH='") + env +
          "' is not a fast-path mode (" + (kKeywords + 1) + ")");
}

} // namespace dram
} // namespace dramscope
