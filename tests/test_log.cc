/**
 * @file
 * panic/fatal semantics and thread-safety of warn() (the
 * multithreaded case is what the thread-sanitizer CI job exercises:
 * sweep workers warn concurrently).
 */

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/log.h"

namespace dramscope {
namespace {

TEST(LogDeathTest, PanicIfFiresWhenTheConditionHolds)
{
    panicIf(false, "must not fire");
    EXPECT_DEATH(panicIf(true, "invariant broken"), "invariant broken");
}

TEST(LogDeathTest, FatalIfExitsWhenTheConditionHolds)
{
    fatalIf(false, "must not fire");
    EXPECT_EXIT(fatalIf(true, "bad config"),
                testing::ExitedWithCode(1), "bad config");
}

TEST(LogTest, ConcurrentEmittersNeverInterleaveWithinALine)
{
    constexpr int kThreads = 4;
    constexpr int kLines = 200;

    testing::internal::CaptureStderr();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            const std::string msg =
                "thread-" + std::string(1, char('A' + t)) + "-line";
            for (int i = 0; i < kLines; ++i)
                warn(msg);
        });
    }
    for (auto &th : threads)
        th.join();
    const std::string out = testing::internal::GetCapturedStderr();

    // Every line must be a complete, untruncated emission.
    std::istringstream in(out);
    std::string line;
    int count = 0;
    while (std::getline(in, line)) {
        EXPECT_EQ(line.substr(0, 6), "warn: ") << line;
        EXPECT_EQ(line.size(), std::string("warn: thread-A-line").size())
            << line;
        ++count;
    }
    EXPECT_EQ(count, kThreads * kLines);
}

} // namespace
} // namespace dramscope
