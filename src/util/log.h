/**
 * @file
 * Logging and error-reporting helpers for the DRAMScope library.
 *
 * Follows the gem5 convention: panic() for internal invariant
 * violations (bugs in the library itself), fatal() for user errors
 * that make continuing impossible, warn() for status.
 */

#ifndef DRAMSCOPE_UTIL_LOG_H
#define DRAMSCOPE_UTIL_LOG_H

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>

namespace dramscope {

/**
 * Emits a `warn: <msg>` line on stderr (the condition may still work
 * well enough).  Thread-safe: the line is built in full and written
 * under one lock, so concurrent emitters (e.g. sweep workers) never
 * interleave within a line.
 */
inline void
warn(const std::string &msg)
{
    static std::mutex mu;
    const std::string line = "warn: " + msg + "\n";
    std::lock_guard<std::mutex> lock(mu);
    std::fwrite(line.data(), 1, line.size(), stderr);
}

// panic() and fatal() on a const char * are cold and out of line, so
// a check's call site stays a compare and a branch.

/**
 * Aborts on an internal invariant violation (a library bug).
 * @param msg Description of the violated invariant.
 */
[[noreturn, gnu::cold, gnu::noinline]] inline void
panic(const char *msg)
{
    std::fprintf(stderr, "panic: %s\n", msg);
    std::abort();
}

/** panic() with a built message. */
[[noreturn]] inline void
panic(const std::string &msg)
{
    panic(msg.c_str());
}

/**
 * Exits on an unrecoverable user error (bad configuration, invalid
 * arguments) that is not a library bug.
 * @param msg Description of the user error.
 */
[[noreturn, gnu::cold, gnu::noinline]] inline void
fatal(const char *msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg);
    std::exit(1);
}

/** fatal() with a built message. */
[[noreturn]] inline void
fatal(const std::string &msg)
{
    fatal(msg.c_str());
}

// The *If helpers take const char *: a passing check must not allocate.

/** panic()s when @p cond holds (i.e. @p cond asserts the *bug*). */
inline void
panicIf(bool cond, const char *msg)
{
    if (cond)
        panic(msg);
}

/** fatal()s when @p cond holds (i.e. @p cond asserts the *error*). */
inline void
fatalIf(bool cond, const char *msg)
{
    if (cond)
        fatal(msg);
}

} // namespace dramscope

#endif // DRAMSCOPE_UTIL_LOG_H
