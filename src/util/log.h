/**
 * @file
 * Logging and error-reporting helpers for the DRAMScope library.
 *
 * Follows the gem5 convention: panic() for internal invariant
 * violations (bugs in the library itself), fatal() for user errors
 * that make continuing impossible, warn()/inform() for status.
 */

#ifndef DRAMSCOPE_UTIL_LOG_H
#define DRAMSCOPE_UTIL_LOG_H

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <string>

namespace dramscope {

/** Verbosity levels for runtime logging. */
enum class LogLevel { Silent = 0, Error = 1, Warn = 2, Info = 3, Debug = 4 };

/**
 * Process-wide log configuration.  Benches and tests lower the level
 * to keep output deterministic and small.
 */
class Log
{
  public:
    /** Returns the current global log level. */
    static LogLevel level() { return instance().level_; }

    /** Sets the global log level. */
    static void setLevel(LogLevel lvl) { instance().level_ = lvl; }

    /**
     * Emits a message if @p lvl is enabled.  Thread-safe: the line is
     * built in full and written under a lock, so concurrent emitters
     * (e.g. sweep workers) never interleave within a line.
     */
    static void
    emit(LogLevel lvl, const std::string &msg)
    {
        if (static_cast<int>(lvl) <= static_cast<int>(level())) {
            const std::string line =
                std::string(prefix(lvl)) + msg + "\n";
            std::lock_guard<std::mutex> lock(instance().emit_mu_);
            std::fwrite(line.data(), 1, line.size(), stderr);
        }
    }

  private:
    static Log &
    instance()
    {
        static Log the_log;
        return the_log;
    }

    static const char *
    prefix(LogLevel lvl)
    {
        switch (lvl) {
          case LogLevel::Error: return "error: ";
          case LogLevel::Warn:  return "warn: ";
          case LogLevel::Info:  return "info: ";
          case LogLevel::Debug: return "debug: ";
          default:              return "";
        }
    }

    LogLevel level_ = LogLevel::Warn;
    std::mutex emit_mu_;
};

/** Emits a warning message (condition may still work well enough). */
inline void warn(const std::string &msg) { Log::emit(LogLevel::Warn, msg); }

/** Emits an informational status message. */
inline void inform(const std::string &msg) { Log::emit(LogLevel::Info, msg); }

/** Emits a debug message. */
inline void debugLog(const std::string &msg)
{
    Log::emit(LogLevel::Debug, msg);
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
