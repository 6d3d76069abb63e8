/**
 * @file
 * Error handling and logging primitives for RecPerf.
 *
 * Follows the gem5 convention: fatal() is for user error (bad
 * configuration, invalid arguments) and exits cleanly; panic() is for
 * internal invariant violations (library bugs) and aborts. warn() is
 * the non-terminating status channel.
 */

#ifndef RECPERF_CORE_LOGGING_HH
#define RECPERF_CORE_LOGGING_HH

#include <cstdarg>
#include <string>

namespace recperf {

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** vprintf-style formatting into a std::string. */
std::string vstrprintf(const char *fmt, va_list args);

namespace detail {

[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
void warnImpl(const char *file, int line, const std::string &msg);

} // namespace detail

/**
 * Terminate due to a user-caused error (bad config, invalid argument).
 * Prints the message and throws FatalError so callers/tests can observe it.
 */
#define RP_FATAL(...) \
    ::recperf::detail::fatalImpl(__FILE__, __LINE__, ::recperf::strprintf(__VA_ARGS__))

/** Terminate due to an internal invariant violation (a RecPerf bug). */
#define RP_PANIC(...) \
    ::recperf::detail::panicImpl(__FILE__, __LINE__, ::recperf::strprintf(__VA_ARGS__))

/** Non-terminating warning about questionable but survivable conditions. */
#define RP_WARN(...) \
    ::recperf::detail::warnImpl(__FILE__, __LINE__, ::recperf::strprintf(__VA_ARGS__))

/** Internal invariant check; active in all build types. */
#define RP_ASSERT(cond, ...)                                                  \
    do {                                                                      \
        if (!(cond)) {                                                        \
            ::recperf::detail::panicImpl(                                     \
                __FILE__, __LINE__,                                           \
                std::string("assertion failed: " #cond)                       \
                    __VA_OPT__(+ " " + ::recperf::strprintf(__VA_ARGS__)));   \
        }                                                                     \
    } while (0)

/** Exception thrown by RP_FATAL: a user-correctable configuration error. */
class FatalError : public std::exception
{
  public:
    explicit FatalError(std::string msg) : msg_(std::move(msg)) {}
    const char *what() const noexcept override { return msg_.c_str(); }

  private:
    std::string msg_;
};

/** Exception thrown by RP_PANIC/RP_ASSERT: an internal invariant violation. */
class PanicError : public std::exception
{
  public:
    explicit PanicError(std::string msg) : msg_(std::move(msg)) {}
    const char *what() const noexcept override { return msg_.c_str(); }

  private:
    std::string msg_;
};

} // namespace recperf

#endif // RECPERF_CORE_LOGGING_HH
