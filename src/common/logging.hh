/**
 * @file
 * Minimal gem5-flavoured status/error reporting.
 *
 * panic()  -- internal invariant violated (simulator bug); aborts.
 * fatal()  -- unusable user configuration; exits with status 1.
 * warn()   -- questionable but survivable condition.
 */

#ifndef MORRIGAN_COMMON_LOGGING_HH
#define MORRIGAN_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace morrigan
{

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);

/** Printf-style formatting into a std::string. */
std::string csprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace morrigan

#define panic(...) \
    ::morrigan::panicImpl(__FILE__, __LINE__, \
                          ::morrigan::csprintf(__VA_ARGS__))

#define fatal(...) \
    ::morrigan::fatalImpl(__FILE__, __LINE__, \
                          ::morrigan::csprintf(__VA_ARGS__))

#define warn(...) \
    ::morrigan::warnImpl(::morrigan::csprintf(__VA_ARGS__))

/** panic() unless the stated internal invariant holds. */
#define panic_if(cond, ...) \
    do { \
        if (cond) \
            panic(__VA_ARGS__); \
    } while (0)

/** fatal() unless the stated configuration requirement holds. */
#define fatal_if(cond, ...) \
    do { \
        if (cond) \
            fatal(__VA_ARGS__); \
    } while (0)

#endif // MORRIGAN_COMMON_LOGGING_HH
