/**
 * @file
 * gem5-style status and error reporting helpers.
 *
 * panic() flags simulator bugs (aborts); fatal() flags user/configuration
 * errors (clean exit); warn()/inform() report conditions without stopping
 * the simulation.
 */

#ifndef SAM_COMMON_LOGGING_HH
#define SAM_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>

namespace sam {

namespace detail {

/** Stream-concatenate a variadic argument pack into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** When true, warn()/inform() output is suppressed (quiet benches). */
extern bool quiet;

} // namespace detail

/** Suppress or re-enable warn()/inform() console output. */
void setQuietLogging(bool quiet);

/**
 * Print an exception that reached a tool's top level. panic() and
 * fatal() have already printed theirs, with file:line, so those print
 * nothing more; anything else prints its what().
 */
void reportUncaught(const std::exception &e);

/**
 * Abort on an internal invariant violation — a simulator bug, never a
 * consequence of user input.
 */
#define panic(...)                                                          \
    ::sam::detail::panicImpl(__FILE__, __LINE__,                            \
                             ::sam::detail::concat(__VA_ARGS__))

/**
 * Exit on an unrecoverable condition caused by user input (bad
 * configuration, invalid arguments).
 */
#define fatal(...)                                                          \
    ::sam::detail::fatalImpl(__FILE__, __LINE__,                            \
                             ::sam::detail::concat(__VA_ARGS__))

/** Report a suspicious-but-survivable condition. */
#define warn(...)                                                           \
    ::sam::detail::warnImpl(::sam::detail::concat(__VA_ARGS__))

/** Report normal operating status. */
#define inform(...)                                                         \
    ::sam::detail::informImpl(::sam::detail::concat(__VA_ARGS__))

/** Assert a simulator invariant with a formatted message. */
#define sam_assert(cond, ...)                                               \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::sam::detail::panicImpl(                                       \
                __FILE__, __LINE__,                                         \
                ::sam::detail::concat("assertion '", #cond, "' failed: ",   \
                                      __VA_ARGS__));                        \
        }                                                                   \
    } while (0)

} // namespace sam

#endif // SAM_COMMON_LOGGING_HH
