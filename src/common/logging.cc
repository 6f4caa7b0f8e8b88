#include "src/common/logging.hh"

#include <cstdio>
#include <exception>
#include <stdexcept>

namespace sam {

namespace {

/** What panic() throws once it has printed its message. */
class PanicError : public std::logic_error
{
    using std::logic_error::logic_error;
};

/** What fatal() throws once it has printed its message. */
class FatalError : public std::runtime_error
{
    using std::runtime_error::runtime_error;
};

} // namespace

namespace detail {

bool quiet = false;

[[noreturn]] void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stderr);
    // Throw rather than abort() so unit tests can observe panics with
    // EXPECT_THROW; uncaught, it still terminates the process.
    throw PanicError("panic: " + msg);
}

[[noreturn]] void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stderr);
    throw FatalError("fatal: " + msg);
}

void
warnImpl(const std::string &msg)
{
    if (!quiet)
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    if (!quiet)
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace detail

void
setQuietLogging(bool quiet)
{
    detail::quiet = quiet;
}

void
reportUncaught(const std::exception &e)
{
    if (dynamic_cast<const PanicError *>(&e) ||
        dynamic_cast<const FatalError *>(&e))
        return;
    std::fprintf(stderr, "%s\n", e.what());
}

} // namespace sam
