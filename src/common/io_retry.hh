/**
 * @file
 * EINTR-retrying wrappers for the blocking syscalls the campaign
 * infrastructure leans on.
 *
 * The supervisor's sandbox scheduler, the journal and the snapshot
 * subsystem all sit in loops of read/write/poll/waitpid. Any of
 * those can return EINTR when a harmless signal (SIGCHLD from an
 * unrelated child, a profiler's SIGPROF, a debugger attach) lands
 * mid-call; a site that forgets the retry turns such a signal into a
 * spurious job failure or a torn sandbox result. Every blocking call
 * in those subsystems goes through these helpers so the retry policy
 * lives in exactly one place (and the EINTR audit is a grep for raw
 * `::read(` etc.).
 *
 * These wrappers retry EINTR and nothing else: real errors come
 * back to the caller with errno intact. They never inject faults --
 * the durability paths that participate in fault injection use
 * faultfs (fault_fs.hh), which composes with these.
 */

#ifndef MORRIGAN_COMMON_IO_RETRY_HH
#define MORRIGAN_COMMON_IO_RETRY_HH

#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>

namespace morrigan::io
{

/** ::read, retried on EINTR. */
inline ssize_t
readRetry(int fd, void *buf, std::size_t len)
{
    ssize_t n;
    do {
        n = ::read(fd, buf, len);
    } while (n < 0 && errno == EINTR);
    return n;
}

/** ::write, retried on EINTR. */
inline ssize_t
writeRetry(int fd, const void *buf, std::size_t len)
{
    ssize_t n;
    do {
        n = ::write(fd, buf, len);
    } while (n < 0 && errno == EINTR);
    return n;
}

/**
 * Write all @p len bytes, retrying short writes and EINTR.
 * @return false on the first hard error (errno preserved).
 */
inline bool
writeAll(int fd, const void *buf, std::size_t len)
{
    const char *p = static_cast<const char *>(buf);
    std::size_t off = 0;
    while (off < len) {
        ssize_t n = writeRetry(fd, p + off, len - off);
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/** ::waitpid, retried on EINTR. */
inline pid_t
waitpidRetry(pid_t pid, int *status, int options)
{
    pid_t r;
    do {
        r = ::waitpid(pid, status, options);
    } while (r < 0 && errno == EINTR);
    return r;
}

/**
 * ::poll, retried on EINTR with the same timeout. Callers recompute
 * their deadlines from the clock on every scheduler iteration, so
 * the slight timeout stretch a retry introduces never accumulates
 * into a correctness problem.
 */
inline int
pollRetry(pollfd *fds, nfds_t nfds, int timeout_ms)
{
    int r;
    do {
        r = ::poll(fds, nfds, timeout_ms);
    } while (r < 0 && errno == EINTR);
    return r;
}

} // namespace morrigan::io

#endif // MORRIGAN_COMMON_IO_RETRY_HH
