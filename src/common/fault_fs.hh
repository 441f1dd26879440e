/**
 * @file
 * Filesystem fault injection for the durability paths.
 *
 * The journal append and the snapshot atomic publish both promise
 * "a failure is either cleanly reported or invisible after
 * recovery". Those promises are only testable if the failures can
 * be made to happen on demand; this shim makes write() and fsync()
 * fail deterministically on the paths that opt in.
 *
 * Armed via MORRIGAN_FAULT_FS (or setSpec() in tests):
 *
 *     MORRIGAN_FAULT_FS=enospc:1,shortwrite:2,fsyncfail:1
 *
 * Each `kind:N` entry makes the next N matching operations fail,
 * counting from the moment the spec is armed:
 *
 *  - enospc:N     the next N faultfs::write() calls fail with
 *                 ENOSPC without writing anything;
 *  - shortwrite:N the next N faultfs::write() calls write only the
 *                 first half of the buffer (a torn write really
 *                 lands on disk);
 *  - fsyncfail:N  the next N faultfs::fsync() calls fail with EIO
 *                 (the data may or may not be durable -- exactly
 *                 the ambiguity a real fsync failure leaves).
 *
 * When both write faults are armed, enospc fires first. Only the
 * durability paths route their I/O through this shim; the sandbox
 * result pipes deliberately do not (fault injection there would
 * test the shim, not the recovery story).
 * Unarmed (the default), each hook is one relaxed atomic load.
 */

#ifndef MORRIGAN_COMMON_FAULT_FS_HH
#define MORRIGAN_COMMON_FAULT_FS_HH

#include <sys/types.h>

#include <cstddef>

namespace morrigan::faultfs
{

/**
 * Arm (or disarm, with null/empty @p spec) the shim. Junk specs are
 * fatal: this is a test/chaos knob, and a typo silently testing
 * nothing is worse than a loud exit. Replaces any previous spec.
 */
void setSpec(const char *spec);

/** True when any fault is still pending. */
bool armed();

/**
 * Parse MORRIGAN_FAULT_FS now instead of at the first shimmed
 * syscall. Tool mains call this so a junk spec dies at startup even
 * when the run never touches a durability path.
 */
void initFromEnv();

/** ::write through the shim (EINTR retried). */
ssize_t write(int fd, const void *buf, std::size_t len);

/** ::fsync through the shim. */
int fsync(int fd);

/**
 * Write all of @p len through the shim, retrying short *natural*
 * writes but aborting on injected or real errors. An injected
 * shortwrite leaves the torn prefix on disk and returns false with
 * errno = ENOSPC, modelling a partial write the process did not get
 * to finish. @return false on failure (errno set).
 */
bool writeAll(int fd, const void *buf, std::size_t len);

/** Faults injected so far (test observability). */
std::size_t injectedCount();

} // namespace morrigan::faultfs

#endif // MORRIGAN_COMMON_FAULT_FS_HH
