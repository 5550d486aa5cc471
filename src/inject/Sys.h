//===- inject/Sys.h - Injectable syscall wrappers ---------------*- C++ -*-===//
//
// Part of the WBTuner reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Thin wrappers over the fork runtime's hazardous syscalls. Each one
/// consults the armed fault-injection plan (inject/Inject.h) before the
/// real call — a single predicted branch when disarmed — and each fixes
/// one class of syscall-handling bug in place:
///
///  * waitPid retries EINTR instead of letting an interrupted wait read
///    as "child not exited" (which leaked split-child accounting and
///    could hang the root in finish());
///  * fatal() reports and aborts in every build type, replacing
///    assert()s that compile out under NDEBUG and let init continue
///    with a garbage run directory.
///
/// Injected failures set errno exactly like the kernel would, so call
/// sites cannot tell (and must not care) whether a failure is real.
///
//===----------------------------------------------------------------------===//

#ifndef WBT_INJECT_SYS_H
#define WBT_INJECT_SYS_H

#include <dirent.h>
#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>

namespace wbt {
namespace sys {

/// fork(2). Injection: returns -1 with the planned errno.
pid_t forkProcess();

/// mmap(2) of an anonymous MAP_SHARED region. Returns MAP_FAILED (with
/// errno) on failure, injected or real.
void *mmapShared(size_t Bytes);

/// mkdtemp(3) over \p Templ (modified in place). Null + errno on failure.
char *makeTempDir(char *Templ);

/// mkdir(2), mode 0700; an existing directory counts as success.
/// Returns false with errno set on failure.
bool makeDir(const std::string &Path);

/// waitpid(2) that retries while the wait is interrupted (EINTR), real
/// or injected — an interrupted wait is not a verdict on the child.
pid_t waitPid(pid_t Pid, int *Status, int Flags);

/// opendir(3). Null + errno on failure.
DIR *openDir(const char *Path);

/// remove(3) — the unlink site (run-directory teardown).
int removePath(const char *Path);

/// socket(2), AF_INET stream. -1 + errno on failure.
int socketCreate();

/// connect(2) of \p Fd to the IPv4 address \p Addr at \p Port, retrying
/// EINTR. -1 + errno on failure (ECONNREFUSED drives agent reconnect
/// backoff, real or injected).
int connectTo(int Fd, const std::string &Addr, uint16_t Port);

/// accept(2) on listening \p Fd, retrying EINTR. -1 + errno on failure;
/// EAGAIN when \p Fd is non-blocking and no connection is pending.
int acceptConn(int Fd);

/// Full send(2) of \p Size bytes (MSG_NOSIGNAL, partial sends retried).
/// Returns \p Size, or -1 + errno. An injected 'short' pushes half the
/// bytes onto the wire before failing with EPIPE, so the peer reads a
/// genuinely torn length-prefixed frame.
ssize_t sendBytes(int Fd, const void *Buf, size_t Size);

/// recv(2), retrying EINTR. Returns bytes read (0 = orderly shutdown),
/// or -1 + errno; EAGAIN when \p Fd is non-blocking and nothing is
/// buffered.
ssize_t recvBytes(int Fd, void *Buf, size_t Size);

/// Single-shot send(2) (MSG_NOSIGNAL, no retry loop): EINTR and EAGAIN
/// surface to the caller, which is what a poll-pumped server wants — it
/// keeps the unsent tail buffered and retries on the next pump. Consults
/// the same injection plan as sendBytes (a 'short' action pushes the
/// allowed prefix and reports it as a genuine partial write).
ssize_t sendOnce(int Fd, const void *Buf, size_t Size);

/// Single-shot recv(2): EINTR and EAGAIN surface to the caller (see
/// sendOnce). Injection: Site::Recv.
ssize_t recvOnce(int Fd, void *Buf, size_t Size);

/// socket(2), AF_UNIX stream (the daemon control socket). -1 + errno on
/// failure; shares Site::Socket with the inet flavor.
int socketUnix();

/// Reports a fatal runtime error and aborts, in every build type.
[[noreturn]] void fatal(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace sys
} // namespace wbt

#endif // WBT_INJECT_SYS_H
