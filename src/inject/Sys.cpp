//===- inject/Sys.cpp - Injectable syscall wrappers -----------------------===//
//
// Part of the WBTuner reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "inject/Sys.h"

#include "inject/Inject.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

using namespace wbt;

pid_t sys::forkProcess() {
  if (int E = inject::onCall(inject::Site::Fork)) {
    errno = E;
    return -1;
  }
  return ::fork();
}

void *sys::mmapShared(size_t Bytes) {
  if (int E = inject::onCall(inject::Site::Mmap)) {
    errno = E;
    return MAP_FAILED;
  }
  return ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                MAP_SHARED | MAP_ANONYMOUS, -1, 0);
}

char *sys::makeTempDir(char *Templ) {
  if (int E = inject::onCall(inject::Site::Mkdtemp)) {
    errno = E;
    return nullptr;
  }
  return ::mkdtemp(Templ);
}

bool sys::makeDir(const std::string &Path) {
  if (int E = inject::onCall(inject::Site::Mkdir)) {
    errno = E;
    return false;
  }
  return ::mkdir(Path.c_str(), 0700) == 0 || errno == EEXIST;
}

pid_t sys::waitPid(pid_t Pid, int *Status, int Flags) {
  for (;;) {
    // Injected EINTR takes the same retry edge as the real thing, so an
    // EINTR storm exercises exactly the loop that used to be missing.
    if (int E = inject::onCall(inject::Site::Waitpid)) {
      if (E == EINTR)
        continue;
      errno = E;
      return -1;
    }
    pid_t R = ::waitpid(Pid, Status, Flags);
    if (R < 0 && errno == EINTR)
      continue;
    return R;
  }
}

DIR *sys::openDir(const char *Path) {
  if (int E = inject::onCall(inject::Site::Opendir)) {
    errno = E;
    return nullptr;
  }
  return ::opendir(Path);
}

int sys::removePath(const char *Path) {
  if (int E = inject::onCall(inject::Site::Unlink)) {
    errno = E;
    return -1;
  }
  return ::remove(Path);
}

int sys::socketCreate() {
  if (int E = inject::onCall(inject::Site::Socket)) {
    errno = E;
    return -1;
  }
  return ::socket(AF_INET, SOCK_STREAM, 0);
}

int sys::connectTo(int Fd, const std::string &Addr, uint16_t Port) {
  if (int E = inject::onCall(inject::Site::Connect)) {
    errno = E;
    return -1;
  }
  sockaddr_in Sa{};
  Sa.sin_family = AF_INET;
  Sa.sin_port = htons(Port);
  if (::inet_pton(AF_INET, Addr.c_str(), &Sa.sin_addr) != 1) {
    errno = EINVAL;
    return -1;
  }
  for (;;) {
    int R = ::connect(Fd, reinterpret_cast<sockaddr *>(&Sa), sizeof(Sa));
    if (R < 0 && errno == EINTR)
      continue;
    return R;
  }
}

int sys::acceptConn(int Fd) {
  if (int E = inject::onCall(inject::Site::Accept)) {
    errno = E;
    return -1;
  }
  for (;;) {
    int R = ::accept(Fd, nullptr, nullptr);
    if (R < 0 && errno == EINTR)
      continue;
    return R;
  }
}

/// send(2) until \p Size bytes of \p Buf are on the wire or the socket
/// fails; EINTR retried, SIGPIPE suppressed (errors surface as EPIPE).
static ssize_t sendAll(int Fd, const void *Buf, size_t Size) {
  const char *P = static_cast<const char *>(Buf);
  size_t Sent = 0;
  while (Sent < Size) {
    ssize_t R = ::send(Fd, P + Sent, Size - Sent, MSG_NOSIGNAL);
    if (R < 0 && errno == EINTR)
      continue;
    if (R <= 0)
      return -1;
    Sent += static_cast<size_t>(R);
  }
  return static_cast<ssize_t>(Size);
}

ssize_t sys::sendBytes(int Fd, const void *Buf, size_t Size) {
  size_t Allowed = 0;
  if (int E = inject::onSend(Size, Allowed)) {
    // A torn frame must really reach the peer: push the allowed prefix
    // onto the wire, then fail as if the connection died mid-send.
    if (Allowed)
      sendAll(Fd, Buf, Allowed);
    errno = E;
    return -1;
  }
  return sendAll(Fd, Buf, Size);
}

ssize_t sys::recvBytes(int Fd, void *Buf, size_t Size) {
  if (int E = inject::onCall(inject::Site::Recv)) {
    errno = E;
    return -1;
  }
  for (;;) {
    ssize_t R = ::recv(Fd, Buf, Size, 0);
    if (R < 0 && errno == EINTR)
      continue;
    return R;
  }
}

ssize_t sys::sendOnce(int Fd, const void *Buf, size_t Size) {
  size_t Allowed = 0;
  if (int E = inject::onSend(Size, Allowed)) {
    if (E == EINTR || E == EAGAIN) {
      // Interruptions surface as-is: the caller's pump loop is the
      // retry edge under test.
      errno = E;
      return -1;
    }
    if (Allowed) {
      // A 'short' action reads as an honest partial write here; the
      // terminal error lands on the caller's next attempt.
      ssize_t W = ::send(Fd, Buf, Allowed, MSG_NOSIGNAL);
      if (W > 0)
        return W;
    }
    errno = E;
    return -1;
  }
  return ::send(Fd, Buf, Size, MSG_NOSIGNAL);
}

ssize_t sys::recvOnce(int Fd, void *Buf, size_t Size) {
  if (int E = inject::onCall(inject::Site::Recv)) {
    errno = E;
    return -1;
  }
  return ::recv(Fd, Buf, Size, 0);
}

int sys::socketUnix() {
  if (int E = inject::onCall(inject::Site::Socket)) {
    errno = E;
    return -1;
  }
  return ::socket(AF_UNIX, SOCK_STREAM, 0);
}

void sys::fatal(const char *Fmt, ...) {
  std::va_list Ap;
  va_start(Ap, Fmt);
  std::fputs("wbtuner: fatal: ", stderr);
  std::vfprintf(stderr, Fmt, Ap);
  std::fputc('\n', stderr);
  va_end(Ap);
  std::fflush(nullptr);
  std::abort();
}
