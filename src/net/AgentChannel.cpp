//===- net/AgentChannel.cpp - Agent-side protocol channel -----------------===//
//
// Part of the WBTuner reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/AgentChannel.h"

#include "inject/Sys.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>

using namespace wbt;
using namespace wbt::net;

namespace {

/// Agent-side CLOCK_MONOTONIC, stamped into Hello for the server's
/// clock-offset estimate.
uint64_t nowNs() {
  timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return uint64_t(Ts.tv_sec) * 1000000000ull + uint64_t(Ts.tv_nsec);
}

} // namespace

AgentChannel::~AgentChannel() { closeConn(); }

void AgentChannel::closeConn() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
  In = FrameBuffer(); // a reconnect must not resume a torn stream
}

bool AgentChannel::ensureConnected() {
  if (Fd >= 0)
    return true;
  // ~100 x 20ms covers a server briefly drowned in connection load; a
  // server that is really gone (teardown raced the Shutdown frame)
  // keeps refusing and the agent gives up and exits.
  for (int Attempt = 0; Attempt != 100; ++Attempt) {
    if (Attempt)
      ::usleep(20 * 1000);
    int S = sys::socketCreate();
    if (S < 0)
      continue;
    if (sys::connectTo(S, Addr, Port) != 0) {
      ::close(S);
      continue;
    }
    // No Nagle: a close ack queued behind an unacknowledged Commit would
    // otherwise wait out the server's delayed ACK.
    int One = 1;
    ::setsockopt(S, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    Fd = S;
    if (!sendFrame(encodeHello(AgentId, nowNs())))
      continue; // sendFrame closed Fd; retry from scratch
    return true;
  }
  return false;
}

bool AgentChannel::sendFrame(const std::vector<uint8_t> &Frame) {
  if (Fd < 0)
    return false;
  if (sys::sendBytes(Fd, Frame.data(), Frame.size()) !=
      static_cast<ssize_t>(Frame.size())) {
    closeConn();
    return false;
  }
  return true;
}

bool AgentChannel::recvFrame(std::vector<uint8_t> &Out) {
  while (Fd >= 0) {
    if (In.next(Out))
      return true;
    if (In.corrupt())
      break;
    uint8_t Buf[64 * 1024];
    ssize_t R = sys::recvBytes(Fd, Buf, sizeof(Buf));
    if (R <= 0)
      break;
    In.append(Buf, static_cast<size_t>(R));
  }
  closeConn();
  return false;
}
