//===- net/LeaseServer.cpp - Tuning-side lease-range server ---------------===//
//
// Part of the WBTuner reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/LeaseServer.h"

#include "inject/Sys.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>

using namespace wbt;
using namespace wbt::net;

namespace {

/// Server-side CLOCK_MONOTONIC (clock-offset estimation at Hello).
uint64_t nowNs() {
  timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return uint64_t(Ts.tv_sec) * 1000000000ull + uint64_t(Ts.tv_nsec);
}

} // namespace

LeaseServer::~LeaseServer() { closeAll(); }

bool LeaseServer::listen(const std::string &Addr) {
  int Fd = sys::socketCreate();
  if (Fd < 0)
    return false;
  sockaddr_in Sa{};
  Sa.sin_family = AF_INET;
  Sa.sin_port = 0; // ephemeral: the kernel picks, getsockname reports
  if (::inet_pton(AF_INET, Addr.c_str(), &Sa.sin_addr) != 1 ||
      ::bind(Fd, reinterpret_cast<sockaddr *>(&Sa), sizeof(Sa)) != 0 ||
      ::listen(Fd, 64) != 0) {
    int E = errno;
    ::close(Fd);
    errno = E;
    return false;
  }
  // Non-blocking accept: the pump polls first, but a connection that
  // vanishes between poll and accept must not wedge the supervisor.
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  if (Flags >= 0)
    ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
  socklen_t Len = sizeof(Sa);
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Sa), &Len) != 0) {
    int E = errno;
    ::close(Fd);
    errno = E;
    return false;
  }
  ListenFd = Fd;
  Port = ntohs(Sa.sin_port);
  return true;
}

void LeaseServer::openRegion(uint64_t TpId, uint64_t Base, uint32_t N,
                             uint32_t Kind) {
  ++Gen;
  RegionIsOpen = true;
  Cur.Gen = Gen;
  Cur.TpId = TpId;
  Cur.Base = Base;
  Cur.N = N;
  Cur.Kind = Kind;
}

void LeaseServer::closeRegion() {
  if (!RegionIsOpen)
    return;
  RegionIsOpen = false;
  std::vector<uint8_t> Frame = encodeRegionClose(Gen);
  for (size_t I = Conns.size(); I-- != 0;) {
    Conn &C = *Conns[I];
    // A settled region has no owned lease left; an early teardown hands
    // a leftover back to the runtime's retry machinery.
    if (C.Owned >= 0 && CB.Return && CB.Return(C.Owned))
      ++Stats.LeasesReturned;
    C.Owned = -1;
    if (C.HaveHello && !sendFrame(C, Frame))
      disconnect(I);
  }
  // Ack harvest: every live agent answers RegionClose with a TraceFrame
  // flush (possibly empty), so its buffered records — and any flush
  // still in flight behind its last Commit — land before the
  // region settles and emits RegionEnd. A healthy agent costs one round
  // trip; only a dead or wedged one can stall the close, by at most
  // CloseHarvestNs, and its straggler records are picked up by later
  // pumps instead.
  constexpr uint64_t CloseHarvestNs = 25'000'000; // 25 ms
  std::vector<std::pair<uint32_t, uint64_t>> Pending; // (agent, frames@close)
  for (const std::unique_ptr<Conn> &C : Conns)
    if (C->HaveHello)
      Pending.push_back({C->AgentId, C->TraceFrames});
  uint64_t Deadline = nowNs() + CloseHarvestNs;
  while (!Pending.empty() && nowNs() < Deadline) {
    pump(1);
    for (size_t I = Pending.size(); I-- != 0;) {
      const Conn *C = nullptr;
      for (const std::unique_ptr<Conn> &Cp : Conns)
        if (Cp->HaveHello && Cp->AgentId == Pending[I].first)
          C = Cp.get();
      // Gone (disconnect returned its leases) or flushed: done with it.
      if (!C || C->TraceFrames > Pending[I].second)
        Pending.erase(Pending.begin() + static_cast<long>(I));
    }
  }
}

void LeaseServer::pump(int TimeoutMs, int WakeFd) {
  grantIdle();
  std::vector<pollfd> Pfds;
  Pfds.reserve(Conns.size() + 2);
  size_t ListenAt = static_cast<size_t>(-1), WakeAt = static_cast<size_t>(-1);
  if (ListenFd >= 0) {
    ListenAt = Pfds.size();
    Pfds.push_back({ListenFd, POLLIN, 0});
  }
  if (WakeFd >= 0) {
    WakeAt = Pfds.size();
    Pfds.push_back({WakeFd, POLLIN, 0});
  }
  size_t ConnBase = Pfds.size();
  for (const std::unique_ptr<Conn> &C : Conns)
    Pfds.push_back({C->Fd, POLLIN, 0});

  int R = ::poll(Pfds.data(), Pfds.size(), TimeoutMs);
  if (R <= 0)
    return; // timeout or EINTR: the supervisor loop re-enters, and the
            // next pump grants first thing
  if (ListenAt != static_cast<size_t>(-1) && (Pfds[ListenAt].revents & POLLIN))
    acceptReady();
  (void)WakeAt; // the caller drains the eventfd after every pump
  // Walk connections back to front so disconnect()'s swap-and-pop never
  // disturbs an index we have yet to visit.
  for (size_t I = Conns.size(); I-- != 0;) {
    if (I >= Pfds.size() - ConnBase)
      continue; // accepted this round; no revents yet
    short Ev = Pfds[ConnBase + I].revents;
    if (!Ev)
      continue;
    if (!readConn(*Conns[I]))
      disconnect(I);
  }
  grantIdle();
}

void LeaseServer::grantIdle() {
  if (!RegionIsOpen || !CB.Claim)
    return;
  for (size_t I = Conns.size(); I-- != 0;) {
    Conn &C = *Conns[I];
    if (!C.HaveHello || C.Owned >= 0)
      continue;
    int64_t L = CB.Claim();
    if (L < 0)
      return; // drained (or pipeline-gated): nobody else gets one either
    C.Owned = L;
    ++Stats.RemoteLeases;
    traceHook(obs::EventKind::NetClaim, C.AgentId, 1);
    Cur.Lease = L;
    if (!sendFrame(C, encodeGrant(Cur)))
      disconnect(I); // hands the lease straight back
  }
}

void LeaseServer::acceptReady() {
  for (;;) {
    int Fd = sys::acceptConn(ListenFd);
    if (Fd < 0)
      return; // EAGAIN (drained) or an injected failure: try next pump
    // No Nagle: a Grant or RegionClose queued behind an unacknowledged
    // frame would otherwise wait out the agent's delayed ACK.
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    auto C = std::make_unique<Conn>();
    C->Fd = Fd;
    ++Stats.Accepts;
    Conns.push_back(std::move(C));
  }
}

bool LeaseServer::readConn(Conn &C) {
  uint8_t Buf[64 * 1024];
  ssize_t R = sys::recvBytes(C.Fd, Buf, sizeof(Buf));
  if (R == 0)
    return false; // orderly shutdown
  if (R < 0)
    return errno == EAGAIN; // real errors (or injected ones) drop the conn
  Stats.BytesIn += static_cast<uint64_t>(R);
  C.In.append(Buf, static_cast<size_t>(R));
  std::vector<uint8_t> Payload;
  while (C.In.next(Payload)) {
    ++Stats.Frames;
    ++Stats.RecvByType[static_cast<int>(frameType(Payload))];
    if (!handleFrame(C, Payload))
      return false;
  }
  return !C.In.corrupt();
}

bool LeaseServer::handleFrame(Conn &C, const std::vector<uint8_t> &Payload) {
  switch (frameType(Payload)) {
  case FrameType::Hello: {
    uint32_t Id = 0;
    uint64_t AgentClockNs = 0;
    if (!decodeHello(Payload, Id, AgentClockNs))
      return false;
    C.HaveHello = true;
    C.AgentId = Id;
    // One-sided offset estimate: the agent stamped its clock at send, we
    // read ours at receipt, so the estimate is high by the network
    // flight time — good enough to land agent spans inside their
    // enclosing region span on a merged timeline.
    C.ClockOffsetNs =
        static_cast<int64_t>(nowNs()) - static_cast<int64_t>(AgentClockNs);
    if (!SeenAgents.insert(Id).second)
      ++Stats.Reconnects;
    traceHook(obs::EventKind::NetAccept, Id, Gen);
    return true; // idle: the pump's next grant round serves it
  }
  case FrameType::Commit: {
    CommitMsg M;
    if (!decodeCommit(Payload, M) || !C.HaveHello)
      return false;
    // A previous region's straggler is dropped whole. Ownership is the
    // at-most-once guard: a lease this connection no longer owns was
    // returned on a disconnect or an early close and belongs to someone
    // else now — its result must not apply twice.
    if (M.Gen != Gen || C.Owned < 0 || M.Result.Lease != C.Owned)
      return true;
    C.Owned = -1;
    if (CB.Commit)
      CB.Commit(M.Result);
    return true;
  }
  case FrameType::TraceFrame: {
    std::vector<obs::TraceEvent> Evs;
    if (!decodeTraceFrame(Payload, Evs) || !C.HaveHello)
      return false;
    ++C.TraceFrames;
    Stats.TraceEvents += Evs.size();
    // Rebase each record from the agent's island-local monotonic clock
    // onto ours before the runtime merges it into the shared stream. The
    // Hello-time offset estimate is high by one network flight, so a
    // record emitted just before this frame could rebase past "now";
    // clamp to receipt time — nothing can happen after we receive it —
    // which keeps harvested agent spans inside the enclosing region span.
    uint64_t Now = nowNs();
    for (obs::TraceEvent &Ev : Evs) {
      uint64_t Ts = static_cast<uint64_t>(static_cast<int64_t>(Ev.TsNs) +
                                          C.ClockOffsetNs);
      Ev.TsNs = Ts < Now ? Ts : Now;
    }
    if (CB.TraceSink && !Evs.empty())
      CB.TraceSink(std::move(Evs));
    return true;
  }
  case FrameType::Shutdown:
  case FrameType::Grant:
  case FrameType::RegionClose:
  case FrameType::None:
    return false; // not something an agent may send
  }
  return false;
}

bool LeaseServer::sendFrame(Conn &C, const std::vector<uint8_t> &Frame) {
  bool Ok = sys::sendBytes(C.Fd, Frame.data(), Frame.size()) ==
            static_cast<ssize_t>(Frame.size());
  if (Ok)
    Stats.BytesOut += Frame.size();
  return Ok;
}

void LeaseServer::disconnect(size_t Idx) {
  Conn &C = *Conns[Idx];
  uint64_t Returned = 0;
  if (C.Owned >= 0 && CB.Return && CB.Return(C.Owned)) {
    ++Stats.LeasesReturned;
    Returned = 1;
  }
  traceHook(obs::EventKind::NetDisconnect, C.AgentId, Returned);
  ::close(C.Fd);
  Conns[Idx] = std::move(Conns.back());
  Conns.pop_back();
}

void LeaseServer::dropConnections() {
  while (!Conns.empty())
    disconnect(Conns.size() - 1);
}

void LeaseServer::broadcastShutdown() {
  std::vector<uint8_t> Frame = encodeShutdown();
  for (size_t I = Conns.size(); I-- != 0;)
    if (!sendFrame(*Conns[I], Frame))
      disconnect(I);
}

void LeaseServer::closeAll() {
  for (const std::unique_ptr<Conn> &C : Conns)
    ::close(C->Fd);
  Conns.clear();
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
}

size_t LeaseServer::ownedLeases() const {
  size_t N = 0;
  for (const std::unique_ptr<Conn> &C : Conns)
    N += C->Owned >= 0;
  return N;
}

bool LeaseServer::ownsLease(int64_t Lease) const {
  for (const std::unique_ptr<Conn> &C : Conns)
    if (C->Owned == Lease)
      return true;
  return false;
}

void LeaseServer::traceHook(obs::EventKind Kind, uint64_t A, uint64_t B) {
  if (CB.Trace)
    CB.Trace(Kind, A, B);
}
