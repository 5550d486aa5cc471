//===- net/LeaseServer.h - Tuning-side lease-range server -------*- C++ -*-===//
//
// Part of the WBTuner reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tuning process' end of the distributed lease protocol. Remote
/// sampling agents connect over TCP and say Hello; from then on the
/// server pushes each idle agent one lease at a time in a Grant frame,
/// claimed out of the same shared claim counter local pool workers race
/// on. The agent runs the sample in its own process and sends the result
/// back in a Commit frame, which makes it idle again.
///
/// The server is deliberately *threadless*: it owns non-blocking-accept
/// sockets and a poll(2) pump that the runtime's aggregate() supervisor
/// loop calls in place of its plain wait on the tuning process' own
/// child-event eventfd. One poll covers the listening socket, every agent
/// connection, and that eventfd, so the supervisor still wakes instantly
/// on local child events while also reacting to remote frames — no
/// locks, no threads, no second supervisor.
///
/// All lease-state decisions stay in the runtime via callbacks: the
/// server only enforces the protocol invariants that make remote
/// execution exactly-once — a connection owns at most one lease (a
/// commit for a lease this connection does not own is stale and
/// dropped) and the region *generation* (frames from a previous region
/// are dropped). A disconnect — orderly, reset, or a SIGKILLed agent
/// mid-frame — hands the still-owned lease back to the runtime, which
/// reuses the same retry machinery that covers crashed local workers.
///
//===----------------------------------------------------------------------===//

#ifndef WBT_NET_LEASESERVER_H
#define WBT_NET_LEASESERVER_H

#include "net/Wire.h"
#include "obs/Trace.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace wbt {
namespace net {

/// Process-local protocol counters (the server only lives in the root
/// tuning process, so plain fields suffice).
struct NetStats {
  uint64_t Accepts = 0;        ///< connections accepted
  uint64_t Reconnects = 0;     ///< Hellos from an agent id seen before
  uint64_t RemoteLeases = 0;   ///< leases granted over the wire
  uint64_t LeasesReturned = 0; ///< owned leases returned on disconnect
  uint64_t Frames = 0;         ///< complete frames received
  uint64_t BytesIn = 0;        ///< raw bytes received from agents
  uint64_t BytesOut = 0;       ///< raw bytes sent to agents
  uint64_t TraceEvents = 0;    ///< trace records harvested from agents
  uint64_t RecvByType[NumFrameTypes] = {}; ///< frames received per type
};

class LeaseServer {
public:
  struct Callbacks {
    /// Claim one lease for an idle agent, or -1 when none is claimable
    /// right now. The runtime claims the way a local worker does
    /// (returned-first, then the bounded shared counter) and must mark
    /// the lease claimed before this returns.
    std::function<int64_t()> Claim;
    /// Apply one lease result. Only called while the sending connection
    /// owns the lease; the runtime still guards with its state CAS, so
    /// a lease the region timed out is dropped, not double-counted.
    std::function<void(const LeaseResult &R)> Commit;
    /// A disconnected agent's still-owned lease. The runtime decides:
    /// return it for another worker (true) or retire it (false).
    std::function<bool(int64_t Lease)> Return;
    /// Optional trace emit hook (NetAccept/NetClaim/NetDisconnect).
    std::function<void(obs::EventKind Kind, uint64_t A, uint64_t B)> Trace;
    /// Optional sink for agent trace records (TraceFrame payloads). The
    /// events arrive already rebased onto the server's CLOCK_MONOTONIC
    /// via the connection's Hello clock offset.
    std::function<void(std::vector<obs::TraceEvent> &&Evs)> TraceSink;
  };

  explicit LeaseServer(Callbacks CB) : CB(std::move(CB)) {}
  ~LeaseServer();

  LeaseServer(const LeaseServer &) = delete;
  LeaseServer &operator=(const LeaseServer &) = delete;

  /// Binds and listens on \p Addr with an ephemeral port. False + errno
  /// on failure (the runtime then runs local-only).
  bool listen(const std::string &Addr);
  uint16_t port() const { return Port; }

  /// Opens a lease window for agents: bumps the generation and records
  /// the region identity every Grant carries. The next pump() starts
  /// granting.
  void openRegion(uint64_t TpId, uint64_t Base, uint32_t N, uint32_t Kind);
  /// Ends the window: agents are told, stale frames die on the
  /// generation check from here on. Leftover owned leases (none, unless
  /// the caller is tearing down early) are handed to Callbacks::Return.
  /// Returns once every live agent has acked the close with a TraceFrame
  /// (one round trip), or after a 25 ms bound for dead or wedged agents.
  void closeRegion();
  bool regionOpen() const { return RegionIsOpen; }
  uint64_t generation() const { return Gen; }

  /// One supervisor wait: grants idle agents a lease each, polls listen +
  /// connections + \p WakeFd for up to \p TimeoutMs, accepts, reads,
  /// and dispatches whatever is ready, then grants again to the agents
  /// whose Hello or Commit it just read. WakeFd (the tuning process'
  /// child-event eventfd) only shortens the wait; the caller drains it.
  void pump(int TimeoutMs, int WakeFd = -1);

  /// Whether the open region still has remotely owned leases — the
  /// supervisor must keep pumping instead of settling the region.
  bool busy() const { return RegionIsOpen && ownedLeases() != 0; }
  size_t ownedLeases() const;
  bool ownsLease(int64_t Lease) const;
  size_t connections() const { return Conns.size(); }
  /// Socket of connection \p I (read-only access for socket-option
  /// checks).
  int connectionFd(size_t I) const { return Conns[I]->Fd; }

  /// Deadline path: drops every connection, returning owned leases
  /// through Callbacks::Return (which, past the deadline, retires them
  /// as timed out). Agents reconnect on their own for the next region.
  void dropConnections();

  /// Best-effort Shutdown broadcast before the runtime SIGKILLs the
  /// agent processes.
  void broadcastShutdown();

  /// Closes every descriptor without running callbacks. For split
  /// children that inherited the fds but must not touch lease state.
  void closeAll();

  const NetStats &stats() const { return Stats; }

private:
  struct Conn {
    int Fd = -1;
    bool HaveHello = false;
    uint32_t AgentId = 0;
    FrameBuffer In;
    int64_t Owned = -1; ///< lease granted and not yet committed, or -1
    /// Server clock minus agent clock, estimated at Hello receipt
    /// (upper-bounds the agent clock by one network flight). Added to
    /// every TraceFrame timestamp from this connection.
    int64_t ClockOffsetNs = 0;
    /// TraceFrame frames received on this connection. closeRegion()
    /// reads it to tell when an agent's close-time flush has landed.
    uint64_t TraceFrames = 0;
  };

  void acceptReady();
  /// While a region is open, offers one lease to every connection that
  /// has said Hello and owns none.
  void grantIdle();
  /// One recv + frame dispatch round. False when the connection died.
  bool readConn(Conn &C);
  bool handleFrame(Conn &C, const std::vector<uint8_t> &Payload);
  /// False when the send failed and the caller must disconnect.
  bool sendFrame(Conn &C, const std::vector<uint8_t> &Frame);
  void disconnect(size_t Idx);
  void traceHook(obs::EventKind Kind, uint64_t A, uint64_t B);

  Callbacks CB;
  int ListenFd = -1;
  uint16_t Port = 0;
  std::vector<std::unique_ptr<Conn>> Conns;
  std::set<uint32_t> SeenAgents;
  bool RegionIsOpen = false;
  uint64_t Gen = 0;
  GrantMsg Cur; ///< the open region's identity; Lease is the last grant
  NetStats Stats;
};

} // namespace net
} // namespace wbt

#endif // WBT_NET_LEASESERVER_H
