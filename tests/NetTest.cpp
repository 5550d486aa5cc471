//===- tests/NetTest.cpp - distributed lease protocol tests ---------------===//
//
// Part of the WBTuner reproduction, MIT license.
//
// Coverage for the src/net subsystem and its Runtime integration:
//   - wire codec roundtrips (every frame type, including the Kind field
//     stratified draws need) and FrameBuffer stream reassembly under
//     split delivery, torn frames, and corrupt length prefixes,
//   - a mixed local+remote region commits bitwise-identical results to a
//     local-only run (Random and Stratified), with remote agents
//     demonstrably participating,
//   - an agent SIGKILLed mid-commit-frame leaves its leases reclaimable:
//     the run still commits every sample exactly once,
//   - injected connect/recv faults (refused connects, mid-region resets)
//     are survived through the agents' reconnect path,
//   - regionBatch() composes with remote agents: one lease window spans
//     the batch and per-region aggregates still match a local run,
//   - grants are pushed: an agent that has only said Hello is granted a
//     lease without asking, owns at most one at a time, and a commit for
//     a lease it does not own never applies,
//   - agents do not stall a region: both ends of a lease connection
//     turn Nagle's algorithm off, every RegionClose is acked even with
//     tracing off, every grant is exactly one lease, and finish() waits
//     for the agents' EOFs rather than a fixed pump window,
//   - agents run only the body they were forked with: a region with
//     another body runs on the local workers.
//
// Runtime scenarios run in forked children because the runtime is a
// per-process singleton.
//
//===----------------------------------------------------------------------===//

#include "net/AgentChannel.h"
#include "net/HostPort.h"
#include "net/LeaseServer.h"
#include "net/Wire.h"
#include "proc/Runtime.h"
#include "strategy/SamplingStrategy.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

using namespace wbt;
using namespace wbt::net;
using namespace wbt::proc;

//===----------------------------------------------------------------------===//
// Wire codec
//===----------------------------------------------------------------------===//

namespace {

/// Strips the 4-byte length prefix off a complete frame.
std::vector<uint8_t> payloadOf(const std::vector<uint8_t> &Frame) {
  EXPECT_GE(Frame.size(), 4u);
  return std::vector<uint8_t>(Frame.begin() + 4, Frame.end());
}

} // namespace

TEST(WireTest, HelloRoundtrip) {
  std::vector<uint8_t> P = payloadOf(encodeHello(7, 123456789ull));
  EXPECT_EQ(frameType(P), FrameType::Hello);
  uint32_t Id = 0;
  uint64_t ClockNs = 0;
  ASSERT_TRUE(decodeHello(P, Id, ClockNs));
  EXPECT_EQ(Id, 7u);
  EXPECT_EQ(ClockNs, 123456789ull); // clock-offset estimation needs it intact
}

TEST(WireTest, TraceFrameRoundtrip) {
  std::vector<obs::TraceEvent> Evs;
  obs::TraceEvent Ev{};
  Ev.TsNs = 0x1122334455667788ull;
  Ev.Pid = 4242;
  Ev.Kind = uint16_t(obs::EventKind::LeaseBegin);
  Ev.Arg = 7;
  Ev.A = 99;
  Ev.B = 0xDEADBEEFCAFEF00Dull;
  Evs.push_back(Ev);
  Ev.Kind = uint16_t(obs::EventKind::NetCommitFrame);
  Ev.TsNs += 1000;
  Evs.push_back(Ev);

  std::vector<uint8_t> P = payloadOf(encodeTraceFrame(Evs));
  EXPECT_EQ(frameType(P), FrameType::TraceFrame);
  std::vector<obs::TraceEvent> Out;
  ASSERT_TRUE(decodeTraceFrame(P, Out));
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_EQ(Out[0].TsNs, 0x1122334455667788ull);
  EXPECT_EQ(Out[0].Pid, 4242);
  EXPECT_EQ(Out[0].Kind, uint16_t(obs::EventKind::LeaseBegin));
  EXPECT_EQ(Out[0].Arg, 7);
  EXPECT_EQ(Out[0].A, 99u);
  EXPECT_EQ(Out[0].B, 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(Out[1].Kind, uint16_t(obs::EventKind::NetCommitFrame));
}

TEST(WireTest, TraceFrameRejectsOverclaimedCount) {
  // A count field larger than the payload can hold must fail the decode
  // instead of sizing a buffer from attacker-controlled bytes.
  std::vector<obs::TraceEvent> Evs(1);
  std::vector<uint8_t> P = payloadOf(encodeTraceFrame(Evs));
  uint32_t Huge = 0x10000000;
  std::memcpy(&P[1], &Huge, sizeof(Huge)); // count sits after the type byte
  std::vector<obs::TraceEvent> Out;
  EXPECT_FALSE(decodeTraceFrame(P, Out));
}

TEST(WireTest, GrantRoundtrip) {
  GrantMsg M;
  M.Gen = 3;
  M.TpId = 0xDEADBEEF;
  M.Base = 42;
  M.N = 8;
  M.Kind = 1; // SamplingKind::Stratified — remote draws need it
  M.Lease = 0x123456789ll;
  std::vector<uint8_t> P = payloadOf(encodeGrant(M));
  EXPECT_EQ(frameType(P), FrameType::Grant);
  GrantMsg Out;
  ASSERT_TRUE(decodeGrant(P, Out));
  EXPECT_EQ(Out.Gen, 3u);
  EXPECT_EQ(Out.TpId, 0xDEADBEEFu);
  EXPECT_EQ(Out.Base, 42u);
  EXPECT_EQ(Out.N, 8u);
  EXPECT_EQ(Out.Kind, 1u);
  EXPECT_EQ(Out.Lease, 0x123456789ll);
}

TEST(WireTest, GrantRejectsEmptyRegion) {
  GrantMsg M;
  M.Gen = 1;
  M.N = 0; // a region with no samples is a protocol error
  M.Lease = 0;
  GrantMsg Out;
  EXPECT_FALSE(decodeGrant(payloadOf(encodeGrant(M)), Out));
  M.N = 4;
  M.Lease = -1; // so is a grant of no lease
  EXPECT_FALSE(decodeGrant(payloadOf(encodeGrant(M)), Out));
}

TEST(WireTest, CommitRoundtrip) {
  CommitMsg M;
  M.Gen = 4;
  M.Result.Lease = 17;
  M.Result.Outcome = LeaseOutcome::Committed;
  M.Result.Vars.push_back({"score", {1, 2, 3, 4}});
  M.Result.Vars.push_back({"mask", {0xFF}});

  CommitMsg Out;
  ASSERT_TRUE(decodeCommit(payloadOf(encodeCommit(M)), Out));
  EXPECT_EQ(Out.Gen, 4u);
  EXPECT_EQ(Out.Result.Lease, 17);
  EXPECT_EQ(Out.Result.Outcome, LeaseOutcome::Committed);
  ASSERT_EQ(Out.Result.Vars.size(), 2u);
  EXPECT_EQ(Out.Result.Vars[0].Name, "score");
  EXPECT_EQ(Out.Result.Vars[0].Bytes, (std::vector<uint8_t>{1, 2, 3, 4}));
  EXPECT_EQ(Out.Result.Vars[1].Name, "mask");
  EXPECT_EQ(Out.Result.Vars[1].Bytes, (std::vector<uint8_t>{0xFF}));

  CommitMsg Pruned;
  Pruned.Gen = 4;
  Pruned.Result.Lease = 18;
  Pruned.Result.Outcome = LeaseOutcome::Pruned;
  ASSERT_TRUE(decodeCommit(payloadOf(encodeCommit(Pruned)), Out));
  EXPECT_EQ(Out.Result.Lease, 18);
  EXPECT_EQ(Out.Result.Outcome, LeaseOutcome::Pruned);
  EXPECT_TRUE(Out.Result.Vars.empty());
}

TEST(WireTest, CommitRejectsUnknownOutcome) {
  CommitMsg M;
  M.Result.Lease = 0;
  M.Result.Outcome = LeaseOutcome::Committed;
  std::vector<uint8_t> P = payloadOf(encodeCommit(M));
  // Payload layout: type(1) + gen(8) + lease(8) = 17 bytes before the
  // outcome byte. Anything outside {Committed, Pruned} there must fail
  // the decode, not come back as a garbage enum.
  ASSERT_GT(P.size(), 17u);
  ASSERT_EQ(P[17], static_cast<uint8_t>(LeaseOutcome::Committed));
  P[17] = 9;
  CommitMsg Out;
  EXPECT_FALSE(decodeCommit(P, Out));
}

TEST(WireTest, ControlFrames) {
  uint64_t Gen = 0;
  ASSERT_TRUE(decodeRegionClose(payloadOf(encodeRegionClose(12)), Gen));
  EXPECT_EQ(Gen, 12u);
  EXPECT_EQ(frameType(payloadOf(encodeShutdown())), FrameType::Shutdown);
  EXPECT_EQ(frameType({}), FrameType::None);
  EXPECT_EQ(frameType({99}), FrameType::None);
}

TEST(FrameBufferTest, SplitDeliveryReassembles) {
  // Two frames drip-fed one byte at a time — the worst case a short
  // recv can produce — must come out whole and in order.
  std::vector<uint8_t> Stream = encodeHello(1, 11);
  std::vector<uint8_t> Second = encodeRegionClose(5);
  Stream.insert(Stream.end(), Second.begin(), Second.end());

  FrameBuffer B;
  std::vector<std::vector<uint8_t>> Got;
  std::vector<uint8_t> P;
  for (uint8_t Byte : Stream) {
    B.append(&Byte, 1);
    while (B.next(P))
      Got.push_back(P);
  }
  ASSERT_EQ(Got.size(), 2u);
  EXPECT_EQ(frameType(Got[0]), FrameType::Hello);
  EXPECT_EQ(frameType(Got[1]), FrameType::RegionClose);
  EXPECT_EQ(B.buffered(), 0u);
}

TEST(FrameBufferTest, TornFrameNeverCompletes) {
  std::vector<uint8_t> Frame = encodeHello(2, 22);
  FrameBuffer B;
  B.append(Frame.data(), Frame.size() - 1); // half-written frame
  std::vector<uint8_t> P;
  EXPECT_FALSE(B.next(P));
  EXPECT_FALSE(B.corrupt()); // torn, not garbage: more bytes may come
  B.append(&Frame[Frame.size() - 1], 1);
  EXPECT_TRUE(B.next(P));
  EXPECT_EQ(frameType(P), FrameType::Hello);
}

TEST(FrameBufferTest, OversizedLengthIsCorrupt) {
  // A torn prefix read as garbage claims a frame bigger than any real
  // message; the stream is dead, not merely incomplete.
  uint32_t Len = MaxFrameBytes + 1;
  uint8_t Prefix[4];
  std::memcpy(Prefix, &Len, sizeof(Len));
  FrameBuffer B;
  B.append(Prefix, sizeof(Prefix));
  std::vector<uint8_t> P;
  EXPECT_FALSE(B.next(P));
  EXPECT_TRUE(B.corrupt());
}

//===----------------------------------------------------------------------===//
// Lease connections
//===----------------------------------------------------------------------===//

namespace {

/// TCP_NODELAY as getsockopt(2) reads it back on \p Fd; -1 on error.
int noDelayOf(int Fd) {
  int V = 0;
  socklen_t Len = sizeof(V);
  if (getsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &V, &Len) != 0)
    return -1;
  return V;
}

} // namespace

// Small frames (a Grant, a close ack) must not wait behind an
// unacknowledged frame for the peer's delayed ACK: both ends of every
// lease connection send without Nagle's algorithm.
TEST(LeaseConnectionTest, BothEndsDisableNagle) {
  LeaseServer Server{LeaseServer::Callbacks{}};
  ASSERT_TRUE(Server.listen("127.0.0.1"));
  AgentChannel Chan("127.0.0.1", Server.port(), /*AgentId=*/1);
  ASSERT_TRUE(Chan.ensureConnected());
  for (int I = 0; I != 100 && Server.connections() == 0; ++I)
    Server.pump(10);
  ASSERT_EQ(Server.connections(), 1u);
  EXPECT_GT(noDelayOf(Chan.fd()), 0);
  EXPECT_GT(noDelayOf(Server.connectionFd(0)), 0);
}

namespace {

/// The agent's next frame, or an empty payload when none arrives within
/// \p Sec seconds (or the connection died).
std::vector<uint8_t> nextFrame(AgentChannel &Chan, int Sec) {
  timeval Tv{Sec, 0};
  setsockopt(Chan.fd(), SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
  std::vector<uint8_t> P;
  if (!Chan.recvFrame(P))
    P.clear();
  return P;
}

/// Whether the agent's socket has bytes waiting right now.
bool readable(const AgentChannel &Chan) {
  pollfd Pfd{Chan.fd(), POLLIN, 0};
  return poll(&Pfd, 1, 0) > 0;
}

/// A Commit frame for \p Lease of generation \p Gen, with no variables.
std::vector<uint8_t> commitFrame(uint64_t Gen, int64_t Lease) {
  CommitMsg M;
  M.Gen = Gen;
  M.Result.Lease = Lease;
  M.Result.Outcome = LeaseOutcome::Committed;
  return encodeCommit(M);
}

} // namespace

// The server pushes work: an agent that has only said Hello is granted a
// lease without asking, holds at most one at a time, is granted the next
// once it commits, and a commit for a lease it does not own is dropped.
TEST(LeaseConnectionTest, IdleAgentIsGrantedWithoutAsking) {
  int64_t Next = 0;
  std::vector<int64_t> Committed;
  LeaseServer::Callbacks CB;
  CB.Claim = [&]() -> int64_t { return Next < 3 ? Next++ : -1; };
  CB.Commit = [&](const LeaseResult &R) { Committed.push_back(R.Lease); };
  LeaseServer Server(std::move(CB));
  ASSERT_TRUE(Server.listen("127.0.0.1"));
  Server.openRegion(/*TpId=*/5, /*Base=*/2, /*N=*/4, /*Kind=*/1);
  AgentChannel Chan("127.0.0.1", Server.port(), /*AgentId=*/1);
  ASSERT_TRUE(Chan.ensureConnected()); // sends its Hello and nothing else
  for (int I = 0; I != 100 && Server.ownedLeases() == 0; ++I)
    Server.pump(10);

  std::vector<uint8_t> P = nextFrame(Chan, 2);
  ASSERT_EQ(frameType(P), FrameType::Grant);
  GrantMsg G;
  ASSERT_TRUE(decodeGrant(P, G));
  EXPECT_EQ(G.Lease, 0);
  EXPECT_EQ(G.Gen, Server.generation());
  EXPECT_EQ(G.TpId, 5u);
  EXPECT_EQ(G.Base, 2u);
  EXPECT_EQ(G.N, 4u);
  EXPECT_EQ(G.Kind, 1u);

  // Busy with lease 0: more pumps grant nothing more.
  for (int I = 0; I != 5; ++I)
    Server.pump(5);
  EXPECT_FALSE(readable(Chan));
  EXPECT_EQ(Next, 1);
  EXPECT_EQ(Server.ownedLeases(), 1u);

  // Its commit is its next claim.
  ASSERT_TRUE(Chan.sendFrame(commitFrame(G.Gen, 0)));
  for (int I = 0; I != 100 && Committed.empty(); ++I)
    Server.pump(10);
  ASSERT_EQ(Committed, (std::vector<int64_t>{0}));
  P = nextFrame(Chan, 2);
  ASSERT_TRUE(decodeGrant(P, G));
  EXPECT_EQ(G.Lease, 1);

  // Commits for leases it does not own — one never granted, one already
  // committed — never reach the runtime, and it keeps lease 1.
  ASSERT_TRUE(Chan.sendFrame(commitFrame(G.Gen, 2)));
  ASSERT_TRUE(Chan.sendFrame(commitFrame(G.Gen, 0)));
  for (int I = 0; I != 100 && Server.stats().Frames < 4; ++I)
    Server.pump(10);
  EXPECT_EQ(Server.stats().Frames, 4u); // Hello and three Commits
  EXPECT_EQ(Committed, (std::vector<int64_t>{0}));
  EXPECT_TRUE(Server.ownsLease(1));
  EXPECT_EQ(Next, 2);
}

//===----------------------------------------------------------------------===//
// Runtime integration scenarios
//===----------------------------------------------------------------------===//

namespace {

/// Runs \p Scenario in a forked child; returns its exit code. Own
/// process group so abandoned agents die with the scenario.
int runScenario(int (*Scenario)()) {
  pid_t Pid = fork();
  if (Pid == 0) {
    setpgid(0, 0);
    _exit(Scenario());
  }
  int Status = 0;
  waitpid(Pid, &Status, 0);
  kill(-Pid, SIGKILL);
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : 200;
}

#define CHECK_OR(COND, CODE)                                                   \
  do {                                                                         \
    if (!(COND))                                                               \
      return CODE;                                                             \
  } while (false)

/// Sampling kind for the equivalence scenarios, snapshotted by fork(2).
int GNetKind = 0;

/// One pool region of N samples, optionally with remote agents racing
/// the local worker for leases. A single slow local worker guarantees
/// the agents win some claims, so the net run genuinely mixes local and
/// remote commits. Fresh init/finish per call: both runs replay the
/// same (seed, tp, region, index) streams.
int collectNetValues(unsigned Agents, std::vector<double> &Out,
                     obs::RuntimeMetrics &M) {
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 77;
  Opts.Backend = StoreBackend::Shm;
  Opts.NetAgents = Agents;
  Rt.init(Opts);

  const int N = 24;
  Out.assign(N, -1.0);
  RegionOptions Ro;
  Ro.Kind = static_cast<SamplingKind>(GNetKind);
  Ro.Workers = 1;
  Rt.samplingRegion(N, Ro, [&] {
    double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
    double Y = Rt.sample("y", Distribution::logUniform(1e-3, 1e3));
    if (Rt.isSampling()) {
      usleep(1000); // slow leases: remote claims land before the drain
      Rt.aggregate("x", encodeDouble(X * Y), nullptr);
    }
    Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
      for (int I : V.committed("x"))
        Out[I] = V.loadDouble("x", I);
    });
  });
  M = Rt.metrics();
  Rt.finish();
  for (double V : Out)
    CHECK_OR(V >= 0.0, 2);
  return 0;
}

int scenarioNetMatchesLocal() {
  std::vector<double> Local, Mixed;
  obs::RuntimeMetrics Ml, Mn;
  CHECK_OR(collectNetValues(0, Local, Ml) == 0, 3);
  CHECK_OR(collectNetValues(4, Mixed, Mn) == 0, 4);
  // Remote agents actually ran leases — otherwise this proves nothing.
  CHECK_OR(Mn.NetAgents == 4, 5);
  CHECK_OR(Mn.NetRemoteLeases > 0, 6);
  CHECK_OR(Mn.NetFrames > 0, 7);
  // Byte and per-frame-type accounting moved with the traffic: frames
  // imply bytes both ways. The conversation shape: agents say Hello, send
  // one Commit per lease they were granted, and otherwise only
  // TraceFrames; they never ask for work.
  CHECK_OR(Mn.NetBytesIn > 0, 8);
  CHECK_OR(Mn.NetBytesOut > 0, 9);
  CHECK_OR(Mn.NetRecvHello > 0, 40);
  CHECK_OR(Mn.NetRecvCommit > 0, 41);
  CHECK_OR(Mn.NetRecvCommit == Mn.NetRemoteLeases, 42);
  CHECK_OR(Mn.NetRecvHello + Mn.NetRecvCommit + Mn.NetRecvTrace ==
               Mn.NetFrames,
           43);
  // The local-only run kept the lease server down: nothing may count.
  CHECK_OR(Ml.NetBytesIn == 0 && Ml.NetBytesOut == 0, 44);
  for (size_t I = 0; I != Local.size(); ++I)
    CHECK_OR(Mixed[I] == Local[I], 10 + static_cast<int>(I)); // bitwise
  return 0;
}

int scenarioNetAgentKillExactlyOnce() {
  // Every agent SIGKILLs itself right before sending its first commit
  // frame (the injected kill fires on the tp.net.frame emit, after the
  // leases ran but before a byte hits the wire). The server sees the
  // dead connections, hands every owned lease back through the one-retry
  // machinery, and the local worker re-runs them: no sample may be lost
  // and none may commit twice.
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 78;
  Opts.Backend = StoreBackend::Shm;
  Opts.NetAgents = 2;
  Opts.InjectPlan = "tp.net.frame@n1:kill";
  Rt.init(Opts);

  const int N = 24;
  std::vector<int> Commits(N, 0);
  int Spawned = -1;
  RegionOptions Ro;
  Ro.Workers = 1;
  Rt.samplingRegion(N, Ro, [&] {
    double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
    if (Rt.isSampling()) {
      usleep(1000);
      Rt.aggregate("x", encodeDouble(X), nullptr);
    }
    Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
      Spawned = V.spawned();
      for (int I : V.committed("x"))
        ++Commits[I];
    });
  });
  obs::RuntimeMetrics M = Rt.metrics();
  Rt.finish();

  CHECK_OR(Spawned == N, 2);
  for (int I = 0; I != N; ++I)
    CHECK_OR(Commits[I] == 1, 10 + I); // exactly once, every index
  // The kill must actually have happened: the dead agents' leases came
  // back and were re-run.
  CHECK_OR(M.NetLeasesReturned > 0, 3);
  CHECK_OR(M.LeaseReclaims > 0, 4);
  CHECK_OR(M.TimedOutSamples == 0, 5);
  return 0;
}

int scenarioNetConnectRefusedRetries() {
  // Each agent's first connect(2) is refused by injection; the reconnect
  // backoff retries and the run proceeds with full remote participation.
  // Only agents call connect, so the clause never fires elsewhere.
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 79;
  Opts.Backend = StoreBackend::Shm;
  Opts.NetAgents = 2;
  Opts.InjectPlan = "connect@n1:ECONNREFUSED";
  Rt.init(Opts);

  const int N = 24;
  std::vector<double> Got(N, -1.0);
  RegionOptions Ro;
  Ro.Workers = 1;
  Rt.samplingRegion(N, Ro, [&] {
    double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
    if (Rt.isSampling()) {
      usleep(1000);
      Rt.aggregate("x", encodeDouble(X), nullptr);
    }
    Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
      for (int I : V.committed("x"))
        Got[I] = V.loadDouble("x", I);
    });
  });
  obs::RuntimeMetrics M = Rt.metrics();
  Rt.finish();

  for (int I = 0; I != N; ++I)
    CHECK_OR(Got[I] >= 0.0, 10 + I);
  CHECK_OR(M.NetRemoteLeases > 0, 2); // the retry made it through
  return 0;
}

int scenarioNetRecvResetReconnects() {
  // Every process' sixth recv(2) returns ECONNRESET: the server drops an
  // agent mid-region (returning its leases) and agents lose connections
  // mid-wait. With most of the region still to run, the dropped agents
  // reconnect — a second Hello from a known agent id — and keep
  // claiming. The region must settle with every sample exactly once.
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 80;
  Opts.Backend = StoreBackend::Shm;
  Opts.NetAgents = 2;
  Opts.InjectPlan = "recv@n6:ECONNRESET";
  Rt.init(Opts);

  const int N = 48;
  std::vector<int> Commits(N, 0);
  RegionOptions Ro;
  Ro.Workers = 1;
  Rt.samplingRegion(N, Ro, [&] {
    double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
    if (Rt.isSampling()) {
      usleep(2000);
      Rt.aggregate("x", encodeDouble(X), nullptr);
    }
    Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
      for (int I : V.committed("x"))
        ++Commits[I];
    });
  });
  obs::RuntimeMetrics M = Rt.metrics();
  Rt.finish();

  for (int I = 0; I != N; ++I)
    CHECK_OR(Commits[I] == 1, 10 + I);
  CHECK_OR(M.NetReconnects > 0, 2);
  CHECK_OR(M.NetRemoteLeases > 0, 3);
  return 0;
}

/// One pipelined batch (one lease window spanning every region) with and
/// without remote agents; collects each delivered region's draws.
int runNetBatch(unsigned Agents, std::vector<std::vector<double>> &Out) {
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 81;
  Opts.Backend = StoreBackend::Shm;
  Opts.NetAgents = Agents;
  Rt.init(Opts);

  const int Regions = 4, N = 8;
  Out.clear();
  RegionOptions Ro;
  Ro.Workers = 2;
  Ro.Pipeline = 2;
  Rt.regionBatch(Regions, N, Ro, [&] {
    double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
    if (Rt.isSampling()) {
      usleep(500);
      Rt.aggregate("x", encodeDouble(X), nullptr);
    }
    Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
      std::vector<double> Region(N, -1.0);
      if (V.spawned() != N)
        _exit(40);
      for (int I : V.committed("x"))
        Region[I] = V.loadDouble("x", I);
      Out.push_back(std::move(Region));
    });
  });
  obs::RuntimeMetrics M = Rt.metrics();
  Rt.finish();

  CHECK_OR(Out.size() == static_cast<size_t>(Regions), 2);
  for (const std::vector<double> &R : Out)
    for (double V : R)
      CHECK_OR(V >= 0.0, 3);
  if (Agents)
    CHECK_OR(M.NetRemoteLeases > 0, 4);
  return 0;
}

/// Pulls `"key": <number>` out of one exported trace record line.
/// Returns false when the key is absent.
bool jsonNumField(const std::string &Line, const char *Key, double &Out) {
  std::string Pat = std::string("\"") + Key + "\": ";
  size_t Pos = Line.find(Pat);
  if (Pos == std::string::npos)
    return false;
  Out = std::strtod(Line.c_str() + Pos + Pat.size(), nullptr);
  return true;
}

/// Reads an exported trace file line by line. False when it is missing.
bool readTraceLines(const std::string &Path, std::vector<std::string> &Lines) {
  std::FILE *F = std::fopen(Path.c_str(), "r");
  if (!F)
    return false;
  std::string Cur;
  int C;
  while ((C = std::fgetc(F)) != EOF) {
    if (C == '\n') {
      Lines.push_back(Cur);
      Cur.clear();
    } else {
      Cur += static_cast<char>(C);
    }
  }
  if (!Cur.empty())
    Lines.push_back(Cur);
  std::fclose(F);
  return true;
}

/// Distributed trace correlation: a 4-agent region with tracing on must
/// export a merged timeline where (a) agent pids get their own "agent"
/// tracks and (b) every agent record's (clock-offset-rebased) timestamp
/// falls inside the enclosing region span of the tuning track.
int scenarioNetTraceCorrelation() {
  std::string TracePath =
      "/tmp/wbt-nettrace-" + std::to_string(getpid()) + ".json";
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 82;
  Opts.Backend = StoreBackend::Shm;
  Opts.NetAgents = 4;
  Opts.TracePath = TracePath;
  Rt.init(Opts);

  const int N = 24;
  RegionOptions Ro;
  Ro.Workers = 1;
  Rt.samplingRegion(N, Ro, [&] {
    double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
    if (Rt.isSampling()) {
      usleep(1000);
      Rt.aggregate("x", encodeDouble(X), nullptr);
    }
    Rt.aggregate("x", encodeDouble(0), nullptr);
  });
  obs::RuntimeMetrics M = Rt.metrics();
  Rt.finish();

  CHECK_OR(M.NetRemoteLeases > 0, 2);
  // At least one TraceFrame batch was harvested over the wire.
  CHECK_OR(M.NetRecvTrace > 0, 3);

  std::vector<std::string> Lines;
  CHECK_OR(readTraceLines(TracePath, Lines), 4);
  std::remove(TracePath.c_str());

  // Pass 1: agent pids (process_name metadata) and the region span.
  std::vector<double> AgentPids;
  double RegionB = -1, RegionE = -1;
  for (const std::string &L : Lines) {
    double Pid, Ts;
    if (L.find("\"process_name\"") != std::string::npos &&
        L.find("{\"name\": \"agent\"}") != std::string::npos &&
        jsonNumField(L, "pid", Pid))
      AgentPids.push_back(Pid);
    if (L.find("\"name\": \"region\"") != std::string::npos &&
        jsonNumField(L, "ts", Ts)) {
      if (L.find("\"ph\": \"B\"") != std::string::npos)
        RegionB = RegionB < 0 ? Ts : RegionB;
      if (L.find("\"ph\": \"E\"") != std::string::npos)
        RegionE = Ts > RegionE ? Ts : RegionE;
    }
  }
  CHECK_OR(!AgentPids.empty(), 5);
  CHECK_OR(RegionB >= 0 && RegionE > RegionB, 6);

  // Pass 2: every agent record sits inside the region span. Agent events
  // are emitted between region open and the close harvest, and the
  // server clamps rebased timestamps to frame-receipt time (the offset
  // estimate is high by one network flight), so containment is exact.
  int AgentRecords = 0;
  for (const std::string &L : Lines) {
    double Pid, Ts;
    if (!jsonNumField(L, "pid", Pid) || !jsonNumField(L, "ts", Ts))
      continue;
    if (L.find("\"process_name\"") != std::string::npos)
      continue; // metadata rides at ts 0
    bool IsAgent = false;
    for (double P : AgentPids)
      IsAgent |= P == Pid;
    if (!IsAgent)
      continue;
    ++AgentRecords;
    CHECK_OR(Ts >= RegionB && Ts <= RegionE, 7);
  }
  CHECK_OR(AgentRecords > 0, 8);
  return 0;
}

/// The agent path's stall regressions run on this shape: a few
/// 12-sample samplingRegion()s with ~2 ms bodies on one local worker
/// and two agents, which are granted one lease at a time. Every measured
/// sample must commit exactly once. With tracing off, every
/// RegionClose must come back acked by both agents (TraceFrames are
/// then close acks only); an ack that missed its close's 25 ms harvest
/// is read by a later pump, so one-sample regions keep the server
/// pumping until the count is in or the attempts run out.
int runAckedRegions(const std::string &TracePath, obs::RuntimeMetrics &M) {
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 83;
  Opts.Backend = StoreBackend::Shm;
  Opts.NetAgents = 2;
  Opts.TracePath = TracePath;
  Rt.init(Opts);

  const int Regions = 4, N = 12;
  std::vector<int> Commits;
  RegionOptions Ro;
  Ro.Workers = 1;
  auto Body = [&] {
    double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
    if (Rt.isSampling()) {
      usleep(2000);
      Rt.aggregate("x", encodeDouble(X), nullptr);
    }
    Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
      for (int I : V.committed("x"))
        ++Commits[I];
    });
  };
  for (int R = 0; R != Regions; ++R) {
    Commits.assign(N, 0);
    Rt.samplingRegion(N, Ro, Body);
    for (int C : Commits)
      CHECK_OR(C == 1, 10 + R);
  }
  M = Rt.metrics();
  if (TracePath.empty())
    for (int Extra = 0; Extra != 40 && M.NetRecvTrace < 2u * Regions;
         ++Extra) {
      Commits.assign(1, 0);
      Rt.samplingRegion(1, Ro, Body);
      M = Rt.metrics();
    }
  Rt.finish();
  CHECK_OR(M.NetRemoteLeases > 0, 2);
  return 0;
}

int scenarioNetCloseAckedGrantShared() {
  obs::RuntimeMetrics M;
  int Rc = runAckedRegions("", M);
  CHECK_OR(Rc == 0, Rc);
  CHECK_OR(M.NetRecvTrace >= 2u * 4, 3);

  std::string TracePath =
      "/tmp/wbt-netshare-" + std::to_string(getpid()) + ".json";
  Rc = runAckedRegions(TracePath, M);
  CHECK_OR(Rc == 0, Rc + 20);
  std::vector<std::string> Lines;
  CHECK_OR(readTraceLines(TracePath, Lines), 4);
  std::remove(TracePath.c_str());
  // Every grant (net-claim b = leases granted) is exactly one lease, so
  // agents and the local worker self-schedule lease by lease.
  int Grants = 0;
  for (const std::string &L : Lines) {
    double B;
    if (L.find("\"name\": \"net-claim\"") == std::string::npos)
      continue;
    CHECK_OR(jsonNumField(L, "b", B), 5);
    CHECK_OR(B == 1, 6);
    ++Grants;
  }
  CHECK_OR(Grants > 0, 7);
  return 0;
}

/// CLOCK_MONOTONIC now, in seconds.
double monoSeconds() {
  timespec T;
  clock_gettime(CLOCK_MONOTONIC, &T);
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_nsec) * 1e-9;
}

/// finish() broadcasts Shutdown and pumps only until both agents' EOFs
/// have closed their connections, so it is not a fixed 10 ms pump
/// window: of ten init() -> samplingRegion(4) -> finish() cycles with
/// two agents, at most one finish() may take 10 ms or more.
int scenarioNetFinishWaitsForAgents() {
  int Slow = 0;
  for (int Cycle = 0; Cycle != 10; ++Cycle) {
    Runtime &Rt = Runtime::get();
    RuntimeOptions Opts;
    Opts.MaxPool = 8;
    Opts.Seed = 84;
    Opts.Backend = StoreBackend::Shm;
    Opts.NetAgents = 2;
    Rt.init(Opts);
    RegionOptions Ro;
    Ro.Workers = 1;
    Rt.samplingRegion(4, Ro, [&] {
      double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
      if (Rt.isSampling()) {
        usleep(2000);
        Rt.aggregate("x", encodeDouble(X), nullptr);
      }
      Rt.aggregate("x", encodeDouble(0), nullptr);
    });
    double T0 = monoSeconds();
    Rt.finish();
    Slow += monoSeconds() - T0 >= 0.010;
  }
  CHECK_OR(Slow <= 1, 2);
  return 0;
}

/// Agents are forked with the first pool region's body. A second region
/// with another body (it commits 2.0 where the first commits 1.0) must
/// run every lease on the local worker: agents running it would commit
/// their own body's 1.0.
int scenarioNetAgentsRunOnlyTheirOwnBody() {
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 85;
  Opts.Backend = StoreBackend::Shm;
  Opts.NetAgents = 2;
  Rt.init(Opts);

  const int N = 12;
  RegionOptions Ro;
  Ro.Workers = 1;
  std::vector<double> First(N, -1.0), Second(N, -1.0);
  Rt.samplingRegion(N, Ro, [&] {
    if (Rt.isSampling()) {
      usleep(2000);
      Rt.aggregate("v", encodeDouble(1.0), nullptr);
    }
    Rt.aggregate("v", encodeDouble(0), [&](AggregationView &V) {
      for (int I : V.committed("v"))
        First[I] = V.loadDouble("v", I);
    });
  });
  uint64_t RemoteAfterFirst = Rt.metrics().NetRemoteLeases;
  Rt.samplingRegion(N, Ro, [&] {
    if (Rt.isSampling()) {
      usleep(2000);
      Rt.aggregate("v", encodeDouble(2.0), nullptr);
    }
    Rt.aggregate("v", encodeDouble(0), [&](AggregationView &V) {
      for (int I : V.committed("v"))
        Second[I] = V.loadDouble("v", I);
    });
  });
  obs::RuntimeMetrics M = Rt.metrics();
  Rt.finish();

  CHECK_OR(RemoteAfterFirst > 0, 2); // the agents ran the first body
  for (double V : First)
    CHECK_OR(V == 1.0, 3);
  for (int I = 0; I != N; ++I)
    CHECK_OR(Second[I] == 2.0, 10 + I);
  CHECK_OR(M.NetRemoteLeases == RemoteAfterFirst, 4);
  return 0;
}

int scenarioNetBatchMatchesLocal() {
  std::vector<std::vector<double>> Local, Mixed;
  CHECK_OR(runNetBatch(0, Local) == 0, 5);
  int Rc = runNetBatch(3, Mixed);
  CHECK_OR(Rc == 0, Rc);
  for (size_t R = 0; R != Local.size(); ++R)
    for (size_t I = 0; I != Local[R].size(); ++I)
      CHECK_OR(Mixed[R][I] == Local[R][I],
               static_cast<int>(10 + R)); // bitwise per region
  return 0;
}

} // namespace

TEST(NetRuntimeTest, MixedRegionMatchesLocalRandom) {
  GNetKind = static_cast<int>(SamplingKind::Random);
  EXPECT_EQ(runScenario(scenarioNetMatchesLocal), 0);
}

TEST(NetRuntimeTest, MixedRegionMatchesLocalStratified) {
  GNetKind = static_cast<int>(SamplingKind::Stratified);
  EXPECT_EQ(runScenario(scenarioNetMatchesLocal), 0);
}

TEST(NetRuntimeTest, AgentKilledMidFrameLosesNoLeases) {
  EXPECT_EQ(runScenario(scenarioNetAgentKillExactlyOnce), 0);
}

TEST(NetRuntimeTest, ConnectRefusedIsRetried) {
  EXPECT_EQ(runScenario(scenarioNetConnectRefusedRetries), 0);
}

TEST(NetRuntimeTest, RecvResetReconnectsMidRegion) {
  EXPECT_EQ(runScenario(scenarioNetRecvResetReconnects), 0);
}

TEST(NetRuntimeTest, BatchWithAgentsMatchesLocal) {
  EXPECT_EQ(runScenario(scenarioNetBatchMatchesLocal), 0);
}

TEST(NetRuntimeTest, AgentTraceRecordsCorrelateIntoRegionSpan) {
  EXPECT_EQ(runScenario(scenarioNetTraceCorrelation), 0);
}

TEST(NetRuntimeTest, EveryCloseAckedAndGrantsShared) {
  EXPECT_EQ(runScenario(scenarioNetCloseAckedGrantShared), 0);
}

TEST(NetRuntimeTest, FinishWaitsForAgentsNotAClock) {
  EXPECT_EQ(runScenario(scenarioNetFinishWaitsForAgents), 0);
}

TEST(NetRuntimeTest, AgentsRunOnlyTheirOwnBody) {
  EXPECT_EQ(runScenario(scenarioNetAgentsRunOnlyTheirOwnBody), 0);
}

//===----------------------------------------------------------------------===//
// host:port parsing (net/HostPort.h)
//===----------------------------------------------------------------------===//

TEST(HostPortTest, AcceptsStrictAddresses) {
  std::string Host;
  uint16_t Port = 0;
  ASSERT_TRUE(net::parseHostPort("127.0.0.1:9464", Host, Port));
  EXPECT_EQ(Host, "127.0.0.1");
  EXPECT_EQ(Port, 9464);
  // Port 0 is an explicit ephemeral-port request, not a parse accident.
  ASSERT_TRUE(net::parseHostPort("0.0.0.0:0", Host, Port));
  EXPECT_EQ(Host, "0.0.0.0");
  EXPECT_EQ(Port, 0);
  ASSERT_TRUE(net::parseHostPort("metrics.internal:65535", Host, Port));
  EXPECT_EQ(Port, 65535);
  // The split is at the *last* colon, so colon-bearing hosts pass
  // through (bracketless IPv6-ish forms at least round-trip).
  ASSERT_TRUE(net::parseHostPort("::1:8080", Host, Port));
  EXPECT_EQ(Host, "::1");
  EXPECT_EQ(Port, 8080);
  // Leading zeros are still digits.
  ASSERT_TRUE(net::parseHostPort("h:0009464", Host, Port));
  EXPECT_EQ(Port, 9464);
}

TEST(HostPortTest, RejectsMalformedAndLeavesOutputsUntouched) {
  const char *Bad[] = {
      "",               // empty
      "127.0.0.1",      // no colon
      "127.0.0.1:",     // empty port (the old parser read 0)
      ":9464",          // empty host
      "127.0.0.1:9464x", // trailing junk (the old parser accepted it)
      "127.0.0.1:x",    // not a number
      "127.0.0.1:-1",   // sign: strtol would take it, a port is digits
      "127.0.0.1:+80",  // ditto
      "127.0.0.1: 80",  // strtol-skippable whitespace
      "127.0.0.1:65536", // out of range
      "127.0.0.1:99999999999999999999", // overflows long
  };
  for (const char *In : Bad) {
    std::string Host = "sentinel";
    uint16_t Port = 7;
    EXPECT_FALSE(net::parseHostPort(In, Host, Port)) << In;
    EXPECT_EQ(Host, "sentinel") << In; // outputs untouched on failure
    EXPECT_EQ(Port, 7) << In;
  }
}

//===----------------------------------------------------------------------===//
// Scrape endpoint under EINTR (signal storms + injected syscall faults)
//===----------------------------------------------------------------------===//

namespace {

void noopAlarm(int) {}

/// Raw-socket GET /metrics, returning the body ('' on any failure).
/// Deliberately bypasses wbt::sys so injected faults in the serving
/// process are exercised from an unperturbed client.
std::string scrapeOnce(uint16_t Port) {
  int S = ::socket(AF_INET, SOCK_STREAM, 0);
  if (S < 0)
    return std::string();
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(S, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(S);
    return std::string();
  }
  const char Req[] = "GET /metrics HTTP/1.0\r\n\r\n";
  (void)::send(S, Req, sizeof(Req) - 1, MSG_NOSIGNAL);
  std::string Resp;
  char Buf[4096];
  ssize_t R;
  while ((R = ::recv(S, Buf, sizeof(Buf), 0)) > 0)
    Resp.append(Buf, static_cast<size_t>(R));
  ::close(S);
  size_t HdrEnd = Resp.find("\r\n\r\n");
  return HdrEnd == std::string::npos ? std::string() : Resp.substr(HdrEnd + 4);
}

/// Regression for the serviceConn EINTR bug: `return errno == EAGAIN`
/// treated an interrupted recv/send as a dead connection, so any
/// signal-heavy host (SIGALRM profilers, ITIMER ticks) dropped scrapes
/// midway. Storm the serving process with 2ms SIGALRMs (no SA_RESTART)
/// *and* inject deterministic EINTRs into the endpoint's first recv and
/// send; ten scrapes must still come back whole.
int scenarioScrapeSurvivesEintrStorm() {
  alarm(60);
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 4;
  Opts.Seed = 93;
  Opts.Backend = StoreBackend::Shm;
  Opts.MetricsAddress = "127.0.0.1:0";
  // With no NetAgents the endpoint is the only recv/send caller in this
  // process, so these land exactly on serviceConn.
  Opts.InjectPlan = "recv@n1:EINTR*3;send@n1:EINTR*3";
  Rt.init(Opts);
  uint16_t Port = Rt.metricsPort();
  CHECK_OR(Port != 0, 2);

  pid_t Scraper = fork();
  CHECK_OR(Scraper >= 0, 3);
  if (Scraper == 0) {
    // The itimer below is not inherited, and this child scrapes with
    // raw sockets: the storm and the injected faults stay server-side.
    int Good = 0;
    for (int I = 0; I != 2000 && Good != 10; ++I) {
      std::string Body = scrapeOnce(Port);
      if (Body.empty()) {
        usleep(2000);
        continue;
      }
      if (Body.find("wbt_regions_resolved") == std::string::npos)
        _exit(40);
      ++Good;
      usleep(3000);
    }
    _exit(Good == 10 ? 0 : 41);
  }

  // Storm this (serving) process with SIGALRM every 2ms, no SA_RESTART:
  // poll/recv/send in the pump now really return EINTR.
  struct sigaction Sa {};
  Sa.sa_handler = noopAlarm;
  CHECK_OR(::sigaction(SIGALRM, &Sa, nullptr) == 0, 4);
  itimerval Storm{};
  Storm.it_interval.tv_usec = 2000;
  Storm.it_value.tv_usec = 2000;
  CHECK_OR(::setitimer(ITIMER_REAL, &Storm, nullptr) == 0, 5);

  int Status = 0;
  int Regions = 0;
  pid_t W = 0;
  while ((W = waitpid(Scraper, &Status, WNOHANG)) == 0) {
    CHECK_OR(++Regions <= 500, 6);
    RegionOptions Ro;
    Ro.Workers = 2;
    Rt.samplingRegion(4, Ro, [&] {
      double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
      usleep(2000); // keep the region open across a few pump sweeps
      if (Rt.isSampling())
        Rt.aggregate("x", encodeDouble(X), nullptr);
      Rt.aggregate("x", encodeDouble(0), nullptr);
    });
  }
  itimerval Off{};
  ::setitimer(ITIMER_REAL, &Off, nullptr);
  CHECK_OR(W == Scraper, 7);
  CHECK_OR(WIFEXITED(Status) && WEXITSTATUS(Status) == 0,
           100 + (WIFEXITED(Status) ? WEXITSTATUS(Status) : 99));
  obs::RuntimeMetrics M = Rt.metrics();
  Rt.finish();
  CHECK_OR(M.RegionsResolved == uint64_t(Regions), 8);
  return 0;
}

} // namespace

TEST(NetRuntimeTest, ScrapeSurvivesEintrStorm) {
  EXPECT_EQ(runScenario(scenarioScrapeSurvivesEintrStorm), 0);
}
