//===- tests/InjectTest.cpp - fault-injection harness tests ---------------===//
//
// Part of the WBTuner reproduction, MIT license.
//
// Covers the injection plan parser, the wbt::sys wrappers, and — through
// forked runtime scenarios — the two syscall-handling bugs the harness
// was built to pin down: EINTR escaping the supervisor's waitpid calls,
// and init-path failures (mkdtemp/mkdir/mmap) that used to be assert()s
// compiled out under NDEBUG.
//
//===----------------------------------------------------------------------===//

#include "inject/Inject.h"
#include "inject/Sys.h"
#include "proc/Runtime.h"
#include "support/ByteBuffer.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace wbt;
using namespace wbt::proc;

namespace {

/// Runs \p Scenario in a forked child; returns its exit code. The
/// runtime is a per-process singleton and injection plans are armed
/// process-wide, so every scenario gets a fresh process.
int runScenario(int (*Scenario)()) {
  pid_t Pid = fork();
  if (Pid == 0) {
    // Own process group: a scenario that fails a check exits without
    // finish(), and the group-wide SIGKILL below reaps the parked
    // workers it abandons before they can wedge the test's output pipe.
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

/// Open descriptors of the calling process (fd-leak checks).
int countOpenFds() {
  DIR *D = opendir("/proc/self/fd");
  if (!D)
    return -1;
  int N = 0;
  while (readdir(D))
    ++N;
  closedir(D);
  return N - 1; // minus the dirfd itself ("." and ".." are not in fd/)
}

//===----------------------------------------------------------------------===//
// Plan parser
//===----------------------------------------------------------------------===//

TEST(InjectPlan, ParsesClausesAndSeed) {
  inject::Plan P;
  std::string Err;
  ASSERT_TRUE(inject::parsePlan(
      "seed=7;waitpid@n1:EINTR*8;fork@n2:EAGAIN;write@p0.25:short*3", P, Err))
      << Err;
  EXPECT_EQ(P.Seed, 7u);
  ASSERT_EQ(P.Clauses.size(), 3u);

  EXPECT_EQ(P.Clauses[0].S, inject::Site::Waitpid);
  EXPECT_EQ(P.Clauses[0].FromNth, 1u);
  EXPECT_EQ(P.Clauses[0].Budget, 8);
  EXPECT_EQ(P.Clauses[0].Err, EINTR);

  EXPECT_EQ(P.Clauses[1].S, inject::Site::Fork);
  EXPECT_EQ(P.Clauses[1].FromNth, 2u);
  EXPECT_EQ(P.Clauses[1].Budget, 1); // n-mode default: fire once
  EXPECT_EQ(P.Clauses[1].Err, EAGAIN);

  EXPECT_EQ(P.Clauses[2].S, inject::Site::Write);
  EXPECT_DOUBLE_EQ(P.Clauses[2].P, 0.25);
  EXPECT_EQ(P.Clauses[2].Budget, 3);
  EXPECT_TRUE(P.Clauses[2].Short);
  EXPECT_EQ(P.Clauses[2].Err, ENOSPC);
}

TEST(InjectPlan, ParsesTracePointAndRawErrno) {
  inject::Plan P;
  std::string Err;
  ASSERT_TRUE(
      inject::parsePlan("tp.sample.begin@n1:kill;read@n3:5*0", P, Err))
      << Err;
  ASSERT_EQ(P.Clauses.size(), 2u);
  EXPECT_EQ(P.Clauses[0].S, inject::Site::TracePoint);
  EXPECT_EQ(P.Clauses[0].Point, "sample.begin");
  EXPECT_TRUE(P.Clauses[0].Kill);
  EXPECT_EQ(P.Clauses[1].Err, 5); // raw number accepted
  EXPECT_EQ(P.Clauses[1].FromNth, 3u);
  EXPECT_EQ(P.Clauses[1].Budget, -1); // *0 = unlimited
}

TEST(InjectPlan, ParsesSocketSites) {
  // The distributed lease protocol's syscalls: ordinal and probability
  // selectors both apply, and 'short' at the send site models a frame
  // torn mid-wire (half the bytes land, then the connection dies).
  inject::Plan P;
  std::string Err;
  ASSERT_TRUE(inject::parsePlan("socket@n1:EMFILE;connect@n1:ECONNREFUSED;"
                                "accept@n2:ETIMEDOUT;recv@p0.5:ECONNRESET*4;"
                                "send@n3:short",
                                P, Err))
      << Err;
  ASSERT_EQ(P.Clauses.size(), 5u);
  EXPECT_EQ(P.Clauses[0].S, inject::Site::Socket);
  EXPECT_EQ(P.Clauses[0].Err, EMFILE);
  EXPECT_EQ(P.Clauses[1].S, inject::Site::Connect);
  EXPECT_EQ(P.Clauses[1].FromNth, 1u);
  EXPECT_EQ(P.Clauses[1].Err, ECONNREFUSED);
  EXPECT_EQ(P.Clauses[2].S, inject::Site::Accept);
  EXPECT_EQ(P.Clauses[2].Err, ETIMEDOUT);
  EXPECT_EQ(P.Clauses[3].S, inject::Site::Recv);
  EXPECT_DOUBLE_EQ(P.Clauses[3].P, 0.5);
  EXPECT_EQ(P.Clauses[3].Budget, 4);
  EXPECT_EQ(P.Clauses[3].Err, ECONNRESET);
  EXPECT_EQ(P.Clauses[4].S, inject::Site::Send);
  EXPECT_TRUE(P.Clauses[4].Short);
  EXPECT_EQ(P.Clauses[4].Err, EPIPE); // send-short default: peer died
}

TEST(InjectPlan, EmptyPlanParsesToNoClauses) {
  inject::Plan P;
  std::string Err;
  ASSERT_TRUE(inject::parsePlan("", P, Err));
  EXPECT_TRUE(P.Clauses.empty());
}

TEST(InjectPlan, RejectsMalformedPlans) {
  inject::Plan P;
  std::string Err;
  // One representative per validation rule; each must name the clause.
  const char *Bad[] = {
      "waitpid",                 // not site@sel:act
      "quux@n1:EINTR",           // unknown site
      "tp@n1:kill",              // tp without a point name
      "waitpid@x1:EINTR",        // unknown selector
      "waitpid@n0:EINTR",        // ordinals are 1-based
      "waitpid@p1.5:EINTR",      // probability out of range
      "waitpid@n1:EWHATEVER",    // unknown errno name
      "fork@n1:kill",            // kill outside tp.*
      "fork@n1:short",           // short outside write/send
      "tp.sample.begin@n1:EIO",  // tp supports only kill
      "waitpid@n1:EINTR*x",      // bad budget
      "seed=banana",             // bad seed
  };
  for (const char *Text : Bad) {
    EXPECT_FALSE(inject::parsePlan(Text, P, Err)) << Text;
    EXPECT_FALSE(Err.empty()) << Text;
  }
}

TEST(InjectPlan, ArmTextLeavesDisarmedOnParseError) {
  std::string Err;
  EXPECT_FALSE(inject::armText("fork@n1:kill", Err));
  EXPECT_FALSE(inject::armed());
}

//===----------------------------------------------------------------------===//
// Decision determinism
//===----------------------------------------------------------------------===//

int scenarioProbabilisticReplay() {
  // The same seeded plan must fire on the same call ordinals every time
  // it is armed, and a different seed must pick a different set.
  std::string Err;
  auto firingPattern = [&](const char *Text) {
    std::string E;
    if (!inject::armText(Text, E))
      return std::vector<int>();
    std::vector<int> Fires;
    for (int I = 0; I != 256; ++I)
      if (inject::onCall(inject::Site::Fork))
        Fires.push_back(I);
    inject::disarm();
    return Fires;
  };
  std::vector<int> A = firingPattern("seed=7;fork@p0.25:EAGAIN*0");
  std::vector<int> B = firingPattern("seed=7;fork@p0.25:EAGAIN*0");
  std::vector<int> C = firingPattern("seed=8;fork@p0.25:EAGAIN*0");
  CHECK_OR(!A.empty() && A.size() < 256, 2); // ~64 of 256 expected
  CHECK_OR(A == B, 3);
  CHECK_OR(A != C, 4);
  return 0;
}

TEST(InjectDeterminism, ProbabilisticClausesReplayFromSeed) {
  EXPECT_EQ(runScenario(scenarioProbabilisticReplay), 0);
}

int scenarioProcessTagDiversifies() {
  // Distinct process tags must produce distinct firing patterns (this is
  // what keeps p-clauses from hitting all-or-none of a region's forked
  // children, which share counters at the fork point).
  auto patternWithTag = [](uint64_t Tag) {
    std::string E;
    inject::armText("seed=7;fork@p0.3:EAGAIN*0", E);
    inject::tagProcess(Tag);
    std::vector<int> Fires;
    for (int I = 0; I != 128; ++I)
      if (inject::onCall(inject::Site::Fork))
        Fires.push_back(I);
    inject::disarm();
    return Fires;
  };
  CHECK_OR(patternWithTag(1) != patternWithTag(2), 2);
  CHECK_OR(patternWithTag(1) == patternWithTag(1), 3);
  return 0;
}

TEST(InjectDeterminism, ProcessTagDiversifiesDecisions) {
  EXPECT_EQ(runScenario(scenarioProcessTagDiversifies), 0);
}

//===----------------------------------------------------------------------===//
// sys wrappers
//===----------------------------------------------------------------------===//

int scenarioWaitPidRetriesInjectedEintr() {
  // The wrapper must consume an EINTR storm internally: callers never
  // see an interrupted wait. This is satellite bug #1's fix in
  // isolation — before it, each EINTR returned as "child not exited".
  std::string E;
  CHECK_OR(inject::armText("waitpid@n1:EINTR*16", E), 2);
  pid_t Pid = fork();
  if (Pid == 0)
    _exit(7);
  int St = 0;
  pid_t R = sys::waitPid(Pid, &St, 0);
  CHECK_OR(R == Pid, 3);
  CHECK_OR(WIFEXITED(St) && WEXITSTATUS(St) == 7, 4);
  // All 16 interrupts were burned before the real wait went through.
  CHECK_OR(inject::callCount(inject::Site::Waitpid) >= 17, 5);
  inject::disarm();
  return 0;
}

TEST(InjectSys, WaitPidRetriesInjectedEintr) {
  EXPECT_EQ(runScenario(scenarioWaitPidRetriesInjectedEintr), 0);
}

int scenarioWaitPidPropagatesOtherErrno() {
  std::string E;
  CHECK_OR(inject::armText("waitpid@n1:ECHILD", E), 2);
  int St = 0;
  errno = 0;
  CHECK_OR(sys::waitPid(12345, &St, 0) == -1, 3);
  CHECK_OR(errno == ECHILD, 4);
  inject::disarm();
  return 0;
}

TEST(InjectSys, WaitPidPropagatesNonEintrErrno) {
  EXPECT_EQ(runScenario(scenarioWaitPidPropagatesOtherErrno), 0);
}

int scenarioShortWriteDiscardsTempFile() {
  // A truncated store write must fail, set the injected errno, leave no
  // visible file, no temp file, and no leaked stream.
  std::string Dir = testing::TempDir() + "wbt-inject-write-XXXXXX";
  std::vector<char> Buf(Dir.begin(), Dir.end());
  Buf.push_back('\0');
  CHECK_OR(mkdtemp(Buf.data()) != nullptr, 2);
  std::string Path = std::string(Buf.data()) + "/payload";

  std::vector<uint8_t> Bytes(4096, 0xAB);
  int FdsBefore = countOpenFds();
  std::string E;
  CHECK_OR(inject::armText("write@n1:short", E), 3);
  errno = 0;
  CHECK_OR(!writeFileBytes(Path, Bytes), 4);
  CHECK_OR(errno == ENOSPC, 5);
  CHECK_OR(access(Path.c_str(), F_OK) != 0, 6);
  CHECK_OR(access((Path + ".tmp").c_str(), F_OK) != 0, 7);
  CHECK_OR(countOpenFds() == FdsBefore, 8);

  // Budget exhausted: the next write goes through and reads back intact.
  CHECK_OR(writeFileBytes(Path, Bytes), 9);
  std::vector<uint8_t> Back;
  CHECK_OR(readFileBytes(Path, Back) && Back == Bytes, 10);

  // Injected read failure surfaces as an ordinary read miss.
  CHECK_OR(inject::armText("read@n1:EIO", E), 11);
  errno = 0;
  CHECK_OR(!readFileBytes(Path, Back), 12);
  CHECK_OR(errno == EIO, 13);
  inject::disarm();
  std::remove(Path.c_str());
  std::remove(Buf.data());
  return 0;
}

TEST(InjectSys, ShortWriteFailsAtomically) {
  EXPECT_EQ(runScenario(scenarioShortWriteDiscardsTempFile), 0);
}

int scenarioTornSendPutsHalfOnTheWire() {
  // An injected short send must behave like a real mid-frame death: the
  // first half of the buffer reaches the peer, then the sender sees
  // EPIPE. The receiving FrameBuffer is what turns that torn prefix
  // into "incomplete frame, wait for more" instead of corruption.
  int Sv[2];
  CHECK_OR(socketpair(AF_UNIX, SOCK_STREAM, 0, Sv) == 0, 2);
  std::string E;
  CHECK_OR(inject::armText("send@n1:short", E), 3);

  std::vector<uint8_t> Buf(4096, 0xCD);
  errno = 0;
  CHECK_OR(sys::sendBytes(Sv[0], Buf.data(), Buf.size()) == -1, 4);
  CHECK_OR(errno == EPIPE, 5);

  // Exactly half the frame is on the wire (drain with the budget spent).
  std::vector<uint8_t> Got(Buf.size(), 0);
  ssize_t R = sys::recvBytes(Sv[1], Got.data(), Got.size());
  CHECK_OR(R == static_cast<ssize_t>(Buf.size() / 2), 6);

  // Budget exhausted: the next send delivers the full buffer.
  CHECK_OR(sys::sendBytes(Sv[0], Buf.data(), Buf.size()) ==
               static_cast<ssize_t>(Buf.size()),
           7);
  R = sys::recvBytes(Sv[1], Got.data(), Got.size());
  CHECK_OR(R == static_cast<ssize_t>(Buf.size()), 8);
  inject::disarm();
  close(Sv[0]);
  close(Sv[1]);
  return 0;
}

TEST(InjectSys, TornSendPutsHalfOnTheWire) {
  EXPECT_EQ(runScenario(scenarioTornSendPutsHalfOnTheWire), 0);
}

int scenarioRecvFaultLeavesStreamIntact() {
  // An injected recv failure surfaces the errno without consuming the
  // stream: once the budget is spent, the queued bytes read back whole
  // (the reconnecting agent re-reads them after its next Hello).
  int Sv[2];
  CHECK_OR(socketpair(AF_UNIX, SOCK_STREAM, 0, Sv) == 0, 2);
  const char Msg[] = "lease-frame";
  CHECK_OR(send(Sv[0], Msg, sizeof(Msg), 0) == sizeof(Msg), 3);

  std::string E;
  CHECK_OR(inject::armText("recv@n1:ECONNRESET", E), 4);
  char Got[64] = {0};
  errno = 0;
  CHECK_OR(sys::recvBytes(Sv[1], Got, sizeof(Got)) == -1, 5);
  CHECK_OR(errno == ECONNRESET, 6);
  CHECK_OR(sys::recvBytes(Sv[1], Got, sizeof(Got)) == sizeof(Msg), 7);
  CHECK_OR(std::string(Got) == Msg, 8);
  inject::disarm();
  close(Sv[0]);
  close(Sv[1]);
  return 0;
}

TEST(InjectSys, RecvFaultLeavesStreamIntact) {
  EXPECT_EQ(runScenario(scenarioRecvFaultLeavesStreamIntact), 0);
}

//===----------------------------------------------------------------------===//
// Runtime scenarios: the regressions the harness exists to catch
//===----------------------------------------------------------------------===//

/// Satellite bug #1, site (a): finish() reaping split children. An EINTR
/// storm on every waitpid used to skip the reap (zombie) and, for a
/// split child that died early, skip its accounting reclamation — the
/// root then hung in finish(). With sys::waitPid the
/// storm is absorbed and the run tears down completely.
int scenarioSplitReapSurvivesEintrStorm() {
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 11;
  Opts.InjectPlan = "waitpid@n1:EINTR*64";
  Rt.init(Opts);
  std::string RunDir = Rt.runDir();

  if (Rt.split()) {
    // Child tuning process: one tiny region, then a clean exit.
    Rt.sampling(2);
    double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
    if (Rt.isSampling())
      Rt.aggregate("x", encodeDouble(X), nullptr);
    Rt.aggregate("x", encodeDouble(X), [](AggregationView &) {});
    Rt.finishAndExit();
  }
  Rt.finish(); // waits on the split child through the EINTR storm

  // No zombie children left behind...
  errno = 0;
  CHECK_OR(waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD, 2);
  // ...and the run directory was removed (finish() completed fully).
  CHECK_OR(access(RunDir.c_str(), F_OK) != 0, 3);
  return 0;
}

TEST(InjectRuntime, SplitReapSurvivesEintrStorm) {
  EXPECT_EQ(runScenario(scenarioSplitReapSurvivesEintrStorm), 0);
}

/// Satellite bug #1, site (b): reapOne()'s WNOHANG sweeps. An EINTR
/// storm plus a crashing child used to defer the crash classification
/// and the slot reclamation; the storm must change nothing observable.
int scenarioSupervisorSweepSurvivesEintrStorm() {
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 12;
  Opts.InjectPlan = "waitpid@n1:EINTR*256";
  Rt.init(Opts);

  const int N = 4;
  int FreeBefore = Rt.freeSlots();
  Rt.sampling(N);
  double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling()) {
    if (Rt.sampleIndex() == 0)
      _exit(3); // crash one child without committing
    Rt.aggregate("x", encodeDouble(X), nullptr);
  }

  int Committed = -1, Crashed = -1;
  Rt.aggregate("x", encodeDouble(X), [&](AggregationView &V) {
    Committed = V.countStatus(SampleStatus::Committed);
    Crashed = V.countStatus(SampleStatus::Crashed);
  });
  CHECK_OR(Committed == N - 1, 2);
  CHECK_OR(Crashed == 1, 3);
  CHECK_OR(Rt.crashedSamples() == 1, 4);
  // The crashed child's pool slot was reclaimed despite the storm.
  CHECK_OR(Rt.freeSlots() == FreeBefore, 5);
  Rt.finish();
  errno = 0;
  CHECK_OR(waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD, 6);
  return 0;
}

TEST(InjectRuntime, SupervisorSweepSurvivesEintrStorm) {
  EXPECT_EQ(runScenario(scenarioSupervisorSweepSurvivesEintrStorm), 0);
}

/// Injected fork failure skips the sample cleanly: it is reported
/// ForkFailed, everything else commits, and no bogus pid enters the wait
/// set — the barrier and slot accounting stay intact.
int scenarioInjectedForkFailureIsAccounted() {
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 13;
  Opts.InjectPlan = "fork@n2:EAGAIN";
  Rt.init(Opts);

  int FreeBefore = Rt.freeSlots();
  const int N = 4;
  Rt.sampling(N); // the 2nd fork of the region fails
  double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling())
    Rt.aggregate("x", encodeDouble(X), nullptr);

  int Committed = -1, ForkFailed = -1;
  Rt.aggregate("x", encodeDouble(X), [&](AggregationView &V) {
    Committed = V.countStatus(SampleStatus::Committed);
    ForkFailed = V.countStatus(SampleStatus::ForkFailed);
  });
  CHECK_OR(Committed == N - 1, 2);
  CHECK_OR(ForkFailed == 1, 3);
  CHECK_OR(Rt.forkFailures() == 1, 4);
  CHECK_OR(Rt.freeSlots() == FreeBefore, 5);
  Rt.finish();
  return 0;
}

TEST(InjectRuntime, InjectedForkFailureIsAccounted) {
  EXPECT_EQ(runScenario(scenarioInjectedForkFailureIsAccounted), 0);
}

/// Kill points: every sampling child dies by SIGKILL at its first
/// sample.begin trace point (counters are per-process, so each child's
/// first point fires). The supervisor must classify all of them as
/// crashes and keep the accounting exact — with tracing off, proving
/// kill points do not depend on the ring.
int scenarioKillPointAtSampleBegin() {
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 14;
  Opts.InjectPlan = "tp.sample.begin@n1:kill";
  Rt.init(Opts);

  const int N = 3;
  int FreeBefore = Rt.freeSlots();
  Rt.sampling(N);
  double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling())
    Rt.aggregate("x", encodeDouble(X), nullptr); // unreachable: killed

  int Crashed = -1, BySigkill = 0;
  Rt.aggregate("x", encodeDouble(X), [&](AggregationView &V) {
    Crashed = V.countStatus(SampleStatus::Crashed);
    for (int I = 0; I != V.spawned(); ++I)
      BySigkill += V.crashSignal(I) == SIGKILL;
  });
  CHECK_OR(Crashed == N, 2);
  CHECK_OR(BySigkill == N, 3);
  CHECK_OR(Rt.freeSlots() == FreeBefore, 4);
  Rt.finish();
  errno = 0;
  CHECK_OR(waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD, 5);
  return 0;
}

TEST(InjectRuntime, KillPointAtSampleBegin) {
  EXPECT_EQ(runScenario(scenarioKillPointAtSampleBegin), 0);
}

/// Satellite bug #3: an unreadable run dir during trace export must cost
/// only the fragments, never the export. The trace file still appears.
int scenarioTraceExportSurvivesOpendirFailure() {
  Runtime &Rt = Runtime::get();
  std::string Trace = testing::TempDir() + "wbt-inject-trace.json";
  std::remove(Trace.c_str());
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 15;
  Opts.TracePath = Trace;
  Opts.InjectPlan = "opendir@n1:EACCES";
  Rt.init(Opts);

  Rt.sampling(2);
  double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling())
    Rt.aggregate("x", encodeDouble(X), nullptr);
  Rt.aggregate("x", encodeDouble(X), [](AggregationView &) {});
  Rt.finish();

  std::vector<uint8_t> Json;
  CHECK_OR(readFileBytes(Trace, Json), 2);
  CHECK_OR(!Json.empty() && Json.front() == '{', 3);
  std::remove(Trace.c_str());
  return 0;
}

TEST(InjectRuntime, TraceExportSurvivesOpendirFailure) {
  EXPECT_EQ(runScenario(scenarioTraceExportSurvivesOpendirFailure), 0);
}

//===----------------------------------------------------------------------===//
// Lazy region directories (observed through injection call counters,
// which tick while a plan is armed — the clauses below never fire)
//===----------------------------------------------------------------------===//

/// A pure-shm region must not touch the filesystem at all: no mkdir at
/// region open, no unlink at region close. Before the lazy-dir change,
/// every region paid a mkdir even when every commit stayed in the slab.
int scenarioPureShmRegionTouchesNoDirs() {
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 21;
  Opts.Backend = StoreBackend::Shm;
  // Never-firing clauses (ordinal one million): arming them makes the
  // per-site call counters observable without perturbing anything.
  Opts.InjectPlan = "mkdir@n1000000:EACCES;unlink@n1000000:EACCES";
  Rt.init(Opts);

  uint64_t MkdirBefore = inject::callCount(inject::Site::Mkdir);
  uint64_t UnlinkBefore = inject::callCount(inject::Site::Unlink);
  const int N = 6;
  int Committed = -1;
  auto Body = [&] {
    double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
    if (Rt.isSampling())
      Rt.aggregate("x", encodeDouble(X), nullptr);
    Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
      Committed = V.countStatus(SampleStatus::Committed);
    });
  };
  // Both entry modes: fork-per-sample and the worker pool.
  Rt.sampling(N);
  Body();
  CHECK_OR(Committed == N, 2);
  Rt.samplingRegion(N, Body);
  CHECK_OR(Committed == N, 3);
  CHECK_OR(inject::callCount(inject::Site::Mkdir) == MkdirBefore, 4);
  CHECK_OR(inject::callCount(inject::Site::Unlink) == UnlinkBefore, 5);
  Rt.finish();
  return 0;
}

TEST(InjectRuntime, PureShmRegionTouchesNoDirs) {
  EXPECT_EQ(runScenario(scenarioPureShmRegionTouchesNoDirs), 0);
}

/// The lazy directory still appears when needed: an oversized payload
/// falls back to the file store, whose first commit creates the region
/// dir on demand — and the value aggregates correctly through it.
int scenarioOversizedFallbackCreatesDirOnDemand() {
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 22;
  Opts.Backend = StoreBackend::Shm;
  Opts.ShmRecordThreshold = 256; // force big payloads to the file store
  Rt.init(Opts);

  const int N = 4;
  std::vector<double> Got(N, -1.0);
  Rt.sampling(N);
  double X = Rt.sample("x", Distribution::uniform(1.0, 2.0));
  if (Rt.isSampling()) {
    std::vector<double> Big(256, X); // 2 KiB payload, above the threshold
    Rt.aggregate("big", encodeVector(Big), nullptr);
  }
  Rt.aggregate("big", encodeVector(std::vector<double>()),
               [&](AggregationView &V) {
    for (int I : V.committed("big"))
      Got[I] = V.loadDoubles("big", I).at(128);
  });
  for (int I = 0; I != N; ++I)
    CHECK_OR(Got[I] >= 1.0 && Got[I] <= 2.0, 10 + I);
  CHECK_OR(Rt.metrics().FileFallbacks >= static_cast<uint64_t>(N), 2);
  Rt.finish();
  return 0;
}

TEST(InjectRuntime, OversizedFallbackCreatesDirOnDemand) {
  EXPECT_EQ(runScenario(scenarioOversizedFallbackCreatesDirOnDemand), 0);
}

//===----------------------------------------------------------------------===//
// removeTree failure accounting (the nftw-return regression)
//===----------------------------------------------------------------------===//

/// An undeletable entry during run-dir teardown must be warned about and
/// counted — the old nftw-based walk discarded its own return value, so
/// the leak was silent. The walk also keeps going: siblings of the
/// failed entry are still removed.
int scenarioRemoveTreeCountsFailures() {
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 23;
  Opts.Backend = StoreBackend::Files; // every commit is a file
  Opts.InjectPlan = "unlink@n1:EACCES";
  Rt.init(Opts);
  std::string RunDir = Rt.runDir();

  const int N = 3;
  Rt.sampling(N);
  double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling())
    Rt.aggregate("x", encodeDouble(X), nullptr);
  Rt.aggregate("x", encodeDouble(0), [](AggregationView &) {});
  CHECK_OR(removeTreeFailures() == 0, 2);
  Rt.finish(); // teardown hits the injected EACCES on its first unlink
  CHECK_OR(removeTreeFailures() >= 1, 3);
  // The failed entry (and its ancestor chain) leaked; everything else
  // was still visited, so the leak is the injected file plus bare
  // directories — no sibling sample files survive.
  inject::disarm();
  CHECK_OR(access(RunDir.c_str(), F_OK) == 0, 4); // leak is visible
  int SampleFiles = 0;
  std::string TpDir = RunDir + "/tp0/r1";
  if (DIR *D = opendir(TpDir.c_str())) {
    while (dirent *E = readdir(D))
      SampleFiles += E->d_name[0] != '.';
    closedir(D);
  }
  CHECK_OR(SampleFiles <= 1, 5); // at most the one EACCES victim
  // Clean up for real now that injection is off.
  std::string Cmd = "rm -rf '" + RunDir + "'";
  CHECK_OR(std::system(Cmd.c_str()) == 0, 6);
  return 0;
}

TEST(InjectRuntime, RemoveTreeCountsFailures) {
  EXPECT_EQ(runScenario(scenarioRemoveTreeCountsFailures), 0);
}

//===----------------------------------------------------------------------===//
// Satellite bug #2: init failures must be loud in every build type.
// These were assert()s before — under NDEBUG (the CI Release build)
// they compiled out and init continued with a garbage run directory.
//===----------------------------------------------------------------------===//

using InjectDeathTest = ::testing::Test;

TEST(InjectDeathTest, MkdtempFailureAbortsLoudly) {
  EXPECT_DEATH(
      {
        RuntimeOptions Opts;
        Opts.InjectPlan = "mkdtemp@n1:EACCES";
        Runtime::get().init(Opts); // RunDir empty -> mkdtemp path
      },
      "mkdtemp .* failed");
}

TEST(InjectDeathTest, MkdirFailureAbortsLoudly) {
  EXPECT_DEATH(
      {
        RuntimeOptions Opts;
        Opts.RunDir = testing::TempDir() + "wbt-inject-mkdir-death";
        Opts.InjectPlan = "mkdir@n1:EACCES";
        Runtime::get().init(Opts);
      },
      "cannot create run directory");
}

TEST(InjectDeathTest, SharedMmapFailureAbortsLoudly) {
  EXPECT_DEATH(
      {
        RuntimeOptions Opts;
        Opts.InjectPlan = "mmap@n1:ENOMEM";
        Runtime::get().init(Opts);
      },
      "mmap of shared control block");
}

TEST(InjectDeathTest, MalformedPlanAbortsLoudly) {
  EXPECT_DEATH(
      {
        RuntimeOptions Opts;
        Opts.InjectPlan = "fork@n1:kill"; // kill outside tp.*
        Runtime::get().init(Opts);
      },
      "bad WBT_INJECT plan");
}

} // namespace
