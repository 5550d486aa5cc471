//===- tests/ObsTest.cpp - observability subsystem tests ------------------===//
//
// Part of the WBTuner reproduction, MIT license.
//
// Coverage for src/obs: the shared trace ring (overflow drops, ordering,
// wraparound, torn-writer recovery), the latency histograms, the Chrome
// trace-event exporter (span balance, synthesized closers, fragment
// round-trip), and runtime-level scenarios that produce a trace file from
// a pool region with a killed worker and count ring drops under a
// deliberately tiny ring.
//
// Runtime scenarios run in a forked child because the runtime is a
// per-process singleton.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "obs/TraceExporter.h"
#include "proc/Runtime.h"
#include "proc/SharedControl.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

using namespace wbt;
using namespace wbt::obs;

namespace {

//===----------------------------------------------------------------------===//
// Trace ring
//===----------------------------------------------------------------------===//

/// Heap-backed ring for the single-process tests; the runtime maps the
/// same layout MAP_SHARED.
struct RingBuf {
  void *Mem;
  TraceRingLayout *L;
  explicit RingBuf(size_t Records) {
    size_t Bytes = traceRingBytes(Records);
    Mem = std::aligned_alloc(64, (Bytes + 63) / 64 * 64);
    traceRingInit(Mem, Records);
    L = static_cast<TraceRingLayout *>(Mem);
  }
  ~RingBuf() { std::free(Mem); }
};

TraceEvent ev(EventKind K, uint64_t A, uint64_t Ts = 0, int32_t Pid = 0) {
  TraceEvent E = makeEvent(K, A);
  if (Ts)
    E.TsNs = Ts;
  if (Pid)
    E.Pid = Pid;
  return E;
}

TEST(TraceRing, EmitDrainOrder) {
  RingBuf R(8);
  for (uint64_t I = 0; I != 5; ++I)
    ASSERT_TRUE(traceRingEmit(R.L, ev(EventKind::Fold, I)));
  EXPECT_EQ(R.L->Published.load(), 5u);
  EXPECT_EQ(R.L->Drops.load(), 0u);
  std::vector<TraceEvent> Out;
  EXPECT_EQ(traceRingDrain(R.L, Out, /*SkipUnpublished=*/false), 5u);
  ASSERT_EQ(Out.size(), 5u);
  for (uint64_t I = 0; I != 5; ++I) {
    EXPECT_EQ(Out[I].A, I);
    EXPECT_EQ(EventKind(Out[I].Kind), EventKind::Fold);
  }
}

TEST(TraceRing, OverflowDropsWithoutCorruption) {
  RingBuf R(8);
  for (uint64_t I = 0; I != 8; ++I)
    ASSERT_TRUE(traceRingEmit(R.L, ev(EventKind::Fold, I)));
  // Full: further emits are dropped, counted, and never block.
  EXPECT_FALSE(traceRingEmit(R.L, ev(EventKind::Fold, 100)));
  EXPECT_FALSE(traceRingEmit(R.L, ev(EventKind::Fold, 101)));
  EXPECT_EQ(R.L->Drops.load(), 2u);
  // The 8 records emitted before the overflow are intact and in order.
  std::vector<TraceEvent> Out;
  EXPECT_EQ(traceRingDrain(R.L, Out, false), 8u);
  for (uint64_t I = 0; I != 8; ++I)
    EXPECT_EQ(Out[I].A, I);
  // Drained cells are reusable.
  EXPECT_TRUE(traceRingEmit(R.L, ev(EventKind::Fold, 200)));
}

TEST(TraceRing, WrapAround) {
  RingBuf R(8);
  uint64_t Next = 0;
  for (int Round = 0; Round != 6; ++Round) {
    for (int I = 0; I != 6; ++I)
      ASSERT_TRUE(traceRingEmit(R.L, ev(EventKind::Fold, Next + I)));
    std::vector<TraceEvent> Out;
    ASSERT_EQ(traceRingDrain(R.L, Out, false), 6u);
    for (int I = 0; I != 6; ++I)
      EXPECT_EQ(Out[I].A, Next + I);
    Next += 6;
  }
  EXPECT_EQ(R.L->Drops.load(), 0u);
}

TEST(TraceRing, TornWriterLeavesAtMostOneUnpublishedRecord) {
  // A writer SIGKILLed between claiming a cell and publishing it (the
  // shared-memory analogue of the torn slab commit) must cost exactly
  // that one record: a plain drain stops in front of it, a skip drain
  // counts it as a drop and recovers the records behind it.
  size_t Bytes = traceRingBytes(8);
  void *Mem = mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(Mem, MAP_FAILED);
  traceRingInit(Mem, 8);
  TraceRingLayout *L = static_cast<TraceRingLayout *>(Mem);

  ASSERT_TRUE(traceRingEmit(L, ev(EventKind::Fold, 0)));
  ASSERT_TRUE(traceRingEmit(L, ev(EventKind::Fold, 1)));
  pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    traceRingEmit(L, ev(EventKind::Fold, 2), /*DebugDieBeforePublish=*/true);
    _exit(0); // unreachable
  }
  int Status = 0;
  waitpid(Pid, &Status, 0);
  ASSERT_TRUE(WIFSIGNALED(Status) && WTERMSIG(Status) == SIGKILL);
  // The dead writer claimed slot 2 but never published it.
  EXPECT_EQ(L->Head.load(), 3u);
  EXPECT_EQ(L->Published.load(), 2u);
  // A live writer lands behind the torn cell.
  ASSERT_TRUE(traceRingEmit(L, ev(EventKind::Fold, 3)));

  // Conservative drain: returns everything before the torn cell, then
  // stops (the writer might still be alive mid-publish).
  std::vector<TraceEvent> Out;
  EXPECT_EQ(traceRingDrain(L, Out, /*SkipUnpublished=*/false), 2u);
  EXPECT_EQ(Out[0].A, 0u);
  EXPECT_EQ(Out[1].A, 1u);
  // Final drain: the torn cell is skipped as a drop, the record behind
  // it is recovered.
  Out.clear();
  uint64_t DropsBefore = L->Drops.load();
  EXPECT_EQ(traceRingDrain(L, Out, /*SkipUnpublished=*/true), 1u);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].A, 3u);
  EXPECT_EQ(L->Drops.load(), DropsBefore + 1);
  munmap(Mem, Bytes);
}

//===----------------------------------------------------------------------===//
// Latency histograms
//===----------------------------------------------------------------------===//

TEST(Histogram, BucketBoundaries) {
  // Bucket B covers [2^B, 2^{B+1}) microseconds; bucket 0 absorbs
  // everything under 2us; the last bucket is open-ended.
  EXPECT_EQ(latencyBucket(0), 0);
  EXPECT_EQ(latencyBucket(1999), 0);           // 1.999us
  EXPECT_EQ(latencyBucket(2000), 1);           // 2us
  EXPECT_EQ(latencyBucket(3999), 1);           // 3.999us
  EXPECT_EQ(latencyBucket(4000), 2);           // 4us
  EXPECT_EQ(latencyBucket(1000ull * 1000), 9); // 1ms = 1000us
  EXPECT_EQ(latencyBucket(~0ull), NumHistBuckets - 1);
}

TEST(Histogram, RecordAndSnapshot) {
  LatencyHistogram H = {};
  H.record(1000);      // 1us   -> bucket 0
  H.record(5000);      // 5us   -> bucket 2
  H.record(5000);      // 5us   -> bucket 2
  H.record(300000);    // 300us -> bucket 8
  HistogramSnapshot S;
  S.SumNs = H.SumNs.load();
  for (size_t I = 0; I != NumHistBuckets; ++I)
    S.Counts[I] = H.Counts[I].load();
  EXPECT_EQ(S.total(), 4u);
  EXPECT_NEAR(S.meanUs(), (1 + 5 + 5 + 300) / 4.0, 1e-9);
  // p50 falls in bucket 2 ([4us, 8us)); the quantile reports its upper
  // bound.
  EXPECT_DOUBLE_EQ(S.quantileUs(0.5), 8.0);
}

//===----------------------------------------------------------------------===//
// Metrics JSON + exposition text
//===----------------------------------------------------------------------===//

/// Minimal recursive-descent JSON validator — enough to prove the
/// emitters produce structurally valid JSON (strings, numbers, objects,
/// arrays; no escapes beyond \" needed here).
struct JsonChecker {
  const char *P;
  const char *E;
  bool Fail = false;

  explicit JsonChecker(const std::string &S)
      : P(S.data()), E(S.data() + S.size()) {}

  void ws() {
    while (P != E && (*P == ' ' || *P == '\t' || *P == '\n' || *P == '\r'))
      ++P;
  }
  bool eat(char C) {
    ws();
    if (P != E && *P == C) {
      ++P;
      return true;
    }
    return false;
  }
  void string() {
    if (!eat('"')) {
      Fail = true;
      return;
    }
    while (P != E && *P != '"') {
      if (*P == '\\')
        ++P;
      if (P != E)
        ++P;
    }
    if (P == E)
      Fail = true;
    else
      ++P; // closing quote
  }
  void number() {
    char *End = nullptr;
    std::strtod(P, &End);
    if (End == P)
      Fail = true;
    else
      P = End;
  }
  void value() {
    ws();
    if (P == E) {
      Fail = true;
      return;
    }
    if (*P == '{')
      object();
    else if (*P == '[')
      array();
    else if (*P == '"')
      string();
    else
      number();
  }
  void object() {
    if (!eat('{')) {
      Fail = true;
      return;
    }
    if (eat('}'))
      return;
    do {
      string();
      if (Fail || !eat(':')) {
        Fail = true;
        return;
      }
      value();
    } while (!Fail && eat(','));
    if (!eat('}'))
      Fail = true;
  }
  void array() {
    if (!eat('[')) {
      Fail = true;
      return;
    }
    if (eat(']'))
      return;
    do
      value();
    while (!Fail && eat(','));
    if (!eat(']'))
      Fail = true;
  }
  bool valid() {
    value();
    ws();
    return !Fail && P == E;
  }
};

/// Captures writeMetricsJson output for one snapshot.
std::string metricsJsonOf(const RuntimeMetrics &M) {
  char *Buf = nullptr;
  size_t Len = 0;
  std::FILE *F = open_memstream(&Buf, &Len);
  EXPECT_NE(F, nullptr);
  writeMetricsJson(F, M);
  std::fclose(F);
  std::string Out(Buf, Len);
  std::free(Buf);
  return Out;
}

/// A snapshot with every field distinct and nonzero, so emitter tests
/// can tell the fields apart.
RuntimeMetrics denseMetrics() {
  RuntimeMetrics M;
  uint64_t V = 100;
  for (uint64_t *F :
       {&M.RegionsResolved, &M.ShmCommits, &M.FileFallbacks, &M.Fallbacks[0],
        &M.Fallbacks[1], &M.Fallbacks[2], &M.CrashedSamples,
        &M.TimedOutSamples, &M.ForkFailures, &M.LeaseReclaims, &M.Retries,
        &M.SlabRecordsHighWater, &M.SlabBytesHighWater, &M.SlabRecycles,
        &M.SlabEpochHighWater, &M.RemoveFailures, &M.NetAgents,
        &M.NetReconnects, &M.NetRemoteLeases, &M.NetLeasesReturned,
        &M.NetFrames, &M.NetBytesIn, &M.NetBytesOut, &M.NetRecvHello,
        &M.NetRecvCommit, &M.NetRecvTrace, &M.TraceEvents, &M.TraceDrops,
        &M.ScoresNoted})
    *F = V++;
  M.ElapsedSec = 2.5;
  M.ScoreLast = 0.75;
  M.ScoreMin = -1.25;
  M.ScoreMax = 3.5;
  for (int B = 0; B != NumHistBuckets; ++B) {
    M.ForkLatency.Counts[B] = B + 1;
    M.CommitLatency.Counts[B] = 2 * B + 1;
    M.RegionLatency.Counts[B] = 3 * B + 1;
  }
  M.ForkLatency.SumNs = 1000000;
  M.CommitLatency.SumNs = 2000000;
  M.RegionLatency.SumNs = 3000000;
  return M;
}

/// The complete key list writeMetricsJson promises, in emission order —
/// the golden contract the bench --json consumers parse against.
const char *const MetricsJsonKeys[] = {
    "regions_resolved", "regions_per_sec", "shm_commits", "file_fallbacks",
    "fallback_oversized", "fallback_long_name", "fallback_exhausted",
    "crashed", "timed_out", "fork_failures", "lease_reclaims", "retries",
    "slab_records_hw", "slab_bytes_hw", "slab_recycles", "slab_epoch_hw",
    "remove_failures", "net_agents", "net_reconnects", "net_remote_leases",
    "net_leases_returned", "net_frames", "net_bytes_in", "net_bytes_out",
    "net_recv_hello", "net_recv_commit", "net_recv_trace", "trace_events",
    "trace_drops", "scores_noted", "score_last", "score_min", "score_max",
    "fork_p50_us", "fork_mean_us", "commit_p50_us", "commit_mean_us",
    "region_p50_us", "region_mean_us", "fork_latency_buckets",
    "commit_latency_buckets", "region_latency_buckets"};

TEST(MetricsJson, ParsesAndKeepsGoldenKeyOrder) {
  std::string Json = metricsJsonOf(denseMetrics());
  EXPECT_TRUE(JsonChecker(Json).valid()) << Json;

  size_t Prev = 0;
  for (const char *Key : MetricsJsonKeys) {
    std::string Pat = std::string("\"") + Key + "\": ";
    size_t Pos = Json.find(Pat);
    ASSERT_NE(Pos, std::string::npos) << "missing key " << Key;
    EXPECT_GT(Pos, Prev) << "key out of order: " << Key;
    // Exactly once — a duplicated key would silently shadow in most
    // parsers.
    EXPECT_EQ(Json.find(Pat, Pos + 1), std::string::npos) << Key;
    Prev = Pos;
  }
}

TEST(MetricsJson, HistogramBucketArraysHoldAllBuckets) {
  RuntimeMetrics M = denseMetrics();
  std::string Json = metricsJsonOf(M);
  for (const char *Key : {"fork_latency_buckets", "commit_latency_buckets",
                          "region_latency_buckets"}) {
    std::string Pat = std::string("\"") + Key + "\": [";
    size_t Pos = Json.find(Pat);
    ASSERT_NE(Pos, std::string::npos) << Key;
    size_t End = Json.find(']', Pos);
    ASSERT_NE(End, std::string::npos);
    std::string Arr = Json.substr(Pos + Pat.size(), End - Pos - Pat.size());
    size_t Commas = 0;
    for (char C : Arr)
      Commas += C == ',';
    EXPECT_EQ(Commas, size_t(NumHistBuckets - 1)) << Key;
  }
  // Spot-check one array's first and last values against the snapshot.
  std::string Pat = "\"region_latency_buckets\": [";
  size_t Pos = Json.find(Pat);
  ASSERT_NE(Pos, std::string::npos);
  EXPECT_EQ(Json.compare(Pos + Pat.size(), 1, "1"), 0);
}

TEST(MetricsJson, EmptySnapshotStillParses) {
  std::string Json = metricsJsonOf(RuntimeMetrics());
  EXPECT_TRUE(JsonChecker(Json).valid()) << Json;
  // Zero-count histograms must report 0 digests, not inf/nan.
  EXPECT_NE(Json.find("\"region_p50_us\": 0.0"), std::string::npos);
  EXPECT_EQ(Json.find("inf"), std::string::npos);
  EXPECT_EQ(Json.find("nan"), std::string::npos);
}

TEST(MetricsExposition, CoversEveryScalarAndHistogram) {
  RuntimeMetrics M = denseMetrics();
  std::string Text;
  writeExpositionText(Text, M);
  // Every scalar key from the JSON contract has a wbt_ metric (histogram
  // digests surface as wbt_*_latency_p50_us gauges instead).
  for (const char *Key :
       {"regions_resolved", "regions_per_sec", "shm_commits",
        "file_fallbacks", "fallback_oversized", "fallback_long_name",
        "fallback_exhausted", "crashed", "timed_out", "fork_failures",
        "lease_reclaims", "retries", "slab_records_hw", "slab_bytes_hw",
        "slab_recycles", "slab_epoch_hw", "remove_failures", "net_agents",
        "net_reconnects", "net_remote_leases", "net_leases_returned",
        "net_frames", "net_bytes_in", "net_bytes_out", "net_recv_hello",
        "net_recv_commit", "net_recv_trace", "trace_events", "trace_drops",
        "scores_noted", "score_last", "score_min", "score_max"}) {
    std::string Line = std::string("\nwbt_") + Key + " ";
    EXPECT_NE(Text.find(Line), std::string::npos) << "missing wbt_" << Key;
  }
  for (const char *H :
       {"fork_latency", "commit_latency", "region_latency"}) {
    std::string Base = std::string("wbt_") + H + "_us";
    EXPECT_NE(Text.find("# TYPE " + Base + " histogram"), std::string::npos);
    EXPECT_NE(Text.find(Base + "_bucket{le=\"+Inf\"}"), std::string::npos);
    EXPECT_NE(Text.find(Base + "_sum "), std::string::npos);
    EXPECT_NE(Text.find(Base + "_count "), std::string::npos);
    EXPECT_NE(Text.find("wbt_" + std::string(H) + "_p50_us "),
              std::string::npos);
  }
}

TEST(MetricsExposition, HistogramBucketsAreCumulativeMonotone) {
  RuntimeMetrics M = denseMetrics();
  std::string Text;
  writeExpositionText(Text, M);
  const std::string Key = "wbt_region_latency_us_bucket{le=\"";
  uint64_t Prev = 0, Last = 0;
  int Buckets = 0;
  for (size_t P = Text.find(Key); P != std::string::npos;
       P = Text.find(Key, P + 1)) {
    size_t ValPos = Text.find("} ", P);
    ASSERT_NE(ValPos, std::string::npos);
    uint64_t V = std::strtoull(Text.c_str() + ValPos + 2, nullptr, 10);
    EXPECT_GE(V, Prev); // cumulative: never decreases
    Prev = Last = V;
    ++Buckets;
  }
  EXPECT_EQ(Buckets, NumHistBuckets + 1); // 16 bounds + le="+Inf"
  EXPECT_EQ(Last, M.RegionLatency.total());
}

//===----------------------------------------------------------------------===//
// Seqlock metrics page
//===----------------------------------------------------------------------===//

/// Snapshot whose every checked field carries the same epoch value — a
/// mixed-epoch read is exactly a torn one.
RuntimeMetrics epochPattern(uint64_t E) {
  RuntimeMetrics M;
  M.RegionsResolved = E;
  M.ShmCommits = E;
  M.NetBytesIn = E;
  M.NetBytesOut = E;
  M.TraceEvents = E;
  M.ScoresNoted = E;
  M.ElapsedSec = double(E);
  M.ScoreLast = double(E);
  M.RegionLatency.SumNs = E;
  M.RegionLatency.Counts[0] = E;
  M.RegionLatency.Counts[NumHistBuckets - 1] = E;
  return M;
}

bool epochUniform(const RuntimeMetrics &M) {
  uint64_t E = M.RegionsResolved;
  return M.ShmCommits == E && M.NetBytesIn == E && M.NetBytesOut == E &&
         M.TraceEvents == E && M.ScoresNoted == E &&
         M.ElapsedSec == double(E) && M.ScoreLast == double(E) &&
         M.RegionLatency.SumNs == E && M.RegionLatency.Counts[0] == E &&
         M.RegionLatency.Counts[NumHistBuckets - 1] == E;
}

TEST(MetricsSeqlock, WriterStormNeverTearsReads) {
  // A child hammers publishMetricsSnapshot with epoch-patterned pages
  // while the parent takes 10k snapshots: every successful read must be
  // internally consistent (all fields from one epoch), and the reader
  // must make progress under the storm (bounded retries, not livelock).
  proc::SharedControl Ctl;
  Ctl.init(/*MaxPool=*/2, /*UseScheduler=*/false);

  RuntimeMetrics Unpublished;
  EXPECT_FALSE(Ctl.readMetricsSnapshot(Unpublished)); // nothing yet
  EXPECT_EQ(Ctl.metricsSnapshotCount(), 0u);

  pid_t Parent = getpid();
  pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    // Die with the test process, whatever ends it.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != Parent)
      _exit(0);
    for (uint64_t E = 1;; ++E)
      Ctl.publishMetricsSnapshot(epochPattern(E));
  }
  // Kill and reap the writer on every exit path: a failed ASSERT returns
  // from the test body, and a writer left spinning would hold the test's
  // output pipe open.
  struct WriterReaper {
    pid_t Pid;
    ~WriterReaper() {
      kill(Pid, SIGKILL);
      int St = 0;
      waitpid(Pid, &St, 0);
    }
  } Reaper{Pid};
  // The storm starts with the writer's first publish. Until then every
  // read returns false by design (nothing published yet), and a loaded
  // machine can delay the child's first run for longer than it takes to
  // count 100k of those, so they are not counted as collisions.
  for (int Waited = 0; Ctl.metricsSnapshotCount() == 0; ++Waited) {
    ASSERT_LT(Waited, 10000) << "writer never published";
    usleep(1000);
  }
  uint64_t Reads = 0, Failures = 0, MaxEpoch = 0;
  while (Reads != 10000) {
    RuntimeMetrics M;
    if (!Ctl.readMetricsSnapshot(M)) {
      // Collisions with the writer are legal (bounded-retry false), but
      // a livelocked reader is not.
      ASSERT_LT(++Failures, 100000u);
      continue;
    }
    ++Reads;
    ASSERT_TRUE(epochUniform(M))
        << "torn snapshot at read " << Reads << ": regions "
        << M.RegionsResolved << " commits " << M.ShmCommits;
    if (M.RegionsResolved > MaxEpoch)
      MaxEpoch = M.RegionsResolved;
  }
  EXPECT_GT(MaxEpoch, 0u);
  EXPECT_GT(Ctl.metricsSnapshotCount(), 0u);
}

//===----------------------------------------------------------------------===//
// Exporter
//===----------------------------------------------------------------------===//

size_t countSub(const std::string &Hay, const std::string &Needle) {
  size_t N = 0;
  for (size_t P = Hay.find(Needle); P != std::string::npos;
       P = Hay.find(Needle, P + 1))
    ++N;
  return N;
}

/// Counts "B" minus "E" records per pid by scanning the fixed record
/// prefix the exporter writes; 0 for every pid means balanced tracks.
std::map<int, int> spanBalance(const std::string &Json) {
  std::map<int, int> Bal;
  const std::string Key = "\"ph\": \"";
  for (size_t P = Json.find(Key); P != std::string::npos;
       P = Json.find(Key, P + 1)) {
    char Ph = Json[P + Key.size()];
    size_t PidPos = Json.find("\"pid\": ", P);
    if (PidPos == std::string::npos)
      break;
    int Pid = std::atoi(Json.c_str() + PidPos + 7);
    if (Ph == 'B')
      ++Bal[Pid];
    else if (Ph == 'E')
      --Bal[Pid];
  }
  return Bal;
}

bool bracesBalanced(const std::string &S) {
  long Brace = 0, Bracket = 0;
  bool InStr = false;
  for (size_t I = 0; I != S.size(); ++I) {
    char C = S[I];
    if (InStr) {
      if (C == '\\')
        ++I;
      else if (C == '"')
        InStr = false;
      continue;
    }
    if (C == '"')
      InStr = true;
    else if (C == '{')
      ++Brace;
    else if (C == '}')
      --Brace;
    else if (C == '[')
      ++Bracket;
    else if (C == ']')
      --Bracket;
    if (Brace < 0 || Bracket < 0)
      return false;
  }
  return Brace == 0 && Bracket == 0 && !InStr;
}

TEST(TraceExporter, SpanBalanceWithSynthesizedClosers) {
  // pid 11 is a tuning process with a closed region; pid 22 is a worker
  // killed with its worker and lease spans still open.
  std::vector<TraceEvent> Events;
  Events.push_back(ev(EventKind::RegionBegin, 1, 1000, 11));
  Events.push_back(ev(EventKind::WorkerBegin, 1, 2000, 22));
  Events.push_back(ev(EventKind::LeaseBegin, 1, 3000, 22));
  Events.push_back(ev(EventKind::RegionEnd, 1, 9000, 11));
  std::string Json = chromeTraceJson(Events);

  EXPECT_TRUE(bracesBalanced(Json));
  std::map<int, int> Bal = spanBalance(Json);
  EXPECT_EQ(Bal[11], 0);
  EXPECT_EQ(Bal[22], 0);
  // The killed worker's two spans were closed synthetically at the trace
  // horizon.
  EXPECT_EQ(countSub(Json, "\"synthesized\": 1"), 2u);
  // Track metadata names both processes.
  EXPECT_EQ(countSub(Json, "\"args\": {\"name\": \"tuning\"}"), 1u);
  EXPECT_EQ(countSub(Json, "\"args\": {\"name\": \"worker\"}"), 1u);
}

TEST(TraceExporter, UnmatchedEndSkipped) {
  // A lease end whose begin was dropped by a full ring must not emit an
  // unbalanced "E".
  std::vector<TraceEvent> Events;
  Events.push_back(ev(EventKind::LeaseEnd, 1, 1000, 5));
  std::string Json = chromeTraceJson(Events);
  EXPECT_TRUE(bracesBalanced(Json));
  EXPECT_EQ(countSub(Json, "\"ph\": \"E\""), 0u);
}

TEST(TraceExporter, CompleteAndInstantEvents) {
  std::vector<TraceEvent> Events;
  TraceEvent Commit = ev(EventKind::StoreCommit, /*Backend=*/1, 5000, 7);
  Commit.B = 2000; // 2us latency
  Commit.Arg = uint16_t(FallbackReason::LongName) + 1;
  Events.push_back(Commit);
  TraceEvent Fork = ev(EventKind::Fork, 1234, 6000, 7);
  Fork.B = 3000;
  Events.push_back(Fork);
  Events.push_back(ev(EventKind::Kill, 2, 7000, 7));
  std::string Json = chromeTraceJson(Events);
  EXPECT_TRUE(bracesBalanced(Json));
  EXPECT_EQ(countSub(Json, "\"name\": \"commit-file\""), 1u);
  EXPECT_EQ(countSub(Json, "\"fallback\": \"long_name\""), 1u);
  EXPECT_EQ(countSub(Json, "\"name\": \"fork\""), 1u);
  EXPECT_EQ(countSub(Json, "\"ph\": \"i\""), 1u);
}

TEST(TraceExporter, FragmentRoundTrip) {
  std::string Path =
      "/tmp/wbt-obs-frag-test." + std::to_string(getpid()) + ".bin";
  std::vector<TraceEvent> In;
  for (uint64_t I = 0; I != 3; ++I)
    In.push_back(ev(EventKind::Fold, I, 1000 + I, 9));
  ASSERT_TRUE(writeTraceFragment(Path, In));
  std::vector<TraceEvent> Out;
  ASSERT_TRUE(readTraceFragment(Path, Out));
  ASSERT_EQ(Out.size(), 3u);
  for (uint64_t I = 0; I != 3; ++I)
    EXPECT_EQ(Out[I].A, I);

  // Truncate mid-record: the reader keeps the complete prefix and
  // reports the damage.
  ASSERT_EQ(truncate(Path.c_str(),
                     16 + sizeof(TraceEvent) + sizeof(TraceEvent) / 2),
            0);
  Out.clear();
  EXPECT_FALSE(readTraceFragment(Path, Out));
  EXPECT_EQ(Out.size(), 1u);
  unlink(Path.c_str());
}

TEST(TraceExporter, AppendfGrowsPastStackBuffer) {
  // appendf used a fixed 256-byte stack buffer and never checked
  // vsnprintf's return value, so any record longer than that was
  // silently truncated mid-JSON. Long output must now be re-formatted
  // into an exact-size buffer, byte-complete.
  std::string LongName(500, 'n');
  std::string Out = "prefix:";
  appendf(Out, "{\"name\": \"%s\", \"v\": %d}", LongName.c_str(), 7);
  std::string Expect = "prefix:{\"name\": \"" + LongName + "\", \"v\": 7}";
  EXPECT_EQ(Out, Expect);
  // Short output still takes the stack-buffer fast path.
  appendf(Out, "+%d", 42);
  EXPECT_EQ(Out, Expect + "+42");
  // Exactly at the boundary (255 chars + NUL fits, 256 does not).
  for (size_t Len : {255u, 256u, 257u}) {
    std::string Pad(Len, 'x');
    std::string S;
    appendf(S, "%s", Pad.c_str());
    EXPECT_EQ(S, Pad);
  }
}

TEST(TraceExporter, CorruptFragmentHeaderCountIsClamped) {
  // A valid magic followed by a garbage record count used to size the
  // output buffer straight from the header — a multi-GB allocation from
  // a 16-byte file. The count must be clamped to what the file holds.
  std::string Path =
      "/tmp/wbt-obs-frag-corrupt." + std::to_string(getpid()) + ".bin";
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  const char Magic[8] = {'W', 'B', 'T', 'F', '1', 0, 0, 0};
  uint64_t HugeN = uint64_t(1) << 56;
  ASSERT_EQ(std::fwrite(Magic, 1, sizeof(Magic), F), sizeof(Magic));
  ASSERT_EQ(std::fwrite(&HugeN, sizeof(HugeN), 1, F), 1u);
  // One complete record follows; the header claims 2^56.
  TraceEvent One = ev(EventKind::Fold, 42, 0, 0);
  ASSERT_EQ(std::fwrite(&One, sizeof(One), 1, F), 1u);
  std::fclose(F);

  std::vector<TraceEvent> Out;
  EXPECT_FALSE(readTraceFragment(Path, Out));
  ASSERT_EQ(Out.size(), 1u); // the one real record survives
  EXPECT_EQ(Out[0].A, 42u);

  // Garbage magic is rejected outright.
  F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  ASSERT_EQ(std::fwrite("garbage!", 1, 8, F), 8u);
  std::fclose(F);
  Out.clear();
  EXPECT_FALSE(readTraceFragment(Path, Out));
  EXPECT_TRUE(Out.empty());
  unlink(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Runtime-level scenarios
//===----------------------------------------------------------------------===//

/// Runs \p Scenario in a forked child; returns its exit code.
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

int scenarioPoolRegionTraceFile() {
  // A pool region with one killed worker, traced to a file: after
  // finish() the file must hold balanced span tracks for every pid and
  // the span/event names the exporter promises.
  using namespace wbt::proc;
  std::string Path =
      "/tmp/wbt-obs-trace-test." + std::to_string(getpid()) + ".json";
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 45;
  Opts.Backend = StoreBackend::Shm;
  Opts.TracePath = Path;
  Rt.init(Opts);
  CHECK_OR(Rt.traceEnabled(), 2);

  const int N = 12;
  int Committed = -1;
  RegionOptions Ro;
  Ro.Workers = 2;
  Rt.samplingRegion(N, Ro, [&] {
    double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
    if (Rt.sampleIndex() == 0 && Rt.sampleAttempt() == 1)
      raise(SIGKILL); // first holder of lease 0 dies holding it
    if (Rt.isSampling())
      Rt.aggregate("x", encodeDouble(X), nullptr);
    Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
      Committed = V.countStatus(SampleStatus::Committed);
    });
  });
  CHECK_OR(Committed == N, 3);
  RuntimeMetrics M = Rt.metrics();
  CHECK_OR(M.LeaseReclaims >= 1, 4);
  CHECK_OR(M.TraceEvents > 0, 5);
  CHECK_OR(M.RegionsResolved == 1, 6);
  CHECK_OR(M.ShmCommits == static_cast<uint64_t>(N), 7);
  Rt.finish();

  std::FILE *F = std::fopen(Path.c_str(), "r");
  CHECK_OR(F != nullptr, 8);
  std::string Json;
  char Buf[4096];
  size_t R;
  while ((R = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Json.append(Buf, R);
  std::fclose(F);
  unlink(Path.c_str());

  CHECK_OR(!Json.empty() && Json[0] == '{', 9);
  CHECK_OR(bracesBalanced(Json), 10);
  // Spans balance on every track, the killed worker's included.
  for (const auto &[Pid, Bal] : spanBalance(Json))
    CHECK_OR(Bal == 0, 11);
  // The advertised event families all appear.
  CHECK_OR(countSub(Json, "\"name\": \"region\"") >= 2, 12); // B + E
  CHECK_OR(countSub(Json, "\"name\": \"lease\"") >= 2, 13);
  CHECK_OR(countSub(Json, "\"name\": \"fork\"") >= 2, 14);
  CHECK_OR(countSub(Json, "\"name\": \"commit-shm\"") >= 1, 15);
  CHECK_OR(countSub(Json, "\"name\": \"worker\"") >= 1, 16);
  CHECK_OR(countSub(Json, "\"name\": \"lease-reclaim\"") >= 1, 17);
  return 0;
}

int scenarioTinyRingCountsDrops() {
  // An 8-cell ring under a fork-mode region that emits dozens of events
  // before the first supervisor drain: the overflow is counted, the
  // drained prefix is intact, and nothing blocks.
  using namespace wbt::proc;
  std::string Path =
      "/tmp/wbt-obs-drop-test." + std::to_string(getpid()) + ".json";
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  // MaxPool above the sample count: the spawn loop never waits (and so
  // never sweeps/drains) before aggregate(), guaranteeing the parent
  // alone overflows the ring with SchedAdmit + Fork events.
  Opts.MaxPool = 16;
  Opts.Seed = 46;
  Opts.Backend = StoreBackend::Shm;
  Opts.TracePath = Path;
  Opts.TraceRingRecords = 4; // rounds up to the 8-cell floor
  Rt.init(Opts);

  const int N = 8;
  Rt.sampling(N);
  double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling())
    Rt.aggregate("x", encodeDouble(X), nullptr);
  int Committed = -1;
  Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
    Committed = V.countStatus(SampleStatus::Committed);
  });
  CHECK_OR(Committed == N, 2);
  RuntimeMetrics M = Rt.metrics();
  CHECK_OR(M.TraceDrops >= 1, 3);
  CHECK_OR(M.TraceEvents >= 8, 4); // a full ring's worth survived
  Rt.finish();
  unlink(Path.c_str());
  return 0;
}

int scenarioTmpdirHonored() {
  // Satellite: the file-store root honors TMPDIR instead of hard-coding
  // /tmp.
  using namespace wbt::proc;
  std::string Root = "/tmp/wbt-tmpdir-test." + std::to_string(getpid());
  CHECK_OR(mkdir(Root.c_str(), 0755) == 0, 2);
  setenv("TMPDIR", Root.c_str(), 1);
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 4;
  Opts.Seed = 47;
  Rt.init(Opts);
  CHECK_OR(Rt.runDir().rfind(Root + "/wbtuner.", 0) == 0, 3);
  Rt.sampling(2);
  double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling())
    Rt.aggregate("x", encodeDouble(X), nullptr);
  int Committed = -1;
  Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
    Committed = V.countStatus(SampleStatus::Committed);
  });
  CHECK_OR(Committed == 2, 4);
  Rt.finish();
  // finish() removed its run dir; only our (now empty) root remains.
  CHECK_OR(rmdir(Root.c_str()) == 0, 5);
  return 0;
}

/// Blocking HTTP/1.0 GET of /metrics against 127.0.0.1:\p Port. Empty
/// string on any failure (same shape as wbt-top's scrape).
std::string scrapeMetrics(uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return {};
  sockaddr_in Sa{};
  Sa.sin_family = AF_INET;
  Sa.sin_port = htons(Port);
  Sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Sa), sizeof(Sa)) != 0) {
    ::close(Fd);
    return {};
  }
  const char Req[] = "GET /metrics HTTP/1.0\r\n\r\n";
  if (::send(Fd, Req, sizeof(Req) - 1, 0) != ssize_t(sizeof(Req) - 1)) {
    ::close(Fd);
    return {};
  }
  std::string Resp;
  char Buf[4096];
  for (;;) {
    ssize_t R = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (R < 0 && errno == EINTR)
      continue;
    if (R <= 0)
      break;
    Resp.append(Buf, size_t(R));
  }
  ::close(Fd);
  size_t Split = Resp.find("\r\n\r\n");
  return Split == std::string::npos ? std::string() : Resp.substr(Split + 4);
}

/// Scraper-child body: take ten live snapshots from the endpoint while
/// the tuning parent keeps running regions, proving counters only ever
/// move forward across scrapes and the histogram families are present.
int scrapeLoop(uint16_t Port) {
  alarm(10); // failsafe: a wedged scrape must not hang the test
  const char Key[] = "wbt_regions_resolved ";
  double Prev = -1;
  for (int Good = 0; Good != 10;) {
    std::string Body = scrapeMetrics(Port);
    if (Body.empty()) {
      usleep(2000);
      continue;
    }
    size_t P = Body.find(Key);
    if (P == std::string::npos)
      return 40;
    if (Body.find("# TYPE wbt_region_latency_us histogram") ==
        std::string::npos)
      return 41;
    double V = std::strtod(Body.c_str() + P + sizeof(Key) - 1, nullptr);
    if (V < Prev)
      return 42; // a counter moved backwards between scrapes
    Prev = V;
    ++Good;
    usleep(5000);
  }
  return 0;
}

int scenarioLiveMetricsEndpoint() {
  // Tentpole end-to-end: the threadless scrape endpoint answers live
  // queries from the supervisor's own pump cadence while regions run,
  // noteScore feeds the score gauges and emits Progress trace events,
  // and RegionLatency counts one sample per resolved region.
  using namespace wbt::proc;
  std::string Path =
      "/tmp/wbt-obs-telemetry-test." + std::to_string(getpid()) + ".json";
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 4;
  Opts.Seed = 48;
  Opts.Backend = StoreBackend::Shm;
  Opts.TracePath = Path;
  Opts.MetricsAddress = "127.0.0.1:0"; // ephemeral port
  Rt.init(Opts);
  uint16_t Port = Rt.metricsPort();
  CHECK_OR(Port != 0, 2);

  pid_t Scraper = fork();
  CHECK_OR(Scraper >= 0, 3);
  if (Scraper == 0)
    _exit(scrapeLoop(Port));

  // Keep resolving regions (each settle and sweep pumps the endpoint)
  // until the scraper has its ten snapshots.
  int Status = 0;
  int Regions = 0;
  pid_t W = 0;
  while ((W = waitpid(Scraper, &Status, WNOHANG)) == 0) {
    CHECK_OR(++Regions <= 200, 4);
    RegionOptions Ro;
    Ro.Workers = 2;
    Rt.samplingRegion(6, Ro, [&] {
      double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
      usleep(2000); // keep the region open across a few sweeps
      if (Rt.isSampling())
        Rt.aggregate("x", encodeDouble(X), nullptr);
      Rt.aggregate("x", encodeDouble(0), nullptr);
    });
    Rt.noteScore(0.25 + 0.01 * Regions, /*Samples=*/6);
  }
  CHECK_OR(W == Scraper, 5);
  CHECK_OR(WIFEXITED(Status) && WEXITSTATUS(Status) == 0,
           100 + (WIFEXITED(Status) ? WEXITSTATUS(Status) : 99));

  RuntimeMetrics M = Rt.metrics();
  CHECK_OR(M.RegionsResolved == uint64_t(Regions), 6);
  CHECK_OR(M.RegionLatency.total() == uint64_t(Regions), 7);
  CHECK_OR(M.ScoresNoted == uint64_t(Regions), 8);
  CHECK_OR(M.ScoreLast == 0.25 + 0.01 * Regions, 9);
  CHECK_OR(M.ScoreMin == 0.25 + 0.01 * 1, 10);
  CHECK_OR(M.ScoreMax == M.ScoreLast, 11);
  Rt.finish();

  // finish() tears the endpoint down with the run.
  CHECK_OR(scrapeMetrics(Port).empty(), 12);

  // Progress events surface as a "score" counter track in the export.
  std::FILE *F = std::fopen(Path.c_str(), "r");
  CHECK_OR(F != nullptr, 13);
  std::string Json;
  char Buf[4096];
  size_t R;
  while ((R = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Json.append(Buf, R);
  std::fclose(F);
  unlink(Path.c_str());
  CHECK_OR(bracesBalanced(Json), 14);
  CHECK_OR(countSub(Json, "\"name\": \"score\"") >= size_t(Regions), 15);
  CHECK_OR(countSub(Json, "\"ph\": \"C\"") >= 1, 16);
  return 0;
}

TEST(ObsRuntime, PoolRegionTraceFile) {
  EXPECT_EQ(runScenario(scenarioPoolRegionTraceFile), 0);
}

TEST(ObsRuntime, TinyRingCountsDrops) {
  EXPECT_EQ(runScenario(scenarioTinyRingCountsDrops), 0);
}

TEST(ObsRuntime, TmpdirHonored) {
  EXPECT_EQ(runScenario(scenarioTmpdirHonored), 0);
}

TEST(ObsRuntime, LiveMetricsEndpoint) {
  EXPECT_EQ(runScenario(scenarioLiveMetricsEndpoint), 0);
}

TEST(ObsRuntime, NoteScoreBeforeInitAborts) {
  // Regression: this guard was an assert(), so a Release build silently
  // recorded scores into an uninitialized runtime. It must die loudly
  // in every build now (sys::fatal -> SIGABRT).
  std::fflush(stderr);
  pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    if (!std::freopen("/dev/null", "w", stderr))
      _exit(98); // keep the expected fatal banner out of the test log
    wbt::proc::Runtime::get().noteScore(1.0, 1);
    _exit(0); // surviving the call is the bug
  }
  int Status = 0;
  ASSERT_EQ(waitpid(Pid, &Status, 0), Pid);
  EXPECT_TRUE(WIFSIGNALED(Status));
  EXPECT_EQ(WTERMSIG(Status), SIGABRT);
}

} // namespace
