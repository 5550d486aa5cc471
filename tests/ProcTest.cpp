//===- tests/ProcTest.cpp - fork-based runtime tests ----------------------===//
//
// Part of the WBTuner reproduction, MIT license.
//
// The fork-based runtime is a per-process singleton, so each scenario runs
// inside its own forked subprocess: the test body forks, the child drives
// the runtime and reports back through its exit code (0 = all internal
// expectations held).
//
//===----------------------------------------------------------------------===//

#include "proc/Runtime.h"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

using namespace wbt;
using namespace wbt::proc;

namespace {

/// Runs \p Scenario in a forked child; returns its exit code. The child
/// gets its own process group, and the group is SIGKILLed once the child
/// is reaped: a scenario that fails a check exits without finish(), and
/// the workers and agents it abandons would otherwise outlive the
/// test holding its output pipe open (which wedges ctest, not just the
/// one test).
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

/// CLOCK_MONOTONIC now, in seconds.
double monoSeconds() {
  timespec T;
  clock_gettime(CLOCK_MONOTONIC, &T);
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_nsec) * 1e-9;
}

/// A counter shared across processes, owned by the test: the scenarios
/// below check what sampling children and @split tuning processes did
/// by having each of them add into one. Count is bumped last, with
/// release, so a reader that sees a count also sees the values it
/// counts.
struct SharedCell {
  std::atomic<int64_t> Sum{0};
  std::atomic<int64_t> Min{std::numeric_limits<int64_t>::max()};
  std::atomic<int64_t> Max{std::numeric_limits<int64_t>::min()};
  std::atomic<int64_t> Count{0};

  void add(int64_t X) {
    Sum.fetch_add(X);
    int64_t Cur = Min.load();
    while (X < Cur && !Min.compare_exchange_weak(Cur, X)) {
    }
    Cur = Max.load();
    while (X > Cur && !Max.compare_exchange_weak(Cur, X)) {
    }
    Count.fetch_add(1, std::memory_order_release);
  }
  int64_t count() const { return Count.load(std::memory_order_acquire); }
};

/// Maps eight SharedCells MAP_SHARED. Call before the runtime forks
/// anything, so every descendant inherits the same cells.
SharedCell *mapSharedCells() {
  constexpr int NumCells = 8;
  void *Mem = mmap(nullptr, NumCells * sizeof(SharedCell),
                   PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (Mem == MAP_FAILED)
    abort();
  auto *Cells = static_cast<SharedCell *>(Mem);
  for (int I = 0; I != NumCells; ++I)
    new (&Cells[I]) SharedCell();
  return Cells;
}

int scenarioBasicSamplingAggregate() {
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 1;
  Rt.init(Opts);

  const int N = 6;
  Rt.sampling(N);
  double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling()) {
    // Children observe drawn values; commit x^2.
    Rt.aggregate("x2", encodeDouble(X * X), nullptr);
    return 199; // unreachable: aggregate exits sampling processes
  }
  // The tuning process observes the default value (rule [SAMPLE] no-op).
  CHECK_OR(std::fabs(X - 0.5) < 1e-12, 2);

  int Count = 0;
  double Sum = 0.0;
  Rt.aggregate("x2", encodeDouble(X), [&](AggregationView &V) {
    CHECK_OR(V.spawned() == N, 0);
    std::vector<int> Idx = V.committed("x2");
    Count = static_cast<int>(Idx.size());
    for (int I : Idx) {
      double Y = V.loadDouble("x2", I, -1.0);
      CHECK_OR(Y >= 0.0 && Y <= 1.0, 0);
      Sum += Y;
    }
    return 0;
  });
  CHECK_OR(Count == N, 3);
  CHECK_OR(Sum > 0.0, 4);
  Rt.finish();
  return 0;
}

int scenarioCheckPrunes() {
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 2;
  Rt.init(Opts);

  const int N = 10;
  Rt.sampling(N);
  double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
  // Prune the lower half (rule [CHECK] terminates sampling processes).
  Rt.check(X >= 0.5);
  if (Rt.isSampling())
    Rt.aggregate("x", encodeDouble(X), nullptr);

  int Committed = 0;
  double Min = 1e9;
  Rt.aggregate("x", encodeDouble(X), [&](AggregationView &V) {
    for (int I : V.committed("x")) {
      ++Committed;
      Min = std::min(Min, V.loadDouble("x", I));
    }
  });
  CHECK_OR(Committed > 0 && Committed < N, 2);
  CHECK_OR(Min >= 0.5, 3);
  Rt.finish();
  return 0;
}

int scenarioStratifiedCoversStrata() {
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 3;
  Rt.init(Opts);

  const int N = 8;
  Rt.sampling(N, SamplingKind::Stratified);
  double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling())
    Rt.aggregate("x", encodeDouble(X), nullptr);

  int Strata = 0;
  Rt.aggregate("x", encodeDouble(X), [&](AggregationView &V) {
    std::vector<bool> Hit(N, false);
    for (int I : V.committed("x")) {
      double Y = V.loadDouble("x", I);
      int S = std::min(N - 1, static_cast<int>(Y * N));
      if (!Hit[S]) {
        Hit[S] = true;
        ++Strata;
      }
    }
  });
  CHECK_OR(Strata == N, 2); // every stratum hit exactly once
  Rt.finish();
  return 0;
}

int scenarioExposeLoad() {
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 4;
  Opts.Seed = 4;
  Rt.init(Opts);

  // Expose a value before the region; read it inside the aggregation
  // callback (the paper's imgSize pattern, Fig. 4).
  Rt.expose("imgSize", encodeDouble(640.0));

  Rt.sampling(3);
  double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling())
    Rt.aggregate("x", encodeDouble(X), nullptr);

  double Loaded = 0;
  Rt.aggregate("x", encodeDouble(X), [&](AggregationView &) {
    std::vector<uint8_t> Bytes;
    if (Rt.load("imgSize", Bytes))
      Loaded = decodeDouble(Bytes);
  });
  CHECK_OR(Loaded == 640.0, 2);
  Rt.finish();
  return 0;
}

int scenarioSplitContinues() {
  SharedCell *Cells = mapSharedCells();
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 5;
  Rt.init(Opts);

  const int N = 4;
  Rt.sampling(N);
  double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling())
    Rt.aggregate("x", encodeDouble(X), nullptr);

  // Split one child tuning process per committed sample > 0.3; each
  // counts itself only if its inherited value is one of them, proving it
  // carried the regular store across the split.
  bool IsSplitChild = false;
  double Carried = 0.0;
  int Expected = 0;
  Rt.aggregate("x", encodeDouble(X), [&](AggregationView &V) {
    for (int I : V.committed("x")) {
      double Y = V.loadDouble("x", I);
      if (Y <= 0.3)
        continue;
      ++Expected;
      if (Rt.split()) {
        IsSplitChild = true;
        Carried = Y;
        return;
      }
    }
  });
  if (IsSplitChild) {
    if (Carried > 0.3)
      Cells[0].add(1);
    Rt.finishAndExit();
  }
  // The root waits for its split children inside finish().
  Rt.finish();
  CHECK_OR(Expected > 0, 2);
  CHECK_OR(Cells[0].count() == Expected, 3);
  return 0;
}

int scenarioSplitSharedAccumulator() {
  SharedCell *Cells = mapSharedCells();
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 6;
  Rt.init(Opts);

  // Three split children each add 1 into cell 1.
  for (int I = 0; I != 3; ++I) {
    if (Rt.split()) {
      Cells[1].add(1);
      Rt.finishAndExit();
    }
  }
  // Wait for all three contributions while the runtime is still up.
  while (Cells[1].count() < 3)
    usleep(1000);
  CHECK_OR(Cells[1].count() == 3, 2);
  CHECK_OR(Cells[1].Sum.load() == 3, 3); // mean 1.0
  Rt.finish();
  return 0;
}

int scenarioSyncBarrier() {
  SharedCell *Cells = mapSharedCells();
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8; // region of 4 fits the pool, as sync requires
  Opts.Seed = 7;
  Rt.init(Opts);

  const int N = 4;
  Rt.sampling(N);
  (void)Rt.sample("x", Distribution::uniform(0.0, 1.0));
  // Phase 1: every child counts itself into the shared cell.
  if (Rt.isSampling())
    Cells[2].add(1);
  double MidCount = 0;
  Rt.sync([&] { MidCount = static_cast<double>(Cells[2].count()); });
  // After the barrier, all N contributions are visible to everyone.
  if (Rt.isSampling()) {
    double Seen = static_cast<double>(Cells[2].count());
    Rt.aggregate("seen", encodeDouble(Seen), nullptr);
  }
  bool AllSawAll = true;
  Rt.aggregate("seen", encodeDouble(0), [&](AggregationView &V) {
    for (int I : V.committed("seen"))
      AllSawAll = AllSawAll && V.loadDouble("seen", I) >= N;
  });
  CHECK_OR(MidCount == N, 2); // barrier callback saw every contribution
  CHECK_OR(AllSawAll, 3);
  Rt.finish();
  return 0;
}

int scenarioSharedVote() {
  // Majority vote over every sampling process' mask, folded tuning-side
  // as the commits arrive (paper Sec. IV-B's MV aggregation).
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 8;
  Rt.init(Opts);

  const int N = 5;
  Rt.sampling(N);
  (void)Rt.sample("x", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling()) {
    // Element j set iff j < child index + 2: element 0,1 set by all,
    // element 5 set by one child only.
    std::vector<uint8_t> Mask(8, 0);
    for (int J = 0; J != 8; ++J)
      Mask[J] = J < Rt.sampleIndex() + 2 ? 1 : 0;
    Rt.aggregate("mask", encodeVector(Mask), nullptr);
  }
  VoteAccumulator &Votes = Rt.foldVote("mask");
  std::vector<uint8_t> Result;
  size_t Runs = 0;
  Rt.aggregate("mask", {}, [&](AggregationView &) {
    Result = Votes.result(0.5);
    Runs = Votes.runs();
  });
  CHECK_OR(Result.size() == 8, 2);
  CHECK_OR(Result[0] == 1 && Result[1] == 1, 3); // set in all 5 runs
  CHECK_OR(Result[3] == 1, 4);                   // set in 3/5 runs
  CHECK_OR(Result[4] == 0 && Result[7] == 0, 5); // set in <=2/5 runs
  CHECK_OR(Runs == 5, 6);
  Rt.finish();
  return 0;
}

int scenarioMultiRegion() {
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 9;
  Rt.init(Opts);

  // Region 1 tunes x; the tuning process aggregates the best x.
  double BestX = 0.0;
  Rt.sampling(6);
  double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling())
    Rt.aggregate("x", encodeDouble(X), nullptr);
  Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
    for (int I : V.committed("x"))
      BestX = std::max(BestX, V.loadDouble("x", I));
  });
  CHECK_OR(BestX > 0.0, 2);

  // Region 2 reuses the same (still running) execution — the paper's m*n
  // model — and tunes y on top of the aggregated x.
  double BestSum = 0.0;
  Rt.sampling(6);
  double Y = Rt.sample("y", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling())
    Rt.aggregate("sum", encodeDouble(BestX + Y), nullptr);
  Rt.aggregate("sum", encodeDouble(0), [&](AggregationView &V) {
    for (int I : V.committed("sum"))
      BestSum = std::max(BestSum, V.loadDouble("sum", I));
  });
  CHECK_OR(BestSum >= BestX, 3);
  Rt.finish();
  return 0;
}

int scenarioCommitExtraVariables() {
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 10;
  Rt.init(Opts);

  Rt.sampling(4);
  double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling()) {
    Rt.commitExtra("twice", encodeDouble(2 * X));
    Rt.aggregate("x", encodeDouble(X), nullptr);
  }
  bool Consistent = true;
  int Seen = 0;
  Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
    for (int I : V.committed("x")) {
      double A = V.loadDouble("x", I);
      double B = V.loadDouble("twice", I);
      Consistent = Consistent && std::fabs(B - 2 * A) < 1e-12;
      ++Seen;
    }
  });
  CHECK_OR(Seen == 4, 2);
  CHECK_OR(Consistent, 3);
  Rt.finish();
  return 0;
}

int scenarioSchedulerDisabled() {
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 2; // tiny pool, but gating is off
  Opts.UseScheduler = false;
  Opts.Seed = 11;
  Rt.init(Opts);

  Rt.sampling(8);
  double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling())
    Rt.aggregate("x", encodeDouble(X), nullptr);
  int Count = 0;
  Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
    Count = static_cast<int>(V.committed("x").size());
  });
  CHECK_OR(Count == 8, 2);
  Rt.finish();
  return 0;
}

} // namespace

TEST(ProcRuntimeTest, BasicSamplingAggregate) {
  EXPECT_EQ(runScenario(scenarioBasicSamplingAggregate), 0);
}

TEST(ProcRuntimeTest, CheckPrunesPoorRuns) {
  EXPECT_EQ(runScenario(scenarioCheckPrunes), 0);
}

TEST(ProcRuntimeTest, StratifiedSamplingCoversStrata) {
  EXPECT_EQ(runScenario(scenarioStratifiedCoversStrata), 0);
}

TEST(ProcRuntimeTest, ExposeAndLoadCrossScopes) {
  EXPECT_EQ(runScenario(scenarioExposeLoad), 0);
}

TEST(ProcRuntimeTest, SplitSpawnsTuningProcesses) {
  EXPECT_EQ(runScenario(scenarioSplitContinues), 0);
}

TEST(ProcRuntimeTest, SplitChildrenShareAccumulators) {
  EXPECT_EQ(runScenario(scenarioSplitSharedAccumulator), 0);
}

TEST(ProcRuntimeTest, SyncBarrierOrdersPhases) {
  EXPECT_EQ(runScenario(scenarioSyncBarrier), 0);
}

TEST(ProcRuntimeTest, SharedMajorityVote) {
  EXPECT_EQ(runScenario(scenarioSharedVote), 0);
}

TEST(ProcRuntimeTest, MultiRegionReusesExecution) {
  EXPECT_EQ(runScenario(scenarioMultiRegion), 0);
}

TEST(ProcRuntimeTest, MultipleResultVariables) {
  EXPECT_EQ(runScenario(scenarioCommitExtraVariables), 0);
}

TEST(ProcRuntimeTest, SchedulerDisabledStillCompletes) {
  EXPECT_EQ(runScenario(scenarioSchedulerDisabled), 0);
}

namespace {

int scenarioDeepSplitChain() {
  // A split child that splits again: the live-tuning-process accounting
  // must cover grandchildren, and each generation carries its state.
  SharedCell *Cells = mapSharedCells();
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  // Nested tuning spawns need headroom under the 75% gate: with pool 16
  // the root + child (2 busy) still leave > 12 slots free.
  Opts.MaxPool = 16;
  Opts.Seed = 12;
  Rt.init(Opts);

  int Depth = 0;
  if (Rt.split()) {
    Depth = 1;
    if (Rt.split()) {
      Depth = 2;
      Cells[3].add(Depth);
      Rt.finishAndExit();
    }
    Cells[3].add(Depth);
    Rt.finishAndExit();
  }
  while (Cells[3].count() < 2)
    usleep(1000);
  CHECK_OR(Cells[3].Min.load() == 1, 2);
  CHECK_OR(Cells[3].Max.load() == 2, 3);
  Rt.finish();
  return 0;
}

/// The probe of a nested @split on a small pool: the root splits, the
/// child splits again, and every process calls finish() right away. A
/// finish() that waits on its split child while it still holds its pool
/// slot starves the child's own split() at the 75% gate, so at MaxPool
/// <= 4 the run hangs; the alarm turns that into a fast signal death.
int nestedSplitFinishes(unsigned MaxPool) {
  alarm(10);
  SharedCell *Cells = mapSharedCells();
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = MaxPool;
  Opts.Seed = 13;
  Rt.init(Opts);
  if (Rt.split()) {
    if (Rt.split()) {
      Cells[0].add(2);
      Rt.finishAndExit();
    }
    Cells[0].add(1);
    Rt.finishAndExit();
  }
  Rt.finish();
  // finish() returned, so both descendants are done.
  CHECK_OR(Cells[0].count() == 2, 2);
  CHECK_OR(Cells[0].Min.load() == 1 && Cells[0].Max.load() == 2, 3);
  return 0;
}

/// Tuning processes that die with a region open must leak nothing later
/// regions need: 70 @split children each SIGKILL themselves inside a
/// fork-mode sampling(1) region, then 70 more inside a pool region, and
/// the root still runs one region of each kind and finishes. Region state
/// lent out of a 64-entry shared pool would lose an entry per death, and
/// the 65th region of that kind would wait forever.
int scenarioDeadSplitRegionsLeakNothing() {
  alarm(60);
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 34;
  Rt.init(Opts);

  int Committed = 0;
  auto Body = [&] {
    double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
    if (Rt.isSampling())
      Rt.aggregate("x", encodeDouble(X), nullptr);
    if (Rt.tuningProcessId() != 0)
      raise(SIGKILL); // a split child dies with its region open
    Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
      Committed += V.countStatus(SampleStatus::Committed);
    });
  };
  const int Deaths = 70;
  for (int Pool = 0; Pool != 2; ++Pool) {
    for (int I = 0; I != Deaths; ++I) {
      if (!Rt.split())
        continue;
      if (Pool) {
        Rt.samplingRegion(1, Body);
      } else {
        Rt.sampling(1);
        Body();
      }
      _exit(1); // unreachable: Body killed this process
    }
  }
  Rt.sampling(1);
  Body();
  Rt.samplingRegion(1, Body);
  CHECK_OR(Committed == 2, 2);
  Rt.finish();
  return 0;
}

int scenarioSplitInsidePoolRegions() {
  // split() from inside a pool region's aggregation callback: once in a
  // one-region batch (samplingRegion) and once in the first delivery of
  // a three-region batch. Each split child must leave the region's
  // table, workers and slots to its parent and run what follows on
  // slots of its own -- the batch's child runs the two remaining regions
  // itself, as a split child of sequential regions would. A region run
  // on a stale table delivers short counts.
  SharedCell *Cells = mapSharedCells();
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 16;
  Opts.Seed = 32;
  Rt.init(Opts);

  const int N = 4;
  bool Child = false;
  Rt.samplingRegion(N, [&] {
    double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
    if (Rt.isSampling())
      Rt.aggregate("x", encodeDouble(X), nullptr);
    Rt.aggregate("x", encodeDouble(0), [&](AggregationView &) {
      Child = Rt.split();
    });
  });

  // Parent and child now run sync regions side by side; each sampling
  // child waits until all six exist, so both barriers are live at once.
  const int SyncN = 3;
  Rt.sampling(SyncN);
  (void)Rt.sample("x", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling()) {
    Cells[0].add(1);
    for (int Waited = 0; Cells[0].count() < 2 * SyncN && Waited != 5000;
         ++Waited)
      usleep(1000);
  }
  int Arrived = 0;
  Rt.sync([&] { Arrived = 1; });
  if (Rt.isSampling())
    Rt.aggregate("done", encodeDouble(1), nullptr);
  int SyncCommitted = -1;
  Rt.aggregate("done", encodeDouble(0), [&](AggregationView &V) {
    SyncCommitted = V.countStatus(SampleStatus::Committed);
  });

  // Then a pipelined batch each; the root splits again in its first
  // delivery.
  bool BatchChild = false;
  int Full = 0;
  RegionOptions Ro;
  Ro.Workers = 2;
  Ro.Pipeline = 2;
  Rt.regionBatch(3, N, Ro, [&] {
    double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
    if (Rt.isSampling())
      Rt.aggregate("x", encodeDouble(X), nullptr);
    Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
      Full += V.countStatus(SampleStatus::Committed) == N;
      if (!Child && !BatchChild && Full == 1)
        BatchChild = Rt.split();
    });
  });

  bool Ok = SyncCommitted == SyncN && Arrived == 1 && Full == 3;
  if (Child || BatchChild) {
    if (Ok)
      Cells[1].add(1);
    Rt.finishAndExit();
  }
  Rt.finish();
  CHECK_OR(SyncCommitted == SyncN, 2);
  CHECK_OR(Arrived == 1, 3);
  CHECK_OR(Full == 3, 4);
  CHECK_OR(Cells[0].count() == 2 * SyncN, 5);
  CHECK_OR(Cells[1].count() == 2, 6); // both split children succeeded
  return 0;
}

int scenarioSplitInDeliveryAfterDeadWorker() {
  // split() from a pool delivery's callback on MaxPool 4 while a worker
  // of the batch dies holding a region-2 lease, after region 1's
  // delivery loop has reaped for the last time. That worker's pool slot
  // comes back only when this tuning process reaps it, so the gate must
  // sweep the batch's children between its waits, or the root and its
  // two slots would wait at the gate for good. The alarm turns a
  // regressed deadlock into a fast signal death.
  alarm(10);
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 4;
  Opts.Seed = 33;
  Rt.init(Opts);

  const int N = 4;
  RegionOptions Ro;
  Ro.Workers = 3;
  Ro.Pipeline = 2;
  bool Child = false;
  std::vector<int> Committed;
  Rt.regionBatch(2, N, Ro, [&] {
    double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
    if (Rt.isSampling() && Rt.regionOrdinal() == 2 &&
        Rt.sampleIndex() == 0 && Rt.sampleAttempt() == 1) {
      usleep(50000); // dies while region 1's callback runs
      raise(SIGKILL);
    }
    if (Rt.isSampling())
      Rt.aggregate("x", encodeDouble(X), nullptr);
    Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
      Committed.push_back(V.countStatus(SampleStatus::Committed));
      // Only the root splits: the child runs region 2 as a batch of its
      // own, whose ordinal is 1 again.
      if (Rt.regionOrdinal() == 1 && Rt.tuningProcessId() == 0) {
        usleep(100000);
        Child = Rt.split();
      }
    });
  });
  if (Child)
    Rt.finishAndExit();
  Rt.finish();
  CHECK_OR(Committed.size() == 2, 2);
  CHECK_OR(Committed[0] == N && Committed[1] == N, 3);
  alarm(0);
  return 0;
}

int scenarioSplitOnSmallPool() {
  // Regression: the tuning gate used to count the caller's own held slot
  // as occupancy, so with MaxPool <= 4 FreeSlots could never exceed the
  // 75% threshold and split() blocked forever (stress_runtime seed 124).
  // The alarm turns a regressed deadlock into a fast signal death.
  alarm(20);
  SharedCell *Cells = mapSharedCells();
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 4;
  Opts.Seed = 15;
  Rt.init(Opts);

  if (Rt.split()) {
    Cells[1].add(7);
    Rt.finishAndExit();
  }
  while (Cells[1].count() < 1)
    usleep(1000);
  CHECK_OR(Cells[1].Max.load() == 7, 2);
  Rt.finish();
  alarm(0);
  return 0;
}

int scenarioSplitAfterDeadSplitChild() {
  // MaxPool 4: the root and one split child fill the 75% gate. The first
  // split child abort()s without finish(), leaving its pool slot and its
  // live-tuning-process count behind; only its parent can reclaim them,
  // so the second split() must reap it while it waits at the gate rather
  // than wait for a slot that never comes back. The alarm turns a
  // regressed deadlock into a fast signal death.
  alarm(5);
  SharedCell *Cells = mapSharedCells();
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 4;
  Opts.Seed = 16;
  Rt.init(Opts);

  if (Rt.split())
    abort();
  if (Rt.split()) {
    Cells[2].add(1);
    Rt.finishAndExit();
  }
  while (Cells[2].count() < 1)
    usleep(1000);
  Rt.finish();
  CHECK_OR(Cells[2].count() == 1, 2);
  alarm(0);
  return 0;
}

int scenarioStratifiedDecorrelatesVariables() {
  // Two variables in one stratified region must not be perfectly
  // correlated across children (name-hash permutations differ).
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 13;
  Rt.init(Opts);

  const int N = 8;
  Rt.sampling(N, SamplingKind::Stratified);
  double A = Rt.sample("alpha", Distribution::uniform(0.0, 1.0));
  double B = Rt.sample("bravo", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling()) {
    Rt.commitExtra("a", encodeDouble(A));
    Rt.aggregate("b", encodeDouble(B), nullptr);
  }
  int SameStratum = 0, Count = 0;
  Rt.aggregate("b", encodeDouble(0), [&](AggregationView &V) {
    for (int I : V.committed("b")) {
      double AV = V.loadDouble("a", I);
      double BV = V.loadDouble("b", I);
      SameStratum += static_cast<int>(AV * N) == static_cast<int>(BV * N);
      ++Count;
    }
  });
  CHECK_OR(Count == N, 2);
  // Identical permutations would give SameStratum == N.
  CHECK_OR(SameStratum < N, 3);
  Rt.finish();
  return 0;
}

int scenarioKeepFilesLeavesStore() {
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 4;
  Opts.Seed = 14;
  Opts.KeepFiles = true;
  // Under the default Shm backend commits live in the slab, not on disk;
  // this scenario inspects the on-disk store, so pin the Files backend.
  Opts.Backend = StoreBackend::Files;
  Rt.init(Opts);
  std::string Dir = Rt.runDir();

  Rt.sampling(2);
  double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling())
    Rt.aggregate("x", encodeDouble(X), nullptr);
  Rt.aggregate("x", encodeDouble(X), nullptr);
  Rt.finish();
  // With KeepFiles the run directory must survive for inspection.
  CHECK_OR(access(Dir.c_str(), R_OK) == 0, 2);
  CHECK_OR(access((Dir + "/tp0/r1/x.0").c_str(), R_OK) == 0, 3);
  std::string Cmd = "rm -rf '" + Dir + "'";
  CHECK_OR(std::system(Cmd.c_str()) == 0, 4);
  return 0;
}

int scenarioConsecutiveSyncBarriers() {
  // Two @sync points in one region: the generation counter must separate
  // them.
  SharedCell *Cells = mapSharedCells();
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 15;
  Rt.init(Opts);

  Rt.sampling(3);
  (void)Rt.sample("x", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling())
    Cells[4].add(1);
  double AtFirst = -1, AtSecond = -1;
  Rt.sync([&] { AtFirst = static_cast<double>(Cells[4].count()); });
  if (Rt.isSampling())
    Cells[4].add(1);
  Rt.sync([&] { AtSecond = static_cast<double>(Cells[4].count()); });
  if (Rt.isSampling())
    Rt.aggregate("done", encodeDouble(1), nullptr);
  Rt.aggregate("done", encodeDouble(0), nullptr);
  CHECK_OR(AtFirst == 3, 2);
  CHECK_OR(AtSecond == 6, 3);
  Rt.finish();
  return 0;
}

} // namespace

TEST(ProcRuntimeTest, SplitCompletesOnSmallPool) {
  EXPECT_EQ(runScenario(scenarioSplitOnSmallPool), 0);
}

TEST(ProcRuntimeTest, SplitInDeliveryAfterDeadWorker) {
  EXPECT_EQ(runScenario(scenarioSplitInDeliveryAfterDeadWorker), 0);
}

TEST(ProcRuntimeTest, SplitAfterDeadSplitChild) {
  EXPECT_EQ(runScenario(scenarioSplitAfterDeadSplitChild), 0);
}

TEST(ProcRuntimeTest, SplitInsidePoolRegions) {
  EXPECT_EQ(runScenario(scenarioSplitInsidePoolRegions), 0);
}

TEST(ProcRuntimeTest, DeepSplitChains) {
  EXPECT_EQ(runScenario(scenarioDeepSplitChain), 0);
}

TEST(ProcRuntimeTest, NestedSplitFinishesOnSmallPool) {
  EXPECT_EQ(runScenario([] { return nestedSplitFinishes(2); }), 0);
  EXPECT_EQ(runScenario([] { return nestedSplitFinishes(4); }), 0);
}

TEST(ProcRuntimeTest, DeadSplitRegionsLeakNothing) {
  EXPECT_EQ(runScenario(scenarioDeadSplitRegionsLeakNothing), 0);
}

TEST(ProcRuntimeTest, StratifiedVariablesDecorrelated) {
  EXPECT_EQ(runScenario(scenarioStratifiedDecorrelatesVariables), 0);
}

TEST(ProcRuntimeTest, KeepFilesPreservesAggregationStore) {
  EXPECT_EQ(runScenario(scenarioKeepFilesLeavesStore), 0);
}

TEST(ProcRuntimeTest, ConsecutiveSyncBarriers) {
  EXPECT_EQ(runScenario(scenarioConsecutiveSyncBarriers), 0);
}

//===----------------------------------------------------------------------===//
// Failure paths: the child supervisor
//===----------------------------------------------------------------------===//

namespace {

int scenarioChildAborts() {
  // A sampling child that abort()s never runs its cleanup; the supervisor
  // must reap it, reclaim its pool slot, and report Crashed(SIGABRT).
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 16;
  Rt.init(Opts);

  int FreeBefore = Rt.freeSlots();
  const int N = 4;
  Rt.sampling(N);
  double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling()) {
    if (Rt.sampleIndex() == 1)
      abort();
    Rt.aggregate("x", encodeDouble(X), nullptr);
  }
  int Committed = -1, Crashed = -1, Sig = -1;
  Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
    Committed = V.countStatus(SampleStatus::Committed);
    Crashed = V.countStatus(SampleStatus::Crashed);
    for (int I = 0; I != V.spawned(); ++I)
      if (V.status(I) == SampleStatus::Crashed)
        Sig = V.crashSignal(I);
  });
  CHECK_OR(Committed == N - 1, 2);
  CHECK_OR(Crashed == 1, 3);
  CHECK_OR(Sig == SIGABRT, 4);
  CHECK_OR(Rt.freeSlots() == FreeBefore, 5); // slot reclaimed
  CHECK_OR(Rt.crashedSamples() == 1, 6);
  Rt.finish();
  return 0;
}

int scenarioChildKilledBeforeCommit() {
  // SIGKILL leaves no chance to clean up at all — the hardest death.
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 17;
  Rt.init(Opts);

  int FreeBefore = Rt.freeSlots();
  const int N = 5;
  Rt.sampling(N);
  double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling()) {
    if (Rt.sampleIndex() == 2)
      raise(SIGKILL);
    Rt.aggregate("x", encodeDouble(X), nullptr);
  }
  int Committed = -1, Crashed = -1, Sig = -1;
  Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
    Committed = static_cast<int>(V.committed("x").size());
    Crashed = V.countStatus(SampleStatus::Crashed);
    Sig = V.crashSignal(2);
  });
  CHECK_OR(Committed == N - 1, 2);
  CHECK_OR(Crashed == 1, 3);
  CHECK_OR(Sig == SIGKILL, 4);
  CHECK_OR(Rt.freeSlots() == FreeBefore, 5);
  Rt.finish();
  return 0;
}

int scenarioAllPruned() {
  // Every child pruned by @check: aggregate() must still complete, with
  // an empty committed set and N Pruned records.
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 18;
  Rt.init(Opts);

  const int N = 6;
  Rt.sampling(N);
  (void)Rt.sample("x", Distribution::uniform(0.0, 1.0));
  Rt.check(!Rt.isSampling()); // prunes every sampling child
  if (Rt.isSampling())
    return 199; // unreachable
  int Committed = -1, Pruned = -1;
  Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
    Committed = static_cast<int>(V.committed("x").size());
    Pruned = V.countStatus(SampleStatus::Pruned);
  });
  CHECK_OR(Committed == 0, 2);
  CHECK_OR(Pruned == N, 3);
  Rt.finish();
  return 0;
}

int scenarioTimeoutKillsStraggler() {
  // One child sleeps far past the region budget; the supervisor SIGKILLs
  // it and reports TimedOut while the others commit normally.
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 19;
  Rt.init(Opts);

  int FreeBefore = Rt.freeSlots();
  const int N = 4;
  RegionOptions Ro;
  Ro.TimeoutSec = 0.3;
  Rt.sampling(N, Ro);
  double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling()) {
    if (Rt.sampleIndex() == 0)
      sleep(30); // far past the budget; SIGKILL arrives first
    Rt.aggregate("x", encodeDouble(X), nullptr);
  }
  int Committed = -1, TimedOut = -1;
  Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
    Committed = V.countStatus(SampleStatus::Committed);
    TimedOut = V.countStatus(SampleStatus::TimedOut);
  });
  CHECK_OR(Committed == N - 1, 2);
  CHECK_OR(TimedOut == 1, 3);
  CHECK_OR(Rt.freeSlots() == FreeBefore, 4);
  CHECK_OR(Rt.timedOutSamples() == 1, 5);
  Rt.finish();
  return 0;
}

int scenarioAbortPlusTimeout() {
  // Acceptance scenario: one child abort()s AND another sleeps past the
  // region timeout. aggregate() must complete without deadlock, both pool
  // slots must be reclaimed, and both statuses must be surfaced.
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 20;
  Opts.SampleTimeoutSec = 0.4; // via RuntimeOptions, not the override
  Rt.init(Opts);

  int FreeBefore = Rt.freeSlots();
  const int N = 5;
  Rt.sampling(N);
  double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling()) {
    if (Rt.sampleIndex() == 1)
      abort();
    if (Rt.sampleIndex() == 3)
      sleep(30);
    Rt.aggregate("x", encodeDouble(X), nullptr);
  }
  int Committed = -1, Crashed = -1, TimedOut = -1;
  Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
    Committed = V.countStatus(SampleStatus::Committed);
    Crashed = V.countStatus(SampleStatus::Crashed);
    TimedOut = V.countStatus(SampleStatus::TimedOut);
  });
  CHECK_OR(Committed == N - 2, 2);
  CHECK_OR(Crashed == 1, 3);
  CHECK_OR(TimedOut == 1, 4);
  CHECK_OR(Rt.freeSlots() == FreeBefore, 5); // both slots reclaimed
  Rt.finish();
  return 0;
}

int scenarioDeadlineAtAdmissionGate() {
  // MaxPool 3 runs two samples beside the root, so samples 2 and 3 queue
  // at the admission gate behind samples 0 and 1, which sleep far past
  // the region budget. The spawn loop runs the deadline step while it
  // waits: the sleepers are killed as TimedOut, the queued samples retire
  // TimedOut without ever being forked, and the region resolves on time
  // with no sample Crashed.
  alarm(20);
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 3;
  Opts.Seed = 26;
  Rt.init(Opts);

  int FreeBefore = Rt.freeSlots();
  const int N = 4;
  RegionOptions Ro;
  Ro.TimeoutSec = 0.15;
  double T0 = monoSeconds();
  Rt.sampling(N, Ro);
  double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling()) {
    if (Rt.sampleIndex() < 2)
      sleep(2); // far past the budget; SIGKILL arrives first
    Rt.aggregate("x", encodeDouble(X), nullptr);
  }
  int TimedOut = -1, Crashed = -1;
  Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
    TimedOut = V.countStatus(SampleStatus::TimedOut);
    Crashed = V.countStatus(SampleStatus::Crashed);
  });
  double Elapsed = monoSeconds() - T0;
  CHECK_OR(Elapsed < 1.0, 2);
  CHECK_OR(Crashed == 0, 3);
  CHECK_OR(TimedOut == N, 4);
  CHECK_OR(Rt.timedOutSamples() == static_cast<uint64_t>(N), 5);
  CHECK_OR(Rt.crashedSamples() == 0, 6);
  CHECK_OR(Rt.freeSlots() == FreeBefore, 7);
  Rt.finish();
  alarm(0);
  return 0;
}

int scenarioDeadlineAtGateLeavesSyncBarrier() {
  // MaxPool 4 runs three samples beside the root: sample 0 sleeps past
  // the region budget, samples 1 and 2 wait at @sync, and sample 3
  // queues at the admission gate. At the deadline sample 0 is killed and
  // sample 3 retires unforked; both must leave the barrier's expected
  // set, or the root's sync() waits for them for good. Released past the
  // deadline, samples 1 and 2 race its next enforcement to their commit,
  // so either outcome counts. The alarm turns a regressed deadlock into
  // a fast signal death.
  alarm(10);
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 4;
  Opts.Seed = 28;
  Rt.init(Opts);

  int FreeBefore = Rt.freeSlots();
  const int N = 4;
  RegionOptions Ro;
  Ro.TimeoutSec = 0.2;
  double T0 = monoSeconds();
  Rt.sampling(N, Ro);
  (void)Rt.sample("x", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling() && Rt.sampleIndex() == 0) {
    sleep(2); // far past the budget; SIGKILL arrives first
    abort();
  }
  Rt.sync(nullptr);
  if (Rt.isSampling())
    Rt.aggregate("done", encodeDouble(1), nullptr);
  int Committed = -1, TimedOut = -1;
  SampleStatus First = SampleStatus::Running, Last = SampleStatus::Running;
  Rt.aggregate("done", encodeDouble(0), [&](AggregationView &V) {
    Committed = V.countStatus(SampleStatus::Committed);
    TimedOut = V.countStatus(SampleStatus::TimedOut);
    First = V.status(0);
    Last = V.status(N - 1);
  });
  CHECK_OR(monoSeconds() - T0 < 1.5, 2);
  CHECK_OR(First == SampleStatus::TimedOut, 3);
  CHECK_OR(Last == SampleStatus::TimedOut, 4);
  CHECK_OR(Committed + TimedOut == N, 5);
  CHECK_OR(Rt.crashedSamples() == 0, 6);
  CHECK_OR(Rt.freeSlots() == FreeBefore, 7);
  Rt.finish();
  alarm(0);
  return 0;
}

int scenarioDeadlineAtGateHeldBySplitSibling() {
  // MaxPool 4: the root and a split child hold two slots, and the child's
  // two samples hold the other two for 1.5 s. The root's region, with a
  // 0.15 s budget, queues both samples at the admission gate; they retire
  // TimedOut unforked once the budget is spent, and the region resolves
  // then rather than when the sibling's samples give their slots back.
  alarm(10);
  SharedCell *Cells = mapSharedCells();
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 4;
  Opts.Seed = 29;
  Rt.init(Opts);

  const int N = 2;
  if (Rt.split()) {
    Rt.sampling(N);
    (void)Rt.sample("x", Distribution::uniform(0.0, 1.0));
    if (Rt.isSampling()) {
      Cells[0].add(1);
      usleep(1500000);
      Rt.aggregate("done", encodeDouble(1), nullptr);
    }
    Rt.aggregate("done", encodeDouble(0), nullptr);
    Rt.finishAndExit();
  }
  while (Cells[0].count() < N)
    usleep(1000);
  RegionOptions Ro;
  Ro.TimeoutSec = 0.15;
  double T0 = monoSeconds();
  Rt.sampling(N, Ro);
  (void)Rt.sample("x", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling())
    Rt.aggregate("done", encodeDouble(1), nullptr);
  int TimedOut = -1;
  Rt.aggregate("done", encodeDouble(0), [&](AggregationView &V) {
    TimedOut = V.countStatus(SampleStatus::TimedOut);
  });
  double Elapsed = monoSeconds() - T0;
  Rt.finish();
  CHECK_OR(Elapsed < 1.0, 2);
  CHECK_OR(TimedOut == N, 3);
  alarm(0);
  return 0;
}

int scenarioRetryRespawnsSpares() {
  // With MaxRetries, a crashed sample is replaced by a pre-forked spare
  // running a fresh RNG stream (index >= N).
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 10;
  Opts.Seed = 21;
  Rt.init(Opts);

  int FreeBefore = Rt.freeSlots();
  const int N = 4;
  RegionOptions Ro;
  Ro.MaxRetries = 2;
  Rt.sampling(N, Ro);
  double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling()) {
    if (Rt.sampleIndex() == 0)
      abort(); // the spare that replaces it has index >= N
    Rt.aggregate("x", encodeDouble(X), nullptr);
  }
  int Committed = -1, Crashed = -1, Unused = -1, SpareCommitted = 0;
  Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
    Committed = V.countStatus(SampleStatus::Committed);
    Crashed = V.countStatus(SampleStatus::Crashed);
    Unused = V.countStatus(SampleStatus::Unused);
    for (int I = N; I != V.spawned(); ++I)
      SpareCommitted += V.status(I) == SampleStatus::Committed;
  });
  CHECK_OR(Committed == N, 2); // the spare restored full coverage
  CHECK_OR(Crashed == 1, 3);
  CHECK_OR(Unused == 1, 4); // the second spare was never needed
  CHECK_OR(SpareCommitted == 1, 5);
  CHECK_OR(Rt.freeSlots() == FreeBefore, 6);
  Rt.finish();
  return 0;
}

int scenarioRetryCoversCrashAtAdmissionGate() {
  // MaxPool 3 runs two samples beside the root. Sample 0 crashes at once
  // while sample 1 sleeps, so sampling() reaps the crash while it still
  // waits at the gate for sample 2's slot, before it has forked the
  // spare. The spare must still replace the crashed sample once forked,
  // not park unused.
  alarm(20);
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 3;
  Opts.Seed = 22;
  Rt.init(Opts);

  const int N = 4;
  RegionOptions Ro;
  Ro.MaxRetries = 1;
  Rt.sampling(N, Ro);
  double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling()) {
    if (Rt.sampleIndex() == 0)
      abort();
    usleep(200000);
    Rt.aggregate("x", encodeDouble(X), nullptr);
  }
  int Committed = -1, Crashed = -1, Unused = -1;
  Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
    Committed = V.countStatus(SampleStatus::Committed);
    Crashed = V.countStatus(SampleStatus::Crashed);
    Unused = V.countStatus(SampleStatus::Unused);
  });
  CHECK_OR(Committed == N, 2); // the spare restored full coverage
  CHECK_OR(Crashed == 1, 3);
  CHECK_OR(Unused == 0, 4);
  Rt.finish();
  alarm(0);
  return 0;
}

int scenarioCrashBeforeSyncBarrier() {
  // A child that dies before reaching @sync must be removed from the
  // barrier's expected set or every surviving process deadlocks.
  SharedCell *Cells = mapSharedCells();
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 23;
  Rt.init(Opts);

  const int N = 4;
  Rt.sampling(N);
  (void)Rt.sample("x", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling()) {
    if (Rt.sampleIndex() == 3)
      abort(); // dies before arriving at the barrier
    Cells[5].add(1);
  }
  double AtBarrier = -1;
  Rt.sync([&] { AtBarrier = static_cast<double>(Cells[5].count()); });
  if (Rt.isSampling())
    Rt.aggregate("done", encodeDouble(1), nullptr);
  int Crashed = -1, Committed = -1;
  Rt.aggregate("done", encodeDouble(0), [&](AggregationView &V) {
    Crashed = V.countStatus(SampleStatus::Crashed);
    Committed = V.countStatus(SampleStatus::Committed);
  });
  CHECK_OR(AtBarrier == N - 1, 2); // survivors all arrived
  CHECK_OR(Crashed == 1, 3);
  CHECK_OR(Committed == N - 1, 4);
  Rt.finish();
  return 0;
}

int scenarioDeadlineSparesBarrierWaiters() {
  // The deadline passes while samples 1 and 2 wait at @sync and sample 0
  // has not arrived. Only sample 0 is killed there: a SIGKILL on a sample
  // waiting on the barrier's process-shared condvar would leave the
  // condvar expecting it, and the release broadcast would block for
  // good. Released past the deadline, samples 1 and 2 race its next
  // enforcement to their commit, so either outcome counts. Two more sync
  // regions follow.
  alarm(20);
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 27;
  Rt.init(Opts);

  const int N = 3;
  for (int Round = 0; Round != 3; ++Round) {
    RegionOptions Ro;
    Ro.TimeoutSec = Round == 0 ? 0.2 : -1.0;
    double T0 = monoSeconds();
    Rt.sampling(N, Ro);
    (void)Rt.sample("x", Distribution::uniform(0.0, 1.0));
    if (Rt.isSampling() && Round == 0 && Rt.sampleIndex() == 0)
      sleep(30); // far past the budget; SIGKILL arrives first
    Rt.sync(nullptr);
    if (Rt.isSampling())
      Rt.aggregate("done", encodeDouble(1), nullptr);
    int Committed = -1, TimedOut = -1;
    Rt.aggregate("done", encodeDouble(0), [&](AggregationView &V) {
      Committed = V.countStatus(SampleStatus::Committed);
      TimedOut = V.countStatus(SampleStatus::TimedOut);
    });
    CHECK_OR(monoSeconds() - T0 < 5.0, 10 + Round);
    CHECK_OR(Committed + TimedOut == N, 20 + Round);
    CHECK_OR(Round == 0 ? TimedOut >= 1 : TimedOut == 0, 30 + Round);
  }
  Rt.finish();
  alarm(0);
  return 0;
}

int scenarioConcurrentRegionsDistinctBarriers() {
  // Two post-split tuning processes run sync regions concurrently; each
  // region's barrier lives in its own table, so they never share one (an
  // old hash-based choice of a shared barrier could collide and corrupt
  // the counts).
  SharedCell *Cells = mapSharedCells();
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 16;
  Opts.Seed = 24;
  Rt.init(Opts);

  bool Child = false;
  for (int I = 0; I != 2 && !Child; ++I)
    Child = Rt.split();

  // Every tuning process (root + 2 children) runs its own sync region.
  const int N = 3;
  Rt.sampling(N);
  (void)Rt.sample("x", Distribution::uniform(0.0, 1.0));
  int Cell = 6;
  if (Rt.isSampling())
    Cells[Cell].add(1);
  double Arrived = -1;
  Rt.sync([&] { Arrived = 1; });
  if (Rt.isSampling())
    Rt.aggregate("done", encodeDouble(1), nullptr);
  int Committed = -1;
  Rt.aggregate("done", encodeDouble(0), [&](AggregationView &V) {
    Committed = V.countStatus(SampleStatus::Committed);
  });
  if (Child) {
    if (Committed == N && Arrived == 1)
      Cells[7].add(1);
    Rt.finishAndExit();
  }
  CHECK_OR(Committed == N, 2);
  CHECK_OR(Arrived == 1, 3);
  while (Cells[7].count() < 2)
    usleep(1000);
  CHECK_OR(Cells[7].count() == 2, 4); // both children succeeded
  // All 3 * N sampling children contributed.
  CHECK_OR(Cells[Cell].count() == 3 * N, 5);
  Rt.finish();
  return 0;
}

int scenarioTornCommitNotCounted() {
  // Commits publish atomically (slab Ready word / temp-file + rename): a
  // record that was still being written when its child died must not
  // appear in committed(). And since committed() is driven by the
  // supervisor's status table, a crashed child's complete-but-orphaned
  // commitExtra() results stay invisible too — only loadBytes() can read
  // them raw.
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 25;
  Rt.init(Opts);

  const int N = 4;
  Rt.sampling(N);
  double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling()) {
    Rt.commitExtra("partial", encodeDouble(X));
    if (Rt.sampleIndex() == 1)
      raise(SIGKILL); // dies after one commit, before aggregate
    Rt.aggregate("x", encodeDouble(X), nullptr);
  }
  bool AllComplete = true;
  int PartialCount = -1;
  bool CrashedPartialReadable = false;
  Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
    std::vector<int> Idx = V.committed("partial");
    PartialCount = static_cast<int>(Idx.size());
    for (int I : Idx) {
      AllComplete = AllComplete && V.status(I) == SampleStatus::Committed;
      double Y = V.loadDouble("partial", I, -1.0);
      AllComplete = AllComplete && Y >= 0.0 && Y <= 1.0;
    }
    // The killed child's commitExtra completed, so the raw bytes are
    // there — committed() just refuses to count a crashed sample.
    double Y = V.loadDouble("partial", 1, -1.0);
    CrashedPartialReadable = Y >= 0.0 && Y <= 1.0;
  });
  CHECK_OR(PartialCount == N - 1, 2);
  CHECK_OR(AllComplete, 3);
  CHECK_OR(CrashedPartialReadable, 4);
  Rt.finish();
  return 0;
}

} // namespace

TEST(ProcFailureTest, ChildAbortIsReapedAndReported) {
  EXPECT_EQ(runScenario(scenarioChildAborts), 0);
}

TEST(ProcFailureTest, SigkilledChildBeforeCommit) {
  EXPECT_EQ(runScenario(scenarioChildKilledBeforeCommit), 0);
}

TEST(ProcFailureTest, AllChildrenPruned) {
  EXPECT_EQ(runScenario(scenarioAllPruned), 0);
}

TEST(ProcFailureTest, TimeoutKillsStraggler) {
  EXPECT_EQ(runScenario(scenarioTimeoutKillsStraggler), 0);
}

TEST(ProcFailureTest, AbortPlusTimeoutReclaimsBothSlots) {
  EXPECT_EQ(runScenario(scenarioAbortPlusTimeout), 0);
}

TEST(ProcFailureTest, DeadlineHonouredAtAdmissionGate) {
  EXPECT_EQ(runScenario(scenarioDeadlineAtAdmissionGate), 0);
}

TEST(ProcFailureTest, DeadlineAtGateLeavesSyncBarrier) {
  EXPECT_EQ(runScenario(scenarioDeadlineAtGateLeavesSyncBarrier), 0);
}

TEST(ProcFailureTest, DeadlineAtGateHeldBySplitSibling) {
  EXPECT_EQ(runScenario(scenarioDeadlineAtGateHeldBySplitSibling), 0);
}

TEST(ProcFailureTest, RetryRespawnsSpareSamples) {
  EXPECT_EQ(runScenario(scenarioRetryRespawnsSpares), 0);
}

TEST(ProcFailureTest, RetryCoversCrashAtAdmissionGate) {
  EXPECT_EQ(runScenario(scenarioRetryCoversCrashAtAdmissionGate), 0);
}

TEST(ProcFailureTest, CrashBeforeSyncDoesNotDeadlock) {
  EXPECT_EQ(runScenario(scenarioCrashBeforeSyncBarrier), 0);
}

TEST(ProcFailureTest, DeadlineSparesBarrierWaiters) {
  EXPECT_EQ(runScenario(scenarioDeadlineSparesBarrierWaiters), 0);
}

TEST(ProcFailureTest, ConcurrentRegionsGetDistinctBarriers) {
  EXPECT_EQ(runScenario(scenarioConcurrentRegionsDistinctBarriers), 0);
}

TEST(ProcFailureTest, CommitsAreAtomic) {
  EXPECT_EQ(runScenario(scenarioTornCommitNotCounted), 0);
}
