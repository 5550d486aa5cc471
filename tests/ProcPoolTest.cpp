//===- tests/ProcPoolTest.cpp - worker-pool sampling region tests ---------===//
//
// Part of the WBTuner reproduction, MIT license.
//
// Coverage for Runtime::samplingRegion(), the worker-pool alternative to
// fork-per-sample sampling():
//   - every sample index commits exactly once with far fewer forks,
//   - draws are bitwise-identical to fork-per-sample mode (Random and
//     Stratified), the region-mode equivalence the optimization promises,
//   - stratified coverage holds even when N > workers,
//   - check() prunes one lease and the worker survives, and a body that
//     _exit(0)s prunes its lease as a fork-per-sample child's does,
//   - a SIGKILLed worker's lease is returned and re-run to completion,
//     also when the workers outlive the region inside one regionBatch(),
//   - the regions of one regionBatch() draw bitwise like fork-per-sample
//     regions, with one region in flight and with two,
//   - the region deadline retires stuck leases as TimedOut, in a batch
//     only inside its own region,
//   - a failed worker fork degrades to fewer workers, not fewer samples.
//
// Like ProcTest.cpp, every scenario runs in a forked child because the
// runtime is a per-process singleton.
//
//===----------------------------------------------------------------------===//

#include "proc/Runtime.h"
#include "strategy/SamplingStrategy.h"

#include <gtest/gtest.h>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <vector>

using namespace wbt;
using namespace wbt::proc;

namespace {

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

int scenarioPoolCommitsAllSamples() {
  // N samples through min(MaxPool - 1, N) workers: every index commits,
  // nothing crashes, no lease ever needs reclaiming.
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 41;
  Opts.Backend = StoreBackend::Shm;
  Rt.init(Opts);
  int FreeBefore = Rt.freeSlots();

  const int N = 16;
  std::vector<double> Got(N, -1.0);
  ScalarAccumulator *Acc = nullptr;
  int Spawned = -1;
  Rt.samplingRegion(N, [&] {
    double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
    if (Rt.isSampling())
      Rt.aggregate("x", encodeDouble(X), nullptr);
    Acc = &Rt.foldScalar("x");
    Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
      Spawned = V.spawned();
      for (int I : V.committed("x"))
        Got[I] = V.loadDouble("x", I);
    });
  });

  CHECK_OR(Spawned == N, 2); // one record per sample, not per worker
  for (int I = 0; I != N; ++I)
    CHECK_OR(Got[I] >= 0.0 && Got[I] <= 1.0, 10 + I);
  CHECK_OR(Acc->count() == static_cast<size_t>(N), 3);
  CHECK_OR(Rt.crashedSamples() == 0, 4);
  CHECK_OR(Rt.leaseReclaims() == 0, 5);
  CHECK_OR(Rt.freeSlots() == FreeBefore, 6); // all worker slots returned
  Rt.finish();
  return 0;
}

//===----------------------------------------------------------------------===//
// Bitwise fork-vs-pool determinism (the acceptance criterion)
//===----------------------------------------------------------------------===//

/// Sampling kind for the determinism scenario, snapshotted by fork(2).
int GPoolKind = 0;

/// Runs one region of N samples with the given entry mode and collects
/// each sample's committed draw. Fresh init/finish per call so both modes
/// start from identical runtime state (same seed, same region counter).
int collectRegionValues(bool Pool, std::vector<double> &Out) {
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 99;
  Opts.Backend = StoreBackend::Shm;
  Rt.init(Opts);

  const int N = 12;
  Out.assign(N, -1.0);
  auto Body = [&] {
    double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
    double Y = Rt.sample("y", Distribution::logUniform(1e-3, 1e3));
    if (Rt.isSampling())
      Rt.aggregate("x", encodeDouble(X * Y), nullptr);
    Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
      for (int I : V.committed("x"))
        Out[I] = V.loadDouble("x", I);
    });
  };
  if (Pool) {
    RegionOptions Ro;
    Ro.Kind = static_cast<SamplingKind>(GPoolKind);
    Ro.Workers = 3; // N > workers: every worker runs several leases
    Rt.samplingRegion(N, Ro, Body);
  } else {
    Rt.sampling(N, static_cast<SamplingKind>(GPoolKind));
    Body();
  }
  for (double V : Out)
    CHECK_OR(V >= 0.0, 2);
  Rt.finish();
  return 0;
}

int scenarioPoolMatchesForkSampling() {
  std::vector<double> ForkVals, PoolVals;
  CHECK_OR(collectRegionValues(/*Pool=*/false, ForkVals) == 0, 3);
  // Root finish() tears the runtime down completely, so the same process
  // can re-init and replay the region through the pool.
  CHECK_OR(collectRegionValues(/*Pool=*/true, PoolVals) == 0, 4);
  for (size_t I = 0; I != ForkVals.size(); ++I)
    CHECK_OR(PoolVals[I] == ForkVals[I], 10 + static_cast<int>(I)); // bitwise
  return 0;
}

int scenarioPoolStratifiedCoverage() {
  // Three workers share eight strata; each lease index must land in its
  // own stratum exactly once regardless of which worker runs it.
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 43;
  Opts.Backend = StoreBackend::Shm;
  Rt.init(Opts);

  const int N = 8;
  std::vector<double> Got(N, -1.0);
  RegionOptions Ro;
  Ro.Kind = SamplingKind::Stratified;
  Ro.Workers = 3;
  Rt.samplingRegion(N, Ro, [&] {
    double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
    if (Rt.isSampling())
      Rt.aggregate("x", encodeDouble(X), nullptr);
    Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
      for (int I : V.committed("x"))
        Got[I] = V.loadDouble("x", I);
    });
  });

  // Sample index I sits at the midpoint of stratum perm(I); across all N
  // indices the strata {0..N-1} are each hit exactly once.
  Distribution D = Distribution::uniform(0.0, 1.0);
  std::vector<int> Hits(N, 0);
  for (int I = 0; I != N; ++I) {
    uint64_t S = stratifiedStratum("x", static_cast<uint64_t>(I), N);
    double Expect = D.quantile((static_cast<double>(S) + 0.5) / N);
    CHECK_OR(Got[I] == Expect, 10 + I);
    ++Hits[static_cast<size_t>(S)];
  }
  for (int S = 0; S != N; ++S)
    CHECK_OR(Hits[S] == 1, 20 + S);
  Rt.finish();
  return 0;
}

int scenarioPoolCheckPrunesLease() {
  // check(false) prunes exactly the current lease; the worker survives
  // and keeps claiming, so the pruned indices don't cost a process each.
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 44;
  Opts.Backend = StoreBackend::Shm;
  Rt.init(Opts);

  const int N = 9;
  int Committed = -1, Pruned = -1;
  RegionOptions Ro;
  Ro.Workers = 2;
  Rt.samplingRegion(N, Ro, [&] {
    double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
    Rt.check(Rt.sampleIndex() % 3 != 0); // prunes leases 0, 3, 6
    if (Rt.isSampling())
      Rt.aggregate("x", encodeDouble(X), nullptr);
    Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
      Committed = V.countStatus(SampleStatus::Committed);
      Pruned = V.countStatus(SampleStatus::Pruned);
    });
  });
  CHECK_OR(Committed == N - 3, 2);
  CHECK_OR(Pruned == 3, 3);
  CHECK_OR(Rt.crashedSamples() == 0, 4); // pruning kills no worker
  CHECK_OR(Rt.leaseReclaims() == 0, 5);
  Rt.finish();
  return 0;
}

int scenarioPoolKilledWorkerLeaseRerun() {
  // Worker 0 SIGKILLs itself mid-lease. The supervisor returns the
  // orphaned lease and it is re-run (by the survivor or a respawn), so
  // every sample still commits — the crash costs a retry, not a result.
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 45;
  Opts.Backend = StoreBackend::Shm;
  Rt.init(Opts);
  int FreeBefore = Rt.freeSlots();

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
  CHECK_OR(Committed == N, 2); // the killed lease was re-run
  CHECK_OR(Rt.crashedSamples() == 1, 3);
  CHECK_OR(Rt.leaseReclaims() >= 1, 4);
  CHECK_OR(Rt.freeSlots() == FreeBefore, 5); // dead worker's slot reclaimed
  // The dead worker's re-run is visible in the metrics snapshot too.
  obs::RuntimeMetrics M = Rt.metrics();
  CHECK_OR(M.LeaseReclaims >= 1, 6);
  CHECK_OR(M.CrashedSamples == 1, 7);
  Rt.finish();
  return 0;
}

//===----------------------------------------------------------------------===//
// Workers that outlive a region: one regionBatch() over several regions
//===----------------------------------------------------------------------===//

/// Runs several regions with one shared body and concatenates each
/// region's committed draws. Mode 0 = fork-per-sample regions, 1 = one
/// regionBatch() with one region in flight (Pipeline 1), 2 = one
/// regionBatch() with two.
int collectManyRegionValues(int Mode, std::vector<double> &Out) {
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 99;
  Opts.Backend = StoreBackend::Shm;
  Rt.init(Opts);

  const int N = 12, Regions = 3;
  Out.clear();
  auto Body = [&] {
    double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
    double Y = Rt.sample("y", Distribution::logUniform(1e-3, 1e3));
    if (Rt.isSampling())
      Rt.aggregate("x", encodeDouble(X * Y), nullptr);
    Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
      std::vector<double> Got(N, -1.0);
      for (int I : V.committed("x"))
        Got[I] = V.loadDouble("x", I);
      Out.insert(Out.end(), Got.begin(), Got.end());
    });
  };
  if (Mode == 0) {
    for (int R = 0; R != Regions; ++R) {
      Rt.sampling(N, static_cast<SamplingKind>(GPoolKind));
      Body();
    }
  } else {
    RegionOptions Ro;
    Ro.Kind = static_cast<SamplingKind>(GPoolKind);
    Ro.Workers = 3; // N > workers: every worker runs several leases
    Ro.Pipeline = Mode;
    Rt.regionBatch(Regions, N, Ro, Body);
  }
  CHECK_OR(Out.size() == static_cast<size_t>(N * Regions), 5);
  for (double V : Out)
    CHECK_OR(V >= 0.0, 2);
  Rt.finish();
  return 0;
}

/// Draws of the regions of one regionBatch() with \p Pipeline regions in
/// flight are bitwise-identical to fork-per-sample regions of the same
/// ordinals, across several regions (so the regions a worker rolls into,
/// not just the first, match).
int batchMatchesForkSampling(int Pipeline) {
  std::vector<double> ForkVals, BatchVals;
  CHECK_OR(collectManyRegionValues(0, ForkVals) == 0, 3);
  CHECK_OR(collectManyRegionValues(Pipeline, BatchVals) == 0, 4);
  CHECK_OR(ForkVals.size() == BatchVals.size(), 5);
  for (size_t I = 0; I != ForkVals.size(); ++I)
    CHECK_OR(BatchVals[I] == ForkVals[I], 10 + static_cast<int>(I));
  return 0;
}

int scenarioBatch1MatchesForkSampling() { return batchMatchesForkSampling(1); }

int scenarioBatchMatchesForkSampling() { return batchMatchesForkSampling(2); }

int scenarioBatch1KilledWorkerLeaseRerun() {
  // A two-region batch with one region in flight: whichever worker first
  // claims lease 0 of region 1 SIGKILLs itself mid-lease (keyed on the
  // lease, not the worker slot: on one core a worker can drain every
  // lease before its sibling runs, so a worker-keyed kill could never
  // fire). The lease is re-run by the survivor, which then runs region 2
  // on its own, so both regions commit every sample.
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 45;
  Opts.Backend = StoreBackend::Shm;
  Rt.init(Opts);
  int FreeBefore = Rt.freeSlots();

  const int N = 8;
  std::vector<int> Committed;
  RegionOptions Ro;
  Ro.Workers = 2;
  Ro.Pipeline = 1;
  Rt.regionBatch(2, N, Ro, [&] {
    double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
    if (Rt.regionOrdinal() == 1 && Rt.sampleIndex() == 0 &&
        Rt.sampleAttempt() == 1)
      raise(SIGKILL); // first holder of lease 0 dies, region 1 only
    if (Rt.isSampling())
      Rt.aggregate("x", encodeDouble(X), nullptr);
    Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
      Committed.push_back(V.countStatus(SampleStatus::Committed));
    });
  });
  CHECK_OR(Committed.size() == 2, 2);
  CHECK_OR(Committed[0] == N, 3); // the killed lease was re-run
  CHECK_OR(Committed[1] == N, 4);
  obs::RuntimeMetrics M = Rt.metrics();
  CHECK_OR(M.CrashedSamples == 1, 11);
  CHECK_OR(M.LeaseReclaims >= 1, 12);
  CHECK_OR(Rt.freeSlots() == FreeBefore, 14); // dead worker's slot reclaimed
  Rt.finish();
  return 0;
}

int scenarioPoolTimeoutRetiresLeases() {
  // One lease sleeps past the region budget. Its worker is killed, the
  // lease retires as TimedOut, and the rest of the region is unharmed.
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 46;
  Opts.Backend = StoreBackend::Shm;
  Rt.init(Opts);

  const int N = 6;
  int Committed = -1, TimedOut = -1;
  RegionOptions Ro;
  Ro.Workers = 2;
  Ro.TimeoutSec = 0.5;
  Rt.samplingRegion(N, Ro, [&] {
    double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
    if (Rt.isSampling() && Rt.sampleIndex() == 2)
      sleep(30); // far past the budget; SIGKILL arrives first
    if (Rt.isSampling())
      Rt.aggregate("x", encodeDouble(X), nullptr);
    Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
      Committed = V.countStatus(SampleStatus::Committed);
      TimedOut = V.countStatus(SampleStatus::TimedOut);
    });
  });
  CHECK_OR(Committed == N - 1, 2);
  CHECK_OR(TimedOut == 1, 3);
  CHECK_OR(Rt.timedOutSamples() >= 1, 4);
  Rt.finish();
  return 0;
}

int scenarioBatchDeadlineStaysInItsRegion() {
  // One lease of region 2 sleeps past the region budget inside a
  // four-region batch, with one region in flight and with two. Only that
  // lease times out: a deadline retires its own region's window, not the
  // batch, and it kills the worker holding the lease, not the ones
  // waiting at the claim gate; the regions after it still deliver in
  // full on the workers that are left.
  for (int K : {1, 2}) {
    Runtime &Rt = Runtime::get();
    RuntimeOptions Opts;
    Opts.MaxPool = 8;
    Opts.Seed = 48;
    Opts.Backend = StoreBackend::Shm;
    Rt.init(Opts);

    const int Regions = 4, N = 4;
    std::vector<int> Committed, TimedOut;
    RegionOptions Ro;
    Ro.Workers = 2;
    Ro.Pipeline = K;
    Ro.TimeoutSec = 0.5;
    Rt.regionBatch(Regions, N, Ro, [&] {
      double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
      if (Rt.isSampling() && Rt.regionOrdinal() == 2 &&
          Rt.sampleIndex() == 1)
        sleep(30); // far past the budget; SIGKILL arrives first
      if (Rt.isSampling())
        Rt.aggregate("x", encodeDouble(X), nullptr);
      Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
        Committed.push_back(V.countStatus(SampleStatus::Committed));
        TimedOut.push_back(V.countStatus(SampleStatus::TimedOut));
      });
    });
    uint64_t Timeouts = Rt.timedOutSamples();
    Rt.finish();
    CHECK_OR(Committed.size() == static_cast<size_t>(Regions), 2);
    for (int R = 0; R != Regions; ++R) {
      CHECK_OR(Committed[R] == (R == 1 ? N - 1 : N), 10 + R);
      CHECK_OR(TimedOut[R] == (R == 1 ? 1 : 0), 20 + R);
    }
    CHECK_OR(Timeouts == 1, 3);
  }
  return 0;
}

int scenarioPoolForkFailureFewerWorkers() {
  // A failed worker fork shrinks the pool, not the sample set: the
  // surviving worker drains every lease alone.
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 47;
  Opts.Backend = StoreBackend::Shm;
  Opts.InjectPlan = "fork@n1:EAGAIN"; // first worker slot never forks
  Rt.init(Opts);

  const int N = 6;
  int Committed = -1;
  RegionOptions Ro;
  Ro.Workers = 2;
  Rt.samplingRegion(N, Ro, [&] {
    double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
    if (Rt.isSampling())
      Rt.aggregate("x", encodeDouble(X), nullptr);
    Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
      Committed = V.countStatus(SampleStatus::Committed);
    });
  });
  CHECK_OR(Committed == N, 2);
  CHECK_OR(Rt.forkFailures() == 1, 3);
  Rt.finish();
  return 0;
}

int scenarioExitZeroPrunesLikeForkSampling() {
  // A sample whose body _exit(0)s reached neither check() nor aggregate():
  // in both region paths that is a voluntary prune of its lease. A pool
  // must not take the clean exit for a crash and re-run the lease, which
  // would only exit again.
  for (bool Pool : {false, true}) {
    Runtime &Rt = Runtime::get();
    RuntimeOptions Opts;
    Opts.MaxPool = 8;
    Opts.Seed = 49;
    Opts.Backend = StoreBackend::Shm;
    Rt.init(Opts);

    const int N = 6;
    int Committed = -1, Pruned = -1;
    SampleStatus Exited = SampleStatus::Running;
    auto Body = [&] {
      double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
      if (Rt.isSampling() && Rt.sampleIndex() == 2)
        _exit(0);
      if (Rt.isSampling())
        Rt.aggregate("x", encodeDouble(X), nullptr);
      Rt.aggregate("x", encodeDouble(0), [&](AggregationView &V) {
        Committed = V.countStatus(SampleStatus::Committed);
        Pruned = V.countStatus(SampleStatus::Pruned);
        Exited = V.status(2);
      });
    };
    if (Pool) {
      RegionOptions Ro;
      Ro.Workers = 2;
      Rt.samplingRegion(N, Ro, Body);
    } else {
      Rt.sampling(N);
      Body();
    }
    uint64_t Crashes = Rt.crashedSamples(), Reclaims = Rt.leaseReclaims();
    Rt.finish();
    int Base = Pool ? 20 : 10;
    CHECK_OR(Committed == N - 1, Base + 1);
    CHECK_OR(Pruned == 1, Base + 2);
    CHECK_OR(Exited == SampleStatus::Pruned, Base + 3);
    CHECK_OR(Crashes == 0, Base + 4);
    CHECK_OR(Reclaims == 0, Base + 5);
  }
  return 0;
}

} // namespace

TEST(ProcPoolTest, PoolCommitsAllSamples) {
  EXPECT_EQ(runScenario(scenarioPoolCommitsAllSamples), 0);
}

TEST(ProcPoolTest, MatchesForkSamplingRandom) {
  GPoolKind = static_cast<int>(SamplingKind::Random);
  EXPECT_EQ(runScenario(scenarioPoolMatchesForkSampling), 0);
}

TEST(ProcPoolTest, MatchesForkSamplingStratified) {
  GPoolKind = static_cast<int>(SamplingKind::Stratified);
  EXPECT_EQ(runScenario(scenarioPoolMatchesForkSampling), 0);
}

TEST(ProcPoolTest, StratifiedCoverageExactlyOnce) {
  EXPECT_EQ(runScenario(scenarioPoolStratifiedCoverage), 0);
}

TEST(ProcPoolTest, CheckPrunesOneLease) {
  EXPECT_EQ(runScenario(scenarioPoolCheckPrunesLease), 0);
}

TEST(ProcPoolTest, KilledWorkerLeaseRerun) {
  EXPECT_EQ(runScenario(scenarioPoolKilledWorkerLeaseRerun), 0);
}

TEST(ProcPoolTest, TimeoutRetiresLeases) {
  EXPECT_EQ(runScenario(scenarioPoolTimeoutRetiresLeases), 0);
}

TEST(ProcPoolTest, BatchDeadlineStaysInItsRegion) {
  EXPECT_EQ(runScenario(scenarioBatchDeadlineStaysInItsRegion), 0);
}

TEST(ProcPoolTest, ForkFailureMeansFewerWorkers) {
  EXPECT_EQ(runScenario(scenarioPoolForkFailureFewerWorkers), 0);
}

TEST(ProcPoolTest, Batch1MatchesForkSamplingRandom) {
  GPoolKind = static_cast<int>(SamplingKind::Random);
  EXPECT_EQ(runScenario(scenarioBatch1MatchesForkSampling), 0);
}

TEST(ProcPoolTest, Batch1MatchesForkSamplingStratified) {
  GPoolKind = static_cast<int>(SamplingKind::Stratified);
  EXPECT_EQ(runScenario(scenarioBatch1MatchesForkSampling), 0);
}

TEST(ProcPoolTest, BatchMatchesForkSamplingRandom) {
  GPoolKind = static_cast<int>(SamplingKind::Random);
  EXPECT_EQ(runScenario(scenarioBatchMatchesForkSampling), 0);
}

TEST(ProcPoolTest, BatchMatchesForkSamplingStratified) {
  GPoolKind = static_cast<int>(SamplingKind::Stratified);
  EXPECT_EQ(runScenario(scenarioBatchMatchesForkSampling), 0);
}

TEST(ProcPoolTest, Batch1KilledWorkerLeaseRerun) {
  EXPECT_EQ(runScenario(scenarioBatch1KilledWorkerLeaseRerun), 0);
}

TEST(ProcPoolTest, ExitZeroPrunesLikeForkSampling) {
  EXPECT_EQ(runScenario(scenarioExitZeroPrunesLikeForkSampling), 0);
}
