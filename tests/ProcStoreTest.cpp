//===- tests/ProcStoreTest.cpp - aggregation-store backend tests ----------===//
//
// Part of the WBTuner reproduction, MIT license.
//
// Coverage for the shared-memory aggregation store (StoreBackend::Shm):
// torn commits stay unpublished, oversized payloads and slab exhaustion
// fall back to the file path, and a parameterized sweep asserts the Files
// and Shm backends agree — both on committed()/loadBytes() and on the
// incremental fold accumulators vs one-shot aggregation.
//
// Like ProcTest.cpp, every scenario runs in a forked child because the
// runtime is a per-process singleton.
//
//===----------------------------------------------------------------------===//

#include "inject/Inject.h"
#include "proc/Runtime.h"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>

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

int scenarioTornSlabCommitUnpublished() {
  // A child SIGKILLed after writing its slab payload but before the
  // Ready release-store must look exactly like a crash before any
  // commit: the record is invisible to committed() and loadBytes().
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 31;
  Opts.Backend = StoreBackend::Shm;
  Rt.init(Opts);

  const int N = 4;
  Rt.sampling(N);
  double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling()) {
    // Child 1 arms the slab's publish kill point for its own commit: it
    // dies between the payload copy and the Ready store.
    std::string Err;
    if (Rt.sampleIndex() == 1 &&
        !inject::armText("tp.slab.publish@n1:kill", Err))
      return 98;
    Rt.aggregate("x2", encodeDouble(X * X), nullptr);
  }

  ScalarAccumulator &Acc = Rt.foldScalar("x2");
  int Committed = -1, Crashed = -1;
  bool TornInvisible = true;
  Rt.aggregate("x2", encodeDouble(0), [&](AggregationView &V) {
    Committed = static_cast<int>(V.committed("x2").size());
    Crashed = V.countStatus(SampleStatus::Crashed);
    std::vector<uint8_t> Bytes;
    TornInvisible = !V.loadBytes("x2", 1, Bytes);
  });
  CHECK_OR(Committed == N - 1, 2);
  CHECK_OR(Crashed == 1, 3);
  CHECK_OR(TornInvisible, 4);
  // The fold saw exactly the published commits.
  CHECK_OR(Acc.count() == static_cast<size_t>(N - 1), 5);
  // Nothing fell back to files; the torn record consumed a slot but was
  // never published.
  CHECK_OR(Rt.shmCommits() == static_cast<uint64_t>(N - 1), 6);
  CHECK_OR(Rt.storeFallbacks() == 0, 7);
  Rt.finish();
  return 0;
}

int scenarioOversizedPayloadFallsBack() {
  // Payloads above ShmRecordThreshold (and over-long variable names)
  // bypass the slab and land in the file store; reads are transparent.
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 32;
  Opts.Backend = StoreBackend::Shm;
  Opts.ShmRecordThreshold = 64;
  Rt.init(Opts);

  const int N = 3;
  const std::string LongName(60, 'n'); // > SlabVarNameMax
  Rt.sampling(N);
  double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling()) {
    std::vector<double> Big(256, X); // 8 + 256*8 bytes > threshold
    Rt.commitExtra("big", encodeVector(Big));
    Rt.commitExtra(LongName, encodeDouble(X));
    Rt.aggregate("small", encodeDouble(X), nullptr);
  }
  int Committed = -1;
  bool BigOk = true, LongOk = true;
  uint64_t ViewShm = 0, ViewOversized = 0, ViewLongName = 0, ViewExhausted = 0;
  Rt.aggregate("small", encodeDouble(0), [&](AggregationView &V) {
    Committed = static_cast<int>(V.committed("small").size());
    for (int I : V.committed("small")) {
      std::vector<double> Big = V.loadDoubles("big", I);
      BigOk = BigOk && Big.size() == 256 && Big[0] == Big[255];
      LongOk = LongOk && V.loadDouble(LongName, I, -1.0) >= 0.0;
    }
    ViewShm = V.shmCommits();
    ViewOversized = V.fileFallbacks(obs::FallbackReason::Oversized);
    ViewLongName = V.fileFallbacks(obs::FallbackReason::LongName);
    ViewExhausted = V.fileFallbacks(obs::FallbackReason::Exhausted);
  });
  CHECK_OR(Committed == N, 2);
  CHECK_OR(BigOk, 3);
  CHECK_OR(LongOk, 4);
  // Per child: "big" (oversized) and the long name fell back, "small"
  // went through the slab.
  CHECK_OR(Rt.storeFallbacks() == static_cast<uint64_t>(2 * N), 5);
  CHECK_OR(Rt.shmCommits() == static_cast<uint64_t>(N), 6);
  // Per-reason attribution: visible in the region's AggregationView
  // window and the run-wide metrics snapshot, tracing disabled or not.
  CHECK_OR(ViewShm == static_cast<uint64_t>(N), 7);
  CHECK_OR(ViewOversized == static_cast<uint64_t>(N), 8);
  CHECK_OR(ViewLongName == static_cast<uint64_t>(N), 9);
  CHECK_OR(ViewExhausted == 0, 10);
  obs::RuntimeMetrics M = Rt.metrics();
  CHECK_OR(M.Fallbacks[int(obs::FallbackReason::Oversized)] ==
               static_cast<uint64_t>(N),
           11);
  CHECK_OR(M.Fallbacks[int(obs::FallbackReason::LongName)] ==
               static_cast<uint64_t>(N),
           12);
  CHECK_OR(M.FileFallbacks == static_cast<uint64_t>(2 * N), 13);
  Rt.finish();
  return 0;
}

int scenarioSlabExhaustionOverflows() {
  // A slab with fewer records than one region's commits must degrade
  // gracefully: the overflow goes to files and every result is still
  // readable. Between regions the slab recycles (its single region
  // consumed more than half the records), so the second region gets a
  // fresh slab window instead of working entirely through the fallback.
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 33;
  Opts.Backend = StoreBackend::Shm;
  Opts.ShmSlabRecords = 4;
  Rt.init(Opts);

  for (int Region = 0; Region != 2; ++Region) {
    const int N = 6;
    Rt.sampling(N);
    double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
    if (Rt.isSampling())
      Rt.aggregate("x2", encodeDouble(X * X), nullptr);
    ScalarAccumulator &Acc = Rt.foldScalar("x2");
    int Committed = -1;
    bool AllReadable = true;
    Rt.aggregate("x2", encodeDouble(0), [&](AggregationView &V) {
      std::vector<int> Idx = V.committed("x2");
      Committed = static_cast<int>(Idx.size());
      for (int I : Idx)
        AllReadable = AllReadable && V.loadDouble("x2", I, -1.0) >= 0.0;
    });
    CHECK_OR(Committed == N, 10 + Region);
    CHECK_OR(AllReadable, 20 + Region);
    // The fold covers slab and file commits alike.
    CHECK_OR(Acc.count() == static_cast<size_t>(N), 30 + Region);
  }
  // Per region: 4 slab commits, then 2 exhaustion fallbacks. The recycle
  // between regions is what keeps region 2 on the slab path.
  CHECK_OR(Rt.shmCommits() == 8, 2);
  CHECK_OR(Rt.storeFallbacks() == 4, 3);
  // Every fallback here is slab exhaustion (records ran out), and the
  // per-reason counters say so.
  obs::RuntimeMetrics M = Rt.metrics();
  CHECK_OR(M.Fallbacks[int(obs::FallbackReason::Exhausted)] == 4, 4);
  CHECK_OR(M.Fallbacks[int(obs::FallbackReason::Oversized)] == 0, 5);
  CHECK_OR(M.Fallbacks[int(obs::FallbackReason::LongName)] == 0, 6);
  CHECK_OR(M.SlabRecycles == 1, 7);
  // The cumulative high-water mark spans epochs; the per-epoch one is
  // bounded by the slab's capacity.
  CHECK_OR(M.SlabRecordsHighWater == 8, 8);
  CHECK_OR(M.SlabEpochHighWater == 4, 9);
  Rt.finish();
  return 0;
}

//===----------------------------------------------------------------------===//
// Files-vs-Shm equivalence sweep
//===----------------------------------------------------------------------===//

/// Parameters reach the forked scenario through file-scope globals (the
/// scenario signature carries no arguments; fork(2) snapshots them).
int GEquivKind = 0;
int GEquivN = 0;
int GEquivPool = 0; // 1 = worker-pool region (samplingRegion)

struct BackendResults {
  int Committed = -1;
  size_t FoldCount = 0;
  double FoldMin = 0, FoldMax = 0, FoldMean = 0;
  double OneShotMean = 0;
  std::vector<uint8_t> Vote;
  std::vector<double> MeanVec;
};

int runOneBackend(StoreBackend B, BackendResults &R) {
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 77; // same seed => identical per-child draws per backend
  Opts.Backend = B;
  Rt.init(Opts);

  // The region body is identical in fork-per-sample and worker-pool mode;
  // only the way it is entered differs. Fold accumulators are registered on
  // the tuning side before the final aggregate() either way.
  ScalarAccumulator *Acc = nullptr;
  double OneShotSum = 0;
  auto Body = [&] {
    double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
    if (Rt.isSampling()) {
      std::vector<uint8_t> Mask(16);
      for (size_t J = 0; J != Mask.size(); ++J)
        Mask[J] = std::fmod(X * static_cast<double>(J + 1), 1.0) > 0.5;
      Rt.commitExtra("mask", encodeVector(Mask));
      std::vector<double> Vec{X, X * X, 1.0 - X};
      Rt.commitExtra("vec", encodeVector(Vec));
      Rt.aggregate("score", encodeDouble(X * X), nullptr);
    }
    Acc = &Rt.foldScalar("score");
    Rt.foldVote("mask");
    Rt.foldMeanVector("vec");
    Rt.aggregate("score", encodeDouble(0), [&](AggregationView &V) {
      std::vector<int> Idx = V.committed("score");
      R.Committed = static_cast<int>(Idx.size());
      for (int I : Idx)
        OneShotSum += V.loadDouble("score", I);
    });
  };
  if (GEquivPool) {
    RegionOptions Ro;
    Ro.Kind = static_cast<SamplingKind>(GEquivKind);
    Rt.samplingRegion(GEquivN, Ro, Body);
  } else {
    Rt.sampling(GEquivN, static_cast<SamplingKind>(GEquivKind));
    Body();
  }
  VoteAccumulator &Votes = Rt.foldVote("mask");
  MeanVectorAccumulator &Means = Rt.foldMeanVector("vec");
  R.FoldCount = Acc->count();
  R.FoldMin = Acc->min();
  R.FoldMax = Acc->max();
  R.FoldMean = Acc->mean();
  R.OneShotMean = R.Committed ? OneShotSum / R.Committed : 0;
  R.Vote = Votes.result(0.5);
  R.MeanVec = Means.result();
  Rt.finish();
  return 0;
}

int scenarioBackendEquivalence() {
  BackendResults Files, Shm;
  CHECK_OR(runOneBackend(StoreBackend::Files, Files) == 0, 2);
  // Root finish() tears the runtime down completely, so the same process
  // can re-init with the other backend.
  CHECK_OR(runOneBackend(StoreBackend::Shm, Shm) == 0, 3);

  CHECK_OR(Files.Committed == GEquivN, 4);
  CHECK_OR(Shm.Committed == GEquivN, 5);
  CHECK_OR(Files.FoldCount == static_cast<size_t>(GEquivN), 6);
  CHECK_OR(Shm.FoldCount == Files.FoldCount, 7);
  // Folding order differs between backends (slab observation order vs
  // index order), so means compare under a tolerance; min/max and votes
  // are order-free and must match exactly.
  CHECK_OR(Shm.FoldMin == Files.FoldMin, 8);
  CHECK_OR(Shm.FoldMax == Files.FoldMax, 9);
  CHECK_OR(std::fabs(Shm.FoldMean - Files.FoldMean) < 1e-12, 10);
  CHECK_OR(Shm.Vote == Files.Vote, 11);
  CHECK_OR(Shm.MeanVec.size() == Files.MeanVec.size(), 12);
  for (size_t I = 0; I != Shm.MeanVec.size(); ++I)
    CHECK_OR(std::fabs(Shm.MeanVec[I] - Files.MeanVec[I]) < 1e-12, 13);
  // Incremental folding agrees with one-shot aggregation over the view.
  CHECK_OR(std::fabs(Files.FoldMean - Files.OneShotMean) < 1e-9, 14);
  CHECK_OR(std::fabs(Shm.FoldMean - Shm.OneShotMean) < 1e-9, 15);
  return 0;
}

struct EquivParam {
  SamplingKind Kind;
  int N;
  bool Pool = false;
};

class StoreEquivalenceTest : public ::testing::TestWithParam<EquivParam> {};

//===----------------------------------------------------------------------===//
// Batched-vs-sequential equivalence
//===----------------------------------------------------------------------===//

int GBatchKind = 0;
int GBatchK = 0;    // regionBatch pipeline depth on the batched side
int GBatchKill = 0; // kill one worker mid-batch on the batched side

constexpr int BatchRegions = 4;
constexpr int BatchSamples = 6;

/// What one delivered region looked like from the tuning side. Values
/// holds every sample's "score" by index — with the per-lease RNG
/// reseed these must be bitwise-identical between a pipelined batch and
/// the sequential samplingRegion() loop.
struct RegionResults {
  int Committed = -1;
  size_t FoldCount = 0;
  double FoldMin = 0, FoldMax = 0;
  std::vector<double> Values;
};

int runBatchedRun(int K, bool Batched, const char *Plan,
                  std::vector<RegionResults> &Out) {
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 91;
  Opts.Backend = StoreBackend::Shm;
  if (Plan)
    Opts.InjectPlan = Plan;
  Rt.init(Opts);

  auto Body = [&] {
    double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
    if (Rt.isSampling())
      Rt.aggregate("score", encodeDouble(X * X), nullptr);
    ScalarAccumulator &Acc = Rt.foldScalar("score");
    Rt.aggregate("score", encodeDouble(0), [&](AggregationView &V) {
      RegionResults R;
      R.Committed = static_cast<int>(V.committed("score").size());
      for (int I = 0; I != BatchSamples; ++I)
        R.Values.push_back(V.loadDouble("score", I, -1.0));
      // Folding finished before the callback; min/max/count are
      // order-free, so they compare exactly (means are not: the slab
      // fold order differs under pipelining).
      R.FoldCount = Acc.count();
      R.FoldMin = Acc.min();
      R.FoldMax = Acc.max();
      Out.push_back(std::move(R));
    });
  };

  RegionOptions Ro;
  Ro.Kind = static_cast<SamplingKind>(GBatchKind);
  Ro.Pipeline = K;
  if (Plan) {
    // One worker claims leases in index order, which makes the kill
    // plan's trace-point ordinal land on a specific lease (see
    // scenarioBatchEquivalence); the replacement worker forked after
    // the kill inherits the tuning side's much smaller ordinal counter
    // and drains the remaining leases without reaching it again.
    Ro.Workers = 1;
  }
  if (Batched) {
    Rt.regionBatch(BatchRegions, BatchSamples, Ro, Body);
  } else {
    for (int R = 0; R != BatchRegions; ++R)
      Rt.samplingRegion(BatchSamples, Ro, Body);
  }
  obs::RuntimeMetrics M = Rt.metrics();
  Rt.finish();
  // The kill must actually have happened (the dead worker's lease was
  // returned); CrashedSamples still ticks for the dead process, but the
  // per-region Committed == N checks prove the lease itself re-ran.
  if (Plan && M.LeaseReclaims == 0)
    return 50;
  return 0;
}

int scenarioBatchEquivalence() {
  std::vector<RegionResults> Seq, Bat;
  CHECK_OR(runBatchedRun(1, /*Batched=*/false, nullptr, Seq) == 0, 2);
  // The 'n' selector counts every tp.* call in the process, and the
  // single worker inherits one (batch.begin) and emits three per lease
  // (lease.begin, store.commit, lease.end): lease Idx begins at ordinal
  // 2 + 3*Idx. n53 therefore SIGKILLs the worker entering lease 17 —
  // region 2 of 4, mid-pipeline. The lease comes back as Returned, and
  // the replacement re-runs it with an identical reseed, so the batch
  // must still match the sequential run exactly.
  const char *Plan = GBatchKill ? "tp.lease.begin@n53:kill" : nullptr;
  int Rc = runBatchedRun(GBatchK, /*Batched=*/true, Plan, Bat);
  CHECK_OR(Rc == 0, Rc ? Rc : 3);

  CHECK_OR(Seq.size() == static_cast<size_t>(BatchRegions), 4);
  CHECK_OR(Bat.size() == Seq.size(), 5);
  for (size_t R = 0; R != Seq.size(); ++R) {
    CHECK_OR(Seq[R].Committed == BatchSamples, 10 + static_cast<int>(R));
    CHECK_OR(Bat[R].Committed == Seq[R].Committed, 20 + static_cast<int>(R));
    // Bitwise identity, not tolerance: same seed, same per-lease reseed.
    CHECK_OR(Bat[R].Values == Seq[R].Values, 30 + static_cast<int>(R));
    CHECK_OR(Bat[R].FoldCount == Seq[R].FoldCount, 40 + static_cast<int>(R));
    CHECK_OR(Bat[R].FoldMin == Seq[R].FoldMin, 60 + static_cast<int>(R));
    CHECK_OR(Bat[R].FoldMax == Seq[R].FoldMax, 70 + static_cast<int>(R));
  }
  return 0;
}

struct BatchParam {
  SamplingKind Kind;
  int K;
  bool Kill = false;
};

class BatchEquivalenceTest : public ::testing::TestWithParam<BatchParam> {};

//===----------------------------------------------------------------------===//
// Slab recycling
//===----------------------------------------------------------------------===//

int GSlabBatched = 0; // run the regions as one Pipeline-1 regionBatch()

int scenarioSlabRecyclingLongRun() {
  // A run committing 10x the slab's record capacity must never hit the
  // exhaustion fallback: each region fits, and the epoch recycle between
  // regions keeps reclaiming the consumed window. A batch with one
  // region in flight recycles between its deliveries the same way.
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 35;
  Opts.Backend = StoreBackend::Shm;
  Opts.ShmSlabRecords = 64;
  Rt.init(Opts);

  const int Regions = 40, N = 16; // 640 records through a 64-record slab
  int Short = 0;                  // regions delivering fewer than N
  auto Body = [&] {
    double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
    if (Rt.isSampling())
      Rt.aggregate("x2", encodeDouble(X * X), nullptr);
    Rt.aggregate("x2", encodeDouble(0), [&](AggregationView &V) {
      Short += static_cast<int>(V.committed("x2").size()) != N;
    });
  };
  if (GSlabBatched) {
    RegionOptions Ro;
    Ro.Pipeline = 1;
    Rt.regionBatch(Regions, N, Ro, Body);
  } else {
    for (int Region = 0; Region != Regions; ++Region) {
      Rt.sampling(N);
      Body();
    }
  }
  CHECK_OR(Short == 0, 3);
  obs::RuntimeMetrics M = Rt.metrics();
  CHECK_OR(Rt.shmCommits() == static_cast<uint64_t>(Regions * N), 4);
  CHECK_OR(M.Fallbacks[int(obs::FallbackReason::Exhausted)] == 0, 5);
  CHECK_OR(Rt.storeFallbacks() == 0, 6);
  // Half-capacity trigger: a recycle at least every other region.
  CHECK_OR(M.SlabRecycles >= static_cast<uint64_t>(Regions / 2 - 1), 7);
  CHECK_OR(M.SlabRecordsHighWater == static_cast<uint64_t>(Regions * N), 8);
  CHECK_OR(M.SlabEpochHighWater <= 64, 9);
  Rt.finish();
  return 0;
}

} // namespace

TEST(ProcStoreTest, TornSlabCommitStaysUnpublished) {
  EXPECT_EQ(runScenario(scenarioTornSlabCommitUnpublished), 0);
}

TEST(ProcStoreTest, OversizedPayloadFallsBackToFiles) {
  EXPECT_EQ(runScenario(scenarioOversizedPayloadFallsBack), 0);
}

TEST(ProcStoreTest, SlabExhaustionOverflowsToFiles) {
  EXPECT_EQ(runScenario(scenarioSlabExhaustionOverflows), 0);
}

TEST(ProcStoreTest, SlabRecyclingSustainsLongRuns) {
  GSlabBatched = 0;
  EXPECT_EQ(runScenario(scenarioSlabRecyclingLongRun), 0);
}

TEST(ProcStoreTest, SlabRecyclingSustainsLongBatches) {
  GSlabBatched = 1;
  EXPECT_EQ(runScenario(scenarioSlabRecyclingLongRun), 0);
}

TEST_P(StoreEquivalenceTest, FilesAndShmAgree) {
  GEquivKind = static_cast<int>(GetParam().Kind);
  GEquivN = GetParam().N;
  GEquivPool = GetParam().Pool ? 1 : 0;
  EXPECT_EQ(runScenario(scenarioBackendEquivalence), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StoreEquivalenceTest,
    ::testing::Values(EquivParam{SamplingKind::Random, 4},
                      EquivParam{SamplingKind::Random, 32},
                      EquivParam{SamplingKind::Stratified, 4},
                      EquivParam{SamplingKind::Stratified, 32},
                      EquivParam{SamplingKind::Random, 4, true},
                      EquivParam{SamplingKind::Random, 32, true},
                      EquivParam{SamplingKind::Stratified, 4, true},
                      EquivParam{SamplingKind::Stratified, 32, true}),
    [](const ::testing::TestParamInfo<EquivParam> &Info) {
      std::string Name = Info.param.Kind == SamplingKind::Random
                             ? "Random"
                             : "Stratified";
      return Name + std::to_string(Info.param.N) +
             (Info.param.Pool ? "Pool" : "");
    });

TEST_P(BatchEquivalenceTest, BatchedMatchesSequential) {
  GBatchKind = static_cast<int>(GetParam().Kind);
  GBatchK = GetParam().K;
  GBatchKill = GetParam().Kill ? 1 : 0;
  EXPECT_EQ(runScenario(scenarioBatchEquivalence), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BatchEquivalenceTest,
    ::testing::Values(BatchParam{SamplingKind::Random, 1},
                      BatchParam{SamplingKind::Random, 2},
                      BatchParam{SamplingKind::Random, 4},
                      BatchParam{SamplingKind::Stratified, 2},
                      BatchParam{SamplingKind::Stratified, 4},
                      BatchParam{SamplingKind::Random, 2, true},
                      BatchParam{SamplingKind::Stratified, 1, true},
                      BatchParam{SamplingKind::Stratified, 4, true}),
    [](const ::testing::TestParamInfo<BatchParam> &Info) {
      std::string Name = Info.param.Kind == SamplingKind::Random
                             ? "Random"
                             : "Stratified";
      return Name + "K" + std::to_string(Info.param.K) +
             (Info.param.Kill ? "Kill" : "");
    });
