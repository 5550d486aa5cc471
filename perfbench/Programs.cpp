//===- perfbench/Programs.cpp - The four tuned programs and their checks --===//
//
// Part of the WBTuner reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
//
// Each workload is one tuned program on proc::Runtime, built from the
// paper's kernels (src/image, src/cluster, src/ml). A job runs it once:
// init(), its regions, finish(). Every value the program reads through
// AggregationView is also appended to the job area as a VRecord, and
// verifyJob() recomputes it from the run's committed parameters with the
// same kernels, outside the runtime, after the job has exited.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "cluster/KMeans.h"
#include "image/Canny.h"
#include "image/Synthetic.h"
#include "ml/Svm.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <thread>
#include <tuple>

using namespace wbt;
using namespace wbt::proc;

namespace pb {

//===----------------------------------------------------------------------===//
// Shapes and inputs
//===----------------------------------------------------------------------===//

namespace {
constexpr int CannyScenes = 64;
constexpr int CannySigmaSamples = 24;
constexpr int CannySplits = 4;
constexpr int CannyEdgeSamples = 20;
constexpr int KmeansSamples = 16;
constexpr int KmeansShards = 200;
constexpr int KmeansLongShards = 500;
constexpr int KMin = 2, KMax = 10;
constexpr int SvmSets = 8;     ///< regions per job
constexpr int SvmPool = 48;    ///< datasets per seed; job j starts at 8j
constexpr int SvmSamples = 12;
constexpr int SvmFolds = 4;
constexpr int SvmPoints = 80;

/// Verification record kinds.
enum Kind : int32_t {
  RkSigmaRun = 1, ///< sigma region run: A = sigma, B = sharpness ratio
  RkChosen,       ///< split survivor: Run = sigma run, Aux = rank, Hash = NMS
  RkEdgeRun,      ///< split region run: A = low, B = high, C = heuristic
  RkVote,         ///< split region vote: Aux = runs, Hash = voted mask
  RkKmeansRun,    ///< A = committed packed score
  RkKmeansBest,   ///< A = folded minimum, Aux = folded count
  RkSvmRun,       ///< A = C, B = gamma, C = CV error
  RkSvmBest,      ///< A = folded minimum, Aux = folded count
};

uint64_t fnv(const void *Data, size_t Size,
             uint64_t H = 1469598103934665603ull) {
  const auto *P = static_cast<const uint8_t *>(Data);
  for (size_t I = 0; I != Size; ++I)
    H = (H ^ P[I]) * 1099511628211ull;
  return H;
}

uint64_t bitsOf(double X) {
  uint64_t B;
  std::memcpy(&B, &X, sizeof B);
  return B;
}

double withBits(uint64_t B) {
  double X;
  std::memcpy(&X, &B, sizeof X);
  return X;
}
} // namespace

struct Inputs {
  std::vector<img::Scene> Scenes;
  std::vector<double> BaseSharpness;
  std::vector<clus::Dataset> Shards;
  std::vector<ml::MlDataset> Sets;
};

Shape shapeOf(Workload W) {
  Shape S;
  switch (W) {
  case Workload::CannySplit:
    S.Regions = 1 + CannySplits;
    S.PlannedRuns = CannySigmaSamples + CannySplits * CannyEdgeSamples;
    S.JobBoundSec = 10;
    break;
  case Workload::KmeansBatch:
    S.Regions = KmeansShards;
    S.PlannedRuns = KmeansShards * KmeansSamples;
    S.JobBoundSec = 20;
    break;
  case Workload::KmeansLongBatch:
    S.Regions = KmeansLongShards;
    S.PlannedRuns = KmeansLongShards * KmeansSamples;
    S.JobBoundSec = 60;
    break;
  case Workload::SvmAgents:
    S.Regions = SvmSets;
    S.PlannedRuns = SvmSets * SvmSamples;
    S.JobBoundSec = 30;
    break;
  }
  return S;
}

Inputs *makeInputs(Workload W, uint64_t Seed) {
  auto *In = new Inputs;
  switch (W) {
  case Workload::CannySplit: {
    img::SceneOptions O; // 96x96, as the Table I Canny app loads them
    O.NoiseLo = 0.04;
    O.NoiseHi = 0.14;
    O.BlurHi = 1.6;
    for (int I = 0; I != CannyScenes; ++I) {
      In->Scenes.push_back(img::makeScene(Seed, I, O));
      In->BaseSharpness.push_back(
          img::laplacianSharpness(In->Scenes.back().Picture));
    }
    break;
  }
  case Workload::KmeansBatch:
  case Workload::KmeansLongBatch: {
    // Five planted clusters of 60 points (plus noise) in every shard:
    // equal-sized shards keep the heaviest shard of a seed, and with it
    // the region tail, from depending on the seed.
    clus::DatasetOptions O;
    O.MinClusters = 5;
    O.MaxClusters = 5;
    O.PointsPerCluster = 60;
    int N = shapeOf(W).Regions;
    for (int I = 0; I != N; ++I)
      In->Shards.push_back(clus::makeClusterDataset(Seed, I, O));
    break;
  }
  case Workload::SvmAgents: {
    ml::MlDatasetOptions O; // three classes: one-vs-rest cost is fixed
    O.Samples = SvmPoints;
    O.MinClasses = 3;
    O.MaxClasses = 3;
    for (int I = 0; I != SvmPool; ++I)
      In->Sets.push_back(ml::makeClassificationDataset(Seed, I, O));
    break;
  }
  }
  return In;
}

//===----------------------------------------------------------------------===//
// Kernels shared by the programs and the checks
//===----------------------------------------------------------------------===//

namespace {

/// The [39]-style blur check of the paper's Canny walkthrough.
bool sharpnessOk(double Ratio) { return Ratio > 0.08 && Ratio < 0.85; }

/// Plausibility of an edge mask without ground truth: penalize empty or
/// saturated masks, reward edge pixels with two or more edge neighbours.
double edgeHeuristic(const std::vector<uint8_t> &Mask, int W, int H) {
  double Frac = img::edgeFraction(Mask);
  if (Frac < 0.003 || Frac > 0.25)
    return -10.0 + Frac;
  long Edges = 0, Connected = 0;
  for (int Y = 0; Y != H; ++Y)
    for (int X = 0; X != W; ++X) {
      if (!Mask[static_cast<size_t>(Y) * W + X])
        continue;
      ++Edges;
      int Near = 0;
      for (int DY = -1; DY <= 1; ++DY)
        for (int DX = -1; DX <= 1; ++DX) {
          int NX = X + DX, NY = Y + DY;
          if ((DX || DY) && NX >= 0 && NX < W && NY >= 0 && NY < H)
            Near += Mask[static_cast<size_t>(NY) * W + NX];
        }
      Connected += Near >= 2;
    }
  double Continuity = Edges ? double(Connected) / double(Edges) : 0.0;
  return Continuity - 0.15 * std::fabs(std::log(Frac / 0.04));
}

bool edgeOk(double Heur) { return Heur > -5.0; }

img::Image nmsOf(const img::Image &Smoothed) {
  return img::nonMaxSuppress(img::sobel(Smoothed));
}

/// Penalized inertia of one K-means run; the seeding stream depends only
/// on (shard, k), so the check can recompute it from k alone.
double kmeansScore(const clus::Dataset &D, int Shard, int K) {
  Rng R(0x6b6d65616e73ull ^ (uint64_t(Shard) << 8) ^ uint64_t(K));
  clus::KMeansOptions O;
  O.MaxIterations = 10;
  clus::KMeansResult Res = clus::kmeans(D.Points, K, R, O);
  double N = static_cast<double>(D.Points.size());
  return Res.Inertia / N + 0.01 * K * std::log(N) / N;
}

/// The 8-byte commit: the score with k in its low mantissa byte, so the
/// run's parameter travels with its result through the store.
double packScore(double Score, int K) {
  return withBits((bitsOf(Score) & ~0xffull) | uint64_t(K & 0xff));
}
int unpackK(double Packed) { return static_cast<int>(bitsOf(Packed) & 0xff); }

/// k-fold cross-validated error of an RBF SVM; training draws come from
/// a stream keyed on (C, gamma).
double svmCvError(const ml::MlDataset &D, double C, double Gamma) {
  ml::SvmParams P;
  P.Kernel = ml::KernelKind::Rbf;
  P.C = C;
  P.Gamma = Gamma;
  Rng R(bitsOf(C) ^ (bitsOf(Gamma) >> 1));
  double Sum = 0;
  std::vector<size_t> Tr, Va;
  for (int F = 0; F != SvmFolds; ++F) {
    ml::kFoldIndices(D.size(), SvmFolds, F, Tr, Va);
    ml::MultiSvm M = ml::trainMultiSvm(ml::subset(D, Tr), P, R);
    Sum += ml::svmError(M, ml::subset(D, Va));
  }
  return Sum / SvmFolds;
}

/// Dataset of region \p Region of svm-agents job \p JobIdx.
size_t svmSet(int JobIdx, int Region) {
  return static_cast<size_t>(JobIdx * SvmSets + Region) % SvmPool;
}

void noteView(int Region, AggregationView &V) {
  RegionSlot &R = Job->Regions[Region];
  R.Spawned = V.spawned();
  R.Committed = V.countStatus(SampleStatus::Committed);
  R.Pruned = V.countStatus(SampleStatus::Pruned);
  R.Crashed = V.countStatus(SampleStatus::Crashed);
  R.TimedOut = V.countStatus(SampleStatus::TimedOut);
  R.ForkFailed = V.countStatus(SampleStatus::ForkFailed);
  R.Used = 1;
}

void timedInit(Runtime &Rt, const RuntimeOptions &Opts) {
  Job->InitBegin = nowNs();
  {
    Scope S(SpInit);
    Rt.init(Opts);
  }
  Job->InitEnd = nowNs();
}

void timedFinish(Runtime &Rt) {
  noteMetrics(Rt);
  Job->FinishBegin = nowNs();
  {
    Scope S(SpFinish);
    Rt.finish();
  }
  Job->FinishEnd = nowNs();
  Job->Done = 1;
}

//===----------------------------------------------------------------------===//
// canny-split
//===----------------------------------------------------------------------===//

/// Region 1 + S, in split tuning process S: (low, high) hysteresis
/// samples over the inherited NMS image, majority-voted with foldVote.
void cannyEdgeRegion(Runtime &Rt, int S, const img::Image &Nms) {
  int W = Nms.width(), H = Nms.height();
  int Region = 1 + S;
  Job->Regions[Region].Open = nowNs();
  {
    Scope Sc(SpSampling, Region);
    Rt.sampling(CannyEdgeSamples);
  }
  if (Rt.isSampling()) {
    int Run = Rt.sampleIndex();
    RunScope R(Region, Run);
    double Low = Rt.sample("low", Distribution::uniform(0.05, 0.6));
    double High = Rt.sample("high", Distribution::uniform(0.3, 0.95));
    std::vector<uint8_t> Mask;
    {
      Scope K(SpHysteresis, Region, Run);
      Mask = img::hysteresis(Nms, Low, High);
    }
    double Heur = edgeHeuristic(Mask, W, H);
    R.end();
    Rt.check(edgeOk(Heur));
    {
      Scope C(SpCommit, Region, Run);
      Rt.commitExtra("mask", encodeVector(Mask)); // 9 KiB: the slab
    }
    {
      Scope C(SpCommit, Region, Run);
      Rt.commitExtra("lh", encodeVector(std::vector<double>{Low, High}));
    }
    Rt.aggregate("heur", encodeDouble(Heur), nullptr); // exits
  }
  VoteAccumulator &Votes = Rt.foldVote("mask");
  Scope A(SpAggregate, Region);
  Rt.aggregate("heur", encodeDouble(0), [&](AggregationView &V) {
    Job->Regions[Region].Callback = nowNs();
    Scope Cb(SpCallback, Region);
    noteView(Region, V);
    std::vector<uint8_t> Final =
        Votes.runs() ? Votes.result(0.5)
                     : std::vector<uint8_t>(static_cast<size_t>(W) * H, 0);
    Scope Vr(SpVerifyRead, Region);
    for (int I : V.committed("heur")) {
      std::vector<double> LH = V.loadDoubles("lh", I);
      LH.resize(2, std::numeric_limits<double>::quiet_NaN());
      addRecord({RkEdgeRun, Region, I, S, 0, LH[0], LH[1],
                 V.loadDouble("heur", I)});
    }
    addRecord({RkVote, Region, -1, static_cast<int32_t>(Votes.runs()),
               fnv(Final.data(), Final.size()), 0, 0, 0});
  });
}

void runCanny(const Inputs &In, int JobIdx, const RuntimeOptions &Opts) {
  Runtime &Rt = Runtime::get();
  size_t SceneIdx = static_cast<size_t>(JobIdx) % In.Scenes.size();
  const img::Image &Pic = In.Scenes[SceneIdx].Picture;
  double Base = In.BaseSharpness[SceneIdx];
  timedInit(Rt, Opts);

  // Region 0: 24 sigma samples, pruned by the blur check.
  Job->Regions[0].Open = nowNs();
  {
    Scope S(SpSampling, 0);
    Rt.sampling(CannySigmaSamples);
  }
  if (Rt.isSampling()) {
    int Run = Rt.sampleIndex();
    RunScope R(0, Run);
    double Sigma = Rt.sample("sigma", Distribution::uniform(0.2, 3.0));
    img::Image Smoothed;
    {
      Scope K(SpSmooth, 0, Run);
      Smoothed = img::gaussianSmooth(Pic, Sigma);
    }
    double Ratio = img::laplacianSharpness(Smoothed) / (Base + 1e-12);
    if (!sharpnessOk(Ratio)) {
      R.end();
      Rt.check(false); // pruned: exits
    }
    img::Image Nms = nmsOf(Smoothed);
    R.end();
    {
      Scope C(SpCommit, 0, Run);
      Rt.commitExtra("nms", encodeVector(Nms.pixels())); // 36 KiB: files
    }
    {
      Scope C(SpCommit, 0, Run);
      Rt.commitExtra("sigma", encodeDouble(Sigma));
    }
    Rt.aggregate("ratio", encodeDouble(Ratio), nullptr); // exits
  }

  // Rank survivors by distance from the target sharpness and @split the
  // best four: each split tuning process continues with its NMS image.
  int Split = -1;
  img::Image MyNms;
  {
    Scope A(SpAggregate, 0);
    Rt.aggregate("ratio", encodeDouble(0), [&](AggregationView &V) {
      Job->Regions[0].Callback = nowNs();
      Scope Cb(SpCallback, 0);
      noteView(0, V);
      std::vector<std::pair<double, int>> Ranked;
      for (int I : V.committed("ratio")) {
        Scope L(SpLoad, 0, I);
        Ranked.push_back({std::fabs(V.loadDouble("ratio", I) - 0.45), I});
      }
      std::sort(Ranked.begin(), Ranked.end());
      {
        Scope Vr(SpVerifyRead, 0);
        for (auto &[Dist, I] : Ranked)
          addRecord({RkSigmaRun, 0, I, 0, 0, V.loadDouble("sigma", I),
                     V.loadDouble("ratio", I), 0});
      }
      int Keep = std::min<int>(CannySplits, static_cast<int>(Ranked.size()));
      for (int S = 0; S != Keep; ++S) {
        int I = Ranked[static_cast<size_t>(S)].second;
        std::vector<uint8_t> Bytes;
        {
          Scope L(SpLoad, 0, I);
          V.loadBytes("nms", I, Bytes);
        }
        {
          Scope Vr(SpVerifyRead, 0, I);
          addRecord({RkChosen, 0, I, S, fnv(Bytes.data(), Bytes.size()), 0,
                     0, 0});
        }
        bool Child;
        {
          Scope Sp(SpSplit, 0, I);
          Child = Rt.split();
        }
        if (Child) {
          Split = S;
          MyNms = img::Image(Pic.width(), Pic.height());
          std::vector<float> Px = decodeVector<float>(Bytes);
          if (Px.size() == MyNms.size())
            MyNms.pixels() = std::move(Px);
          return;
        }
      }
    });
  }
  if (Split >= 0) {
    cannyEdgeRegion(Rt, Split, MyNms);
    noteMetrics(Rt);
    Rt.finishAndExit();
  }
  timedFinish(Rt);
}

//===----------------------------------------------------------------------===//
// kmeans-batch / kmeans-longbatch
//===----------------------------------------------------------------------===//

void runKmeans(const Inputs &In, const RuntimeOptions &Opts,
               const RegionOptions &Ro) {
  Runtime &Rt = Runtime::get();
  int Shards = static_cast<int>(In.Shards.size());
  timedInit(Rt, Opts);
  int64_t Open = nowNs();
  for (int R = 0; R != Shards; ++R)
    Job->Regions[R].Open = Open;
  Scope B(SpBatch);
  // One region per shard; the body derives the shard from the region
  // ordinal (the nursery freezes the first region's closure).
  Rt.regionBatch(Shards, KmeansSamples, Ro, [&] {
    int Shard = static_cast<int>(Rt.regionOrdinal()) - 1;
    if (Rt.isSampling()) {
      int Run = Rt.sampleIndex();
      RunScope R(Shard, Run);
      int K = static_cast<int>(
          Rt.sample("k", Distribution::uniformInt(KMin, KMax)));
      double Score;
      {
        Scope Km(SpKmeans, Shard, Run);
        Score = kmeansScore(In.Shards[static_cast<size_t>(Shard)], Shard, K);
      }
      double Packed = packScore(Score, K);
      R.end();
      // A pool lease's aggregate() commits and unwinds back into the
      // worker loop, which closes this span.
      Scope C(SpCommit, Shard, Run);
      Rt.aggregate("score", encodeDouble(Packed), nullptr);
      return;
    }
    ScalarAccumulator &Best = Rt.foldScalar("score");
    Rt.aggregate("score", encodeDouble(0), [&](AggregationView &V) {
      Job->Regions[Shard].Callback = nowNs();
      Scope Cb(SpCallback, Shard);
      noteView(Shard, V);
      double Min = Best.min();
      Scope Vr(SpVerifyRead, Shard);
      for (int I : V.committed("score"))
        addRecord(
            {RkKmeansRun, Shard, I, 0, 0, V.loadDouble("score", I), 0, 0});
      addRecord({RkKmeansBest, Shard, -1, static_cast<int32_t>(Best.count()), 0,
                 Min, 0, 0});
    });
  });
  B.close();
  timedFinish(Rt);
}

//===----------------------------------------------------------------------===//
// svm-agents
//===----------------------------------------------------------------------===//

void runSvm(const Inputs &In, int JobIdx, const RuntimeOptions &Opts,
            const RegionOptions &Ro) {
  Runtime &Rt = Runtime::get();
  timedInit(Rt, Opts);
  auto Body = [&] {
    int Set = static_cast<int>(Rt.regionOrdinal()) - 1;
    if (Rt.isSampling()) {
      int Run = Rt.sampleIndex();
      RunScope R(Set, Run);
      double C = Rt.sample("C", Distribution::logUniform(0.01, 100.0));
      double G = Rt.sample("gamma", Distribution::logUniform(0.001, 10.0));
      double Err;
      {
        Scope K(SpSvmCv, Set, Run);
        Err = svmCvError(In.Sets[svmSet(JobIdx, Set)], C, G);
      }
      R.end();
      {
        Scope Cm(SpCommit, Set, Run);
        Rt.commitExtra("cg", encodeVector(std::vector<double>{C, G}));
      }
      Scope Cm(SpCommit, Set, Run);
      Rt.aggregate("err", encodeDouble(Err), nullptr);
      return;
    }
    ScalarAccumulator &Best = Rt.foldScalar("err");
    Rt.aggregate("err", encodeDouble(0), [&](AggregationView &V) {
      Job->Regions[Set].Callback = nowNs();
      Scope Cb(SpCallback, Set);
      noteView(Set, V);
      double Min = Best.min();
      Scope Vr(SpVerifyRead, Set);
      for (int I : V.committed("err")) {
        std::vector<double> CG = V.loadDoubles("cg", I);
        CG.resize(2, std::numeric_limits<double>::quiet_NaN());
        addRecord(
            {RkSvmRun, Set, I, 0, 0, CG[0], CG[1], V.loadDouble("err", I)});
      }
      addRecord({RkSvmBest, Set, -1, static_cast<int32_t>(Best.count()), 0, Min,
                 0, 0});
    });
  };
  for (int D = 0; D != SvmSets; ++D) {
    Job->Regions[D].Open = nowNs();
    Scope S(SpRegion, D);
    Rt.samplingRegion(SvmSamples, Ro, Body);
  }
  timedFinish(Rt);
}

} // namespace

void runJob(Workload W, const Inputs &In, int JobIdx,
            const RuntimeOptions &Opts, unsigned Cores) {
  RegionOptions Ro = regionOptions(W, Cores);
  switch (W) {
  case Workload::CannySplit:
    runCanny(In, JobIdx, Opts);
    break;
  case Workload::KmeansBatch:
  case Workload::KmeansLongBatch:
    runKmeans(In, Opts, Ro);
    break;
  case Workload::SvmAgents:
    runSvm(In, JobIdx, Opts, Ro);
    break;
  }
}

//===----------------------------------------------------------------------===//
// Verification
//===----------------------------------------------------------------------===//

namespace {

/// Collects comparisons of one verification task.
struct Checker {
  int Checked = 0;
  int Mismatches = 0;
  std::string First;
  bool *Perturb = nullptr; ///< flip the next reference once

  uint64_t ref(uint64_t Bits) {
    if (Perturb && *Perturb) {
      *Perturb = false;
      return Bits ^ 1;
    }
    return Bits;
  }
  void same(uint64_t Got, uint64_t Want, const std::string &What) {
    ++Checked;
    if (Got == ref(Want))
      return;
    if (!Mismatches++)
      First = What;
  }
  void sameD(double Got, double Want, const std::string &What) {
    same(bitsOf(Got), bitsOf(Want), What);
  }
  void fail(const std::string &What) {
    ++Checked;
    if (!Mismatches++)
      First = What;
  }
};

std::string where(int Job, int Region, int Run) {
  return "job " + std::to_string(Job) + " region " + std::to_string(Region) +
         " run " + std::to_string(Run);
}

/// Runs \p Tasks on \p Threads threads (joined before returning).
void runTasks(std::vector<std::function<void()>> &Tasks, unsigned Threads) {
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < Tasks.size();)
      Tasks[I]();
  };
  std::vector<std::thread> Pool;
  for (unsigned T = 1; T < Threads && T < Tasks.size(); ++T)
    Pool.emplace_back(Worker);
  Worker();
  for (std::thread &T : Pool)
    T.join();
}

} // namespace

Verdict verifyJob(Workload W, const Inputs &In, int JobIdx, unsigned Threads,
                  bool Perturb) {
  int N = std::min(Job->NumRecords.load(), MaxRecords);
  std::vector<VRecord> Recs(Job->Records, Job->Records + N);
  // Split tuning processes append concurrently: canonical order first.
  std::sort(Recs.begin(), Recs.end(), [](const VRecord &A, const VRecord &B) {
    return std::tie(A.Kind, A.Region, A.Aux, A.Run) <
           std::tie(B.Kind, B.Region, B.Aux, B.Run);
  });
  Verdict V;
  V.Digest = fnv(nullptr, 0);
  for (const VRecord &R : Recs)
    V.Digest = fnv(&R, sizeof R, V.Digest);
  std::map<std::pair<int, int>, std::vector<const VRecord *>> ByRegion;
  for (const VRecord &R : Recs)
    ByRegion[{R.Kind, R.Region}].push_back(&R);
  auto recordsOf = [&](int Kind, int Region) {
    auto It = ByRegion.find({Kind, Region});
    return It == ByRegion.end() ? std::vector<const VRecord *>() : It->second;
  };

  std::vector<std::function<void()>> Tasks;
  std::vector<Checker> Checks;
  bool PerturbLeft = Perturb;
  std::vector<img::Image> ChosenNms; // canny: references of the survivors

  switch (W) {
  case Workload::CannySplit: {
    size_t SceneIdx = static_cast<size_t>(JobIdx) % In.Scenes.size();
    const img::Image &Pic = In.Scenes[SceneIdx].Picture;
    double Base = In.BaseSharpness[SceneIdx];
    std::vector<const VRecord *> SigmaRuns = recordsOf(RkSigmaRun, 0);
    std::vector<const VRecord *> Chosen = recordsOf(RkChosen, 0);
    std::sort(Chosen.begin(), Chosen.end(),
              [](const VRecord *A, const VRecord *B) {
                return A->Aux < B->Aux;
              });
    Checks.resize(1 + Chosen.size());
    Checks[0].Perturb = &PerturbLeft;
    ChosenNms.resize(Chosen.size());
    // Survivor ranking: recompute every committed run's sharpness from
    // its sigma, re-rank, and compare the chosen order and NMS bytes.
    {
      Checker &C = Checks[0];
      std::vector<std::pair<double, int>> Ranked;
      std::map<int, double> SigmaOf;
      for (const VRecord *R : SigmaRuns) {
        img::Image S = img::gaussianSmooth(Pic, R->A);
        double Ratio = img::laplacianSharpness(S) / (Base + 1e-12);
        C.sameD(R->B, Ratio, "sharpness of " + where(JobIdx, 0, R->Run));
        if (!sharpnessOk(Ratio))
          C.fail("committed run was not pruned: " + where(JobIdx, 0, R->Run));
        Ranked.push_back({std::fabs(Ratio - 0.45), R->Run});
        SigmaOf[R->Run] = R->A;
      }
      std::sort(Ranked.begin(), Ranked.end());
      size_t Keep = std::min<size_t>(CannySplits, Ranked.size());
      C.same(Chosen.size(), Keep,
             "survivor count of job " + std::to_string(JobIdx));
      for (size_t S = 0; S < Keep && S < Chosen.size(); ++S) {
        C.same(uint64_t(Chosen[S]->Run), uint64_t(Ranked[S].second),
               "survivor rank " + std::to_string(S) + " of job " +
                   std::to_string(JobIdx));
        img::Image Nms =
            nmsOf(img::gaussianSmooth(Pic, SigmaOf[Chosen[S]->Run]));
        std::vector<uint8_t> Bytes = encodeVector(Nms.pixels());
        C.same(Chosen[S]->Hash, fnv(Bytes.data(), Bytes.size()),
               "NMS image of " + where(JobIdx, 0, Chosen[S]->Run));
        ChosenNms[S] = std::move(Nms);
      }
    }
    // Each split's vote: recompute every committed run's mask and
    // heuristic from (low, high), vote them, compare the voted mask.
    for (size_t S = 0; S != Chosen.size(); ++S) {
      Tasks.push_back([&, S] {
        Checker &C = Checks[1 + S];
        int Region = 1 + static_cast<int>(S);
        const img::Image &Nms = ChosenNms[S];
        if (Nms.empty())
          return;
        int Wd = Nms.width(), Ht = Nms.height();
        VoteAccumulator Votes;
        for (const VRecord *R : recordsOf(RkEdgeRun, Region)) {
          std::vector<uint8_t> Mask = img::hysteresis(Nms, R->A, R->B);
          double Heur = edgeHeuristic(Mask, Wd, Ht);
          C.sameD(R->C, Heur,
                  "edge heuristic of " + where(JobIdx, Region, R->Run));
          if (!edgeOk(Heur))
            C.fail("committed run was not pruned: " +
                   where(JobIdx, Region, R->Run));
          Votes.add(Mask);
        }
        std::vector<const VRecord *> Vote = recordsOf(RkVote, Region);
        if (Vote.size() != 1) {
          C.fail("missing vote of job " + std::to_string(JobIdx) + " region " +
                 std::to_string(Region));
          return;
        }
        std::vector<uint8_t> Final =
            Votes.runs()
                ? Votes.result(0.5)
                : std::vector<uint8_t>(static_cast<size_t>(Wd) * Ht, 0);
        C.same(uint64_t(Vote[0]->Aux), Votes.runs(),
               "vote count of job " + std::to_string(JobIdx) + " region " +
                   std::to_string(Region));
        C.same(Vote[0]->Hash, fnv(Final.data(), Final.size()),
               "voted mask of job " + std::to_string(JobIdx) + " region " +
                   std::to_string(Region));
      });
    }
    break;
  }
  case Workload::KmeansBatch:
  case Workload::KmeansLongBatch: {
    int Shards = static_cast<int>(In.Shards.size());
    Checks.resize(static_cast<size_t>(Shards));
    Checks[0].Perturb = &PerturbLeft;
    for (int Sh = 0; Sh != Shards; ++Sh)
      Tasks.push_back([&, Sh] {
        Checker &C = Checks[static_cast<size_t>(Sh)];
        double Memo[KMax + 1];
        std::fill(std::begin(Memo), std::end(Memo),
                  std::numeric_limits<double>::quiet_NaN());
        double Min = std::numeric_limits<double>::infinity();
        std::vector<const VRecord *> Runs = recordsOf(RkKmeansRun, Sh);
        for (const VRecord *R : Runs) {
          int K = unpackK(R->A);
          if (K < KMin || K > KMax) {
            C.fail("k out of range in " + where(JobIdx, Sh, R->Run));
            continue;
          }
          if (std::isnan(Memo[K]))
            Memo[K] = packScore(
                kmeansScore(In.Shards[static_cast<size_t>(Sh)], Sh, K), K);
          C.sameD(R->A, Memo[K], "score of " + where(JobIdx, Sh, R->Run));
          Min = std::min(Min, Memo[K]);
        }
        std::vector<const VRecord *> Best = recordsOf(RkKmeansBest, Sh);
        if (Best.size() != 1) {
          C.fail("missing best score of job " + std::to_string(JobIdx) +
                 " shard " + std::to_string(Sh));
          return;
        }
        C.same(uint64_t(Best[0]->Aux), Runs.size(),
               "folded count of job " + std::to_string(JobIdx) + " shard " +
                   std::to_string(Sh));
        C.sameD(Best[0]->A, Min,
                "best score of job " + std::to_string(JobIdx) + " shard " +
                    std::to_string(Sh));
      });
    break;
  }
  case Workload::SvmAgents: {
    Checks.resize(SvmSets);
    Checks[0].Perturb = &PerturbLeft;
    for (int D = 0; D != SvmSets; ++D)
      Tasks.push_back([&, D] {
        Checker &C = Checks[static_cast<size_t>(D)];
        double Min = std::numeric_limits<double>::infinity();
        std::vector<const VRecord *> Runs = recordsOf(RkSvmRun, D);
        for (const VRecord *R : Runs) {
          double Err = svmCvError(In.Sets[svmSet(JobIdx, D)], R->A, R->B);
          C.sameD(R->C, Err, "CV error of " + where(JobIdx, D, R->Run));
          Min = std::min(Min, Err);
        }
        std::vector<const VRecord *> Best = recordsOf(RkSvmBest, D);
        if (Best.size() != 1) {
          C.fail("missing best error of job " + std::to_string(JobIdx) +
                 " set " + std::to_string(D));
          return;
        }
        C.same(uint64_t(Best[0]->Aux), Runs.size(),
               "folded count of job " + std::to_string(JobIdx) + " set " +
                   std::to_string(D));
        C.sameD(Best[0]->A, Min,
                "best CV error of job " + std::to_string(JobIdx) + " set " +
                    std::to_string(D));
      });
    break;
  }
  }
  runTasks(Tasks, Threads);
  for (const Checker &C : Checks) {
    V.Checked += C.Checked;
    if (C.Mismatches && V.FirstMismatch.empty())
      V.FirstMismatch = C.First;
    V.Mismatches += C.Mismatches;
  }
  if (Job->RecordOverflow.load()) {
    ++V.Mismatches;
    if (V.FirstMismatch.empty())
      V.FirstMismatch = "verification records overflowed";
  }
  return V;
}

} // namespace pb
