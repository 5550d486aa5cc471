//===- examples/fork_runtime.cpp - The paper's literal primitives ---------===//
//
// Part of the WBTuner reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
//
// Drives the faithful fork-based runtime (proc/Runtime.h): real sampling
// processes created with fork(2), the shared-memory aggregation store
// with incremental tuning-side folding, the shared-memory Alg. 1 pool,
// @check pruning, @split tuning processes and majority voting folded
// over each region's sampling processes. This is the paper's Fig. 4
// programming model verbatim — primitives inserted into straight-line
// code.
//
// Build and run:  ./examples/fork_runtime
//
// Set WBT_TRACE=/path/to/trace.json (or RuntimeOptions::TracePath) to
// record every fork, lease, commit, and region of the run as a Chrome
// trace-event file — open it in Perfetto or chrome://tracing.
//
//===----------------------------------------------------------------------===//

#include "proc/Runtime.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace wbt;
using namespace wbt::proc;

int main() {
  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 2024;
  Rt.init(Opts);

  // ---- Region 1: tune `sigma`; keep the two best intermediate results
  // alive as split tuning processes. --------------------------------------
  std::printf("[pid-ish %d] region 1: sampling sigma with 8 processes\n",
              Rt.isTuning() ? 0 : Rt.sampleIndex());
  Rt.sampling(8);
  double Sigma = Rt.sample("sigma", Distribution::uniform(0.0, 2.0));
  double Intermediate = 4.0 - std::pow(Sigma - 1.3, 2); // peak at 1.3
  // @check: prune clearly poor samples before they commit.
  Rt.check(Intermediate > 2.0);
  if (Rt.isSampling()) {
    Rt.commitExtra("sigma", encodeDouble(Sigma));
    Rt.aggregate("intermediate", encodeDouble(Intermediate), nullptr);
  }

  // Incremental folding: with the default Shm store backend the tuning
  // process folds each child's commit into this accumulator during its
  // supervision sweeps, so the statistics are ready at the barrier
  // without re-reading every sample.
  ScalarAccumulator &Fold = Rt.foldScalar("intermediate");

  double MySigma = 0, MyIntermediate = 0;
  bool IsSplitChild = false;
  Rt.aggregate("intermediate", encodeDouble(0), [&](AggregationView &V) {
    std::vector<int> Committed = V.committed("intermediate");
    std::printf("tuning process: %zu of %d samples survived @check\n",
                Committed.size(), V.spawned());
    std::printf("tuning process: folded mean over %zu commits = %.3f "
                "(%llu via the shm slab)\n",
                Fold.count(), Fold.mean(),
                static_cast<unsigned long long>(Rt.shmCommits()));
    int Kept = 0;
    for (int I : Committed) {
      double Val = V.loadDouble("intermediate", I);
      double Sig = V.loadDouble("sigma", I);
      if (Kept == 2)
        break;
      ++Kept;
      // @split: a fresh tuning process continues with this result.
      if (Rt.split()) {
        IsSplitChild = true;
        MySigma = Sig;
        MyIntermediate = Val;
        return;
      }
    }
  });

  if (IsSplitChild) {
    // ---- Region 2 (in each split tuning process): tune `threshold` and
    // majority-vote the final bitmask over the region's samples, folded
    // as the commits arrive (paper Sec. IV-B). ---------------------------
    Rt.sampling(6);
    double Threshold =
        Rt.sample("threshold", Distribution::uniform(0.0, 1.0));
    std::vector<uint8_t> Mask(16);
    for (size_t I = 0; I != Mask.size(); ++I)
      Mask[I] = (MyIntermediate * (I + 1) / 16.0) > Threshold * 4.0 ? 1 : 0;
    if (Rt.isSampling())
      Rt.aggregate("mask", encodeVector(Mask), nullptr);
    VoteAccumulator &Votes = Rt.foldVote("mask");
    Rt.aggregate("mask", {}, [&](AggregationView &) {
      std::vector<uint8_t> Voted = Votes.result(0.5);
      std::string Bits;
      for (uint8_t B : Voted)
        Bits += B ? '1' : '0';
      std::printf("split tuning process (sigma=%.3f): majority mask %s "
                  "over %zu votes\n",
                  MySigma, Bits.c_str(), Votes.runs());
    });
    Rt.finishAndExit();
  }

  // ---- Region 3 (root): fault tolerance. Sampling processes are
  // disposable — one crashes, one hangs past the region timeout — and the
  // supervisor reaps both, reclaims their pool slots, and reports their
  // terminal status through the AggregationView. ---------------------------
  RegionOptions Ro;
  Ro.TimeoutSec = 0.5; // wall-clock budget for the whole region
  Ro.MaxRetries = 1;   // one spare replaces the first failed sample
  Rt.sampling(6, Ro);
  double Gain = Rt.sample("gain", Distribution::uniform(0.0, 1.0));
  if (Rt.isSampling()) {
    if (Rt.sampleIndex() == 1)
      abort(); // injected crash: e.g. a segfaulting candidate config
    if (Rt.sampleIndex() == 4)
      sleep(30); // injected hang: killed by the region timeout
    Rt.aggregate("gain", encodeDouble(Gain), nullptr);
  }
  Rt.aggregate("gain", encodeDouble(0), [&](AggregationView &V) {
    std::printf("supervisor: %d committed, %d crashed, %d timed out, "
                "%d spare(s) activated\n",
                V.countStatus(SampleStatus::Committed),
                V.countStatus(SampleStatus::Crashed),
                V.countStatus(SampleStatus::TimedOut),
                V.spawned() - 6 - V.countStatus(SampleStatus::Unused));
    for (int I = 0; I != V.spawned(); ++I)
      if (V.status(I) == SampleStatus::Crashed)
        std::printf("supervisor: sample %d died on signal %d\n", I,
                    V.crashSignal(I));
  });
  std::printf("root: pool slots reclaimed — %d of %u free (root holds one)\n",
              Rt.freeSlots(), Rt.maxPool());

  // ---- Region 4 (root): worker-pool sampling. The same programming
  // model, but the 16 samples share 4 long-lived workers that claim
  // sample indices from a lease counter instead of costing one fork(2)
  // each. Draws are bitwise-identical to the fork-per-sample mode. ---------
  RegionOptions Po;
  Po.Workers = 4;
  ScalarAccumulator *PoolFold = nullptr;
  Rt.samplingRegion(16, Po, [&] {
    double Bias = Rt.sample("bias", Distribution::uniform(-1.0, 1.0));
    if (Rt.isSampling())
      Rt.aggregate("bias2", encodeDouble(Bias * Bias), nullptr);
    PoolFold = &Rt.foldScalar("bias2");
    Rt.aggregate("bias2", encodeDouble(0), [&](AggregationView &V) {
      std::printf("worker pool: %d samples committed through %d workers "
                  "(mean bias^2 = %.3f)\n",
                  V.countStatus(SampleStatus::Committed), Po.Workers,
                  PoolFold->mean());
    });
  });

  // Metrics are collected whether or not tracing is on; snapshot them
  // before finish() tears the shared mapping down.
  obs::RuntimeMetrics M = Rt.metrics();
  std::printf("metrics: %llu regions (%.1f/s), %llu shm commits, %llu file "
              "fallbacks, %llu crashed, %llu timed out, %llu lease "
              "reclaims, fork p50 %.0fus, commit p50 %.0fus\n",
              static_cast<unsigned long long>(M.RegionsResolved),
              M.regionsPerSec(),
              static_cast<unsigned long long>(M.ShmCommits),
              static_cast<unsigned long long>(M.FileFallbacks),
              static_cast<unsigned long long>(M.CrashedSamples),
              static_cast<unsigned long long>(M.TimedOutSamples),
              static_cast<unsigned long long>(M.LeaseReclaims),
              M.ForkLatency.quantileUs(0.5), M.CommitLatency.quantileUs(0.5));
  if (Rt.traceEnabled())
    std::printf("tracing: writing %s at finish()\n", Rt.tracePath().c_str());

  // Root: wait for the split children.
  Rt.finish(); // waits for all descendants
  std::printf("root: all tuning processes finished\n");
  return 0;
}
