//===- bench/bench_optimizations.cpp - Paper Fig. 10 -----------------------===//
//
// Part of the WBTuner reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
//
// The optimization ablation of paper Fig. 10 plus the DESIGN.md ablation
// list: for workloads shaped like the heavier benchmarks (large
// per-sample results, many samples), measure tuning time and the
// undigested-result memory high-water mark under
//
//   o  : one-shot aggregation, no Alg. 1 scheduling (plain FIFO pool)
//   +i : incremental aggregation
//   +s : incremental aggregation + the Alg. 1 scheduler
//
// and additionally the effect of @check pruning (the Canny funnel), and
// the same Fig. 10 shape in the real fork runtime: the aggregation-store
// ablation Files vs Shm vs Shm+incremental-folding (commit latency,
// tuning-side aggregation latency, end-to-end region throughput).
//
// `--json` writes the store-ablation rows to BENCH_optimizations.json at
// the repo root.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "obs/Metrics.h"
#include "proc/Runtime.h"
#include "support/Timer.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>

using namespace wbt;

namespace {

struct WorkloadSpec {
  const char *Name;
  int Samples;
  size_t ResultBytes;  // per-sample committed payload
  int WorkUnits;       // synthetic compute per sample
};

using BodyFn =
    std::function<std::optional<std::vector<double>>(const double &,
                                                     SampleContext &)>;

/// Runs one configuration; returns (seconds, peak live bytes).
std::pair<double, size_t> runConfig(const WorkloadSpec &W, bool Incremental,
                                    bool UseAlg1) {
  Pipeline P;
  StageOptions S;
  S.NumSamples = W.Samples;
  S.Incremental = Incremental;
  S.ResultBytesHint = W.ResultBytes;
  int Units = W.WorkUnits;
  size_t Elems = W.ResultBytes / sizeof(double);

  auto MakeAgg = [] {
    // Mean-vector aggregation: representable both incrementally (running
    // sums) and batch (all results retained until the barrier).
    class MeanAgg
        : public Aggregator<std::vector<double>, std::vector<double>> {
    public:
      void add(const SampleInfo &, std::vector<double> &&R) override {
        if (Sums.empty())
          Sums.assign(R.size(), 0.0);
        for (size_t I = 0; I != R.size(); ++I)
          Sums[I] += R[I];
        ++N;
      }
      std::vector<std::vector<double>> finish() override {
        for (double &X : Sums)
          X /= std::max(1, N);
        return {Sums};
      }

    private:
      std::vector<double> Sums;
      int N = 0;
    };
    return std::make_unique<MeanAgg>();
  };

  P.addStage<double, std::vector<double>, std::vector<double>>(
      W.Name, S,
      BodyFn([Units, Elems](const double &,
                            SampleContext &Ctx) -> std::optional<std::vector<double>> {
        double X = Ctx.sample("x", Distribution::uniform(0.0, 1.0));
        // Synthetic stage computation.
        double Acc = X;
        for (int I = 0; I != Units * 1000; ++I)
          Acc = Acc * 1.0000001 + 0.5;
        std::vector<double> Result(Elems, Acc);
        Ctx.setScore(X);
        return Result;
      }),
      std::function<std::unique_ptr<
          Aggregator<std::vector<double>, std::vector<double>>>()>(MakeAgg));

  RunOptions RO;
  RO.Workers = 4;
  RO.Seed = 99;
  RO.UseAlg1Scheduler = UseAlg1;
  Timer T;
  RunReport Rep = P.run(std::any(0.0), RO);
  return {T.seconds(), Rep.Stages[0].PeakLiveBytes};
}

//===----------------------------------------------------------------------===//
// Fork-runtime store ablation (Fig. 10's shape outside the in-process
// engine).
//===----------------------------------------------------------------------===//

/// One measured configuration of the fork-runtime store ablation.
struct StoreAblationRow {
  const char *Name;
  double CommitUs;      // mean per-commit latency inside the children
  double AggregateMs;   // tuning-side aggregation time, summed
  double RegionsPerSec; // end-to-end region throughput
  double TotalSec;
  obs::RuntimeMetrics Metrics; // snapshot taken just before finish()
};

/// Runs `Regions` fork-runtime regions of `N` samples each, with every
/// child committing a `PayloadDoubles`-element vector, and measures the
/// three Fig. 10 quantities for one store configuration. `Pool` enters
/// each region through samplingRegion() (worker-pool leases, one fork
/// per worker) instead of sampling() (one fork per sample). A non-null
/// `TracePath` turns the event ring on, measuring tracing's cost against
/// the identical untraced configuration. A non-null `InjectPlan` arms
/// fault injection with that plan text (use a never-firing clause to
/// price the armed-but-idle wrapper checks). `Pipeline` > 0 runs the
/// timed regions of a pool configuration as one regionBatch() call with
/// that many regions in flight, so one worker set serves them all; 0
/// runs them as sequential regions. `NetAgents` > 0 adds that many remote
/// sampling agents over localhost TCP, racing the local pool for lease
/// ranges. Each child times its own payload commit and sends the latency
/// as its region result, which the tuning side folds.
StoreAblationRow runStoreConfig(const char *Name, proc::StoreBackend B,
                                bool Fold, bool Pool,
                                const char *TracePath = nullptr,
                                const char *InjectPlan = nullptr,
                                int Regions = 6, int Pipeline = 0,
                                unsigned NetAgents = 0) {
  using namespace wbt::proc;
  // Untimed regions run first so one-time costs (shm slab creation, COW
  // page faults, agent spawn, trace-file open) don't land in
  // whichever row happens to run first. Without this the ablation rows
  // were order-dependent: the traced row could beat its own untraced
  // baseline simply by running later. Throughput is then best-of-Trials
  // over `Regions`-region runs, which strips scheduler noise without
  // needing the slow configurations to run for minutes.
  constexpr int WarmupRegions = 2;
  constexpr int Trials = 3;
  constexpr int N = 32;
  constexpr size_t PayloadDoubles = 256;

  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 123;
  Opts.Backend = B;
  // The slab is run-scoped, not per-region: size it for the largest row
  // (about 300 regions x 64 commits x 2KiB) so no configuration spills
  // into the file fallback and muddies the store comparison.
  Opts.ShmSlabRecords = 1u << 16;
  Opts.ShmSlabBytes = 64u << 20;
  Opts.NetAgents = NetAgents;
  if (TracePath)
    Opts.TracePath = TracePath;
  if (InjectPlan)
    Opts.InjectPlan = InjectPlan;
  Rt.init(Opts);

  double AggregateSec = 0;
  double CommitUsSum = 0;
  size_t Commits = 0;
  auto Body = [&] {
    double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
    if (Rt.isSampling()) {
      std::vector<double> Vec(PayloadDoubles, X);
      std::vector<uint8_t> Bytes = encodeVector(Vec);
      Timer Commit;
      Rt.commitExtra("v", Bytes);
      // The result record carries the payload commit's latency, so the
      // timing adds no commit of its own.
      Rt.aggregate("done", encodeDouble(Commit.seconds() * 1e6), nullptr);
    }
    MeanVectorAccumulator *Acc = Fold ? &Rt.foldMeanVector("v") : nullptr;
    ScalarAccumulator &CommitUs = Rt.foldScalar("done");
    std::vector<double> Mean;
    Rt.aggregate("done", encodeDouble(0), [&](AggregationView &V) {
      CommitUsSum += CommitUs.mean() * static_cast<double>(CommitUs.count());
      Commits += CommitUs.count();
      Timer Agg;
      if (Acc) {
        // Incremental: commits were folded during the supervisor
        // sweeps; only the O(accumulator) result extraction remains.
        Mean = Acc->result();
      } else {
        // One-shot: the classic read-everything-at-the-barrier storm.
        MeanVectorAccumulator OneShot;
        for (int I : V.committed("v"))
          OneShot.add(V.loadDoubles("v", I));
        Mean = OneShot.result();
      }
      AggregateSec += Agg.seconds();
    });
    if (Mean.size() != PayloadDoubles)
      std::fprintf(stderr, "store ablation: bad mean size %zu\n",
                   Mean.size());
  };
  auto RunRegion = [&] {
    if (Pool) {
      Rt.samplingRegion(N, Body);
    } else {
      Rt.sampling(N);
      Body();
    }
  };
  // Pipeline > 0 times whole regionBatch() calls instead of sequential
  // regions: one lease table spans the batch, workers roll region to
  // region while the tuning side folds and delivers in order.
  auto RunSpan = [&](int Count) {
    if (Pipeline > 0 && Pool) {
      proc::RegionOptions Ro;
      Ro.Pipeline = Pipeline;
      Rt.regionBatch(Count, N, Ro, Body);
    } else {
      for (int R = 0; R != Count; ++R)
        RunRegion();
    }
  };

  RunSpan(WarmupRegions);
  // Warmup done: drop its contributions and start measuring.
  CommitUsSum = 0;
  Commits = 0;
  AggregateSec = 0;
  double BestSec = std::numeric_limits<double>::infinity();
  for (int T = 0; T != Trials; ++T) {
    Timer Trial;
    RunSpan(Regions);
    BestSec = std::min(BestSec, Trial.seconds());
  }
  StoreAblationRow Row;
  Row.Name = Name;
  Row.CommitUs = Commits ? CommitUsSum / static_cast<double>(Commits) : 0.0;
  Row.AggregateMs = AggregateSec * 1e3 / Trials;
  Row.RegionsPerSec = Regions / BestSec;
  Row.TotalSec = BestSec;
  Row.Metrics = Rt.metrics();
  Rt.finish();
  return Row;
}

} // namespace

#ifndef WBT_SOURCE_ROOT
#define WBT_SOURCE_ROOT "."
#endif
#ifndef WBT_BUILD_TYPE
#define WBT_BUILD_TYPE "unknown"
#endif

int main(int argc, char **argv) {
  bool Json = false, StoreOnly = false;
  for (int I = 1; I != argc; ++I) {
    Json |= std::strcmp(argv[I], "--json") == 0;
    StoreOnly |= std::strcmp(argv[I], "--store-only") == 0;
  }
  if (std::strcmp(WBT_BUILD_TYPE, "Release") != 0)
    std::fprintf(stderr,
                 "WARNING: bench_optimizations built as '%s', not Release; "
                 "numbers are not comparable to the committed artifacts\n",
                 WBT_BUILD_TYPE);
  // `--store-only` skips the in-process engine ablations (CI's bench
  // smoke only checks the fork-runtime store rows).
  if (!StoreOnly) {
  std::printf("=== Fig. 10: optimization effects (o = one-shot+FIFO, "
              "+i = incremental, +s = +Alg.1 scheduler) ===\n");
  std::printf("%-10s | %9s %12s | %9s %12s | %9s %12s\n", "workload",
              "o time", "o mem", "+i time", "+i mem", "+s time", "+s mem");

  WorkloadSpec Specs[] = {
      // name            samples  result bytes   work
      {"Canny-like", 200, 9216 * 8, 20},   // big images, many samples
      {"Kmeans-like", 120, 64 * 8, 40},    // small results
      {"SVM-like", 60, 512 * 8, 120},      // few, heavy samples
      {"Sphinx-like", 150, 256 * 8, 60},
  };
  for (const WorkloadSpec &W : Specs) {
    auto [TO, MO] = runConfig(W, /*Incremental=*/false, /*UseAlg1=*/false);
    auto [TI, MI] = runConfig(W, true, false);
    auto [TS, MS] = runConfig(W, true, true);
    std::printf("%-10s | %8.3fs %11zuB | %8.3fs %11zuB | %8.3fs %11zuB\n",
                W.Name, TO, MO, TI, MI, TS, MS);
  }
  std::printf("(incremental aggregation should collapse the memory "
              "high-water mark; the scheduler should not regress time)\n\n");

  //===------------------------------------------------------------------===//
  // DESIGN.md ablation 3: pruning via @check (the 200 -> 122 funnel).
  //===------------------------------------------------------------------===//
  std::printf("=== Ablation: @check pruning of poor samples ===\n");
  for (bool Prune : {false, true}) {
    Pipeline P;
    StageOptions S1;
    S1.NumSamples = 200;
    P.addStage<double, double, double>(
        "stage1", S1,
        std::function<std::optional<double>(const double &, SampleContext &)>(
            [Prune](const double &,
                    SampleContext &Ctx) -> std::optional<double> {
              double Sigma =
                  Ctx.sample("sigma", Distribution::uniform(0.0, 1.0));
              // "Properly smoothed" band, as in the paper's Canny example.
              if (Prune && !Ctx.check(Sigma > 0.2 && Sigma < 0.8))
                return std::nullopt;
              Ctx.setScore(-std::fabs(Sigma - 0.5));
              return Sigma;
            }),
        std::function<std::unique_ptr<Aggregator<double, double>>()>([] {
          return std::make_unique<BestScoreAggregator<double>>(false);
        }));
    StageOptions S2;
    S2.NumSamples = 90;
    std::atomic<long> Stage2Work{0};
    P.addStage<double, double, double>(
        "stage2", S2,
        std::function<std::optional<double>(const double &, SampleContext &)>(
            [&Stage2Work](const double &In,
                          SampleContext &Ctx) -> std::optional<double> {
              Stage2Work.fetch_add(1);
              double Low = Ctx.sample("low", Distribution::uniform(0.0, 1.0));
              Ctx.setScore(-std::fabs(In + Low - 1.0));
              return In + Low;
            }),
        std::function<std::unique_ptr<Aggregator<double, double>>()>([] {
          return std::make_unique<BestScoreAggregator<double>>(false);
        }));
    RunOptions RO;
    RO.Workers = 4;
    RO.Seed = 101;
    RunReport Rep = P.run(std::any(0.0), RO);
    std::printf("  pruning %-3s: stage-1 pruned %ld of %ld; total samples "
                "%ld\n",
                Prune ? "on" : "off", Rep.Stages[0].Pruned,
                Rep.Stages[0].SamplesRun, Rep.TotalSamples);
  }
  std::printf("(paper Sec. II-D: 200 samples, 78 pruned, 122 survive)\n\n");
  } // !StoreOnly

  //===------------------------------------------------------------------===//
  // Fork-runtime aggregation-store ablation: Files vs Shm vs Shm+fold vs
  // Shm+fold through the worker pool (forks amortized across leases).
  //===------------------------------------------------------------------===//
  std::printf("=== Fork-runtime store ablation (32-sample regions, 2KiB "
              "payloads; 2 untimed warmup regions, best of 3 trials) ===\n");
  std::printf("%-20s | %11s | %12s | %11s\n", "config", "commit", "aggregate",
              "regions/s");
  // Per-row timed region counts scale with expected throughput so every
  // row measures a comparable wall-clock span; a 6-region run of the
  // fastest configs finishes in a few milliseconds, where scheduler
  // noise swamps the signal.
  StoreAblationRow Rows[] = {
      runStoreConfig("files", proc::StoreBackend::Files, /*Fold=*/false,
                     /*Pool=*/false, nullptr, nullptr, /*Regions=*/6),
      runStoreConfig("shm", proc::StoreBackend::Shm, /*Fold=*/false,
                     /*Pool=*/false, nullptr, nullptr, /*Regions=*/24),
      runStoreConfig("shm+fold", proc::StoreBackend::Shm, /*Fold=*/true,
                     /*Pool=*/false, nullptr, nullptr, /*Regions=*/24),
      runStoreConfig("shm+fold+workerpool", proc::StoreBackend::Shm,
                     /*Fold=*/true, /*Pool=*/true, nullptr, nullptr,
                     /*Regions=*/48),
      // Tracing ablation: same configuration as the workerpool row with
      // the event ring and exporter live. The untraced row above doubles
      // as the "tracing compiled in but disabled" baseline (tracing is
      // always compiled in); CI asserts the two agree within a symmetric
      // noise band.
      runStoreConfig("shm+fold+workerpool+trace", proc::StoreBackend::Shm,
                     /*Fold=*/true, /*Pool=*/true,
                     WBT_SOURCE_ROOT "/BENCH_trace.json", nullptr,
                     /*Regions=*/48),
      // Fault-injection ablation: same configuration as the workerpool
      // row with injection armed but a clause that never fires (ordinal
      // far past any call count), so only the per-syscall plan lookups
      // are priced. The untraced workerpool row doubles as the disarmed
      // baseline; CI asserts the two agree within a symmetric noise band.
      runStoreConfig("shm+fold+workerpool+inject", proc::StoreBackend::Shm,
                     /*Fold=*/true, /*Pool=*/true, nullptr,
                     "fork@n1000000:EAGAIN", /*Regions=*/48),
      // One-batch ablation: the workerpool configuration's sequential
      // regions run as one regionBatch() with one region in flight, so
      // one worker set outlives every region: no fork(2) and no
      // region-table mmap on the per-region path.
      runStoreConfig("shm+fold+batch1", proc::StoreBackend::Shm,
                     /*Fold=*/true, /*Pool=*/true, nullptr, nullptr,
                     /*Regions=*/96, /*Pipeline=*/1),
      runStoreConfig("shm+fold+batch1+trace", proc::StoreBackend::Shm,
                     /*Fold=*/true, /*Pool=*/true,
                     WBT_SOURCE_ROOT "/BENCH_trace_batch1.json", nullptr,
                     /*Regions=*/96, /*Pipeline=*/1),
      // Pipelined-batch ablation: the same batch with 4 regions in
      // flight, so workers sample region R+1..R+3 while the tuning side
      // folds and delivers region R. This removes the per-region drain
      // stall — the last serial cost left once the workers outlive the
      // regions.
      runStoreConfig("shm+fold+batch", proc::StoreBackend::Shm,
                     /*Fold=*/true, /*Pool=*/true, nullptr, nullptr,
                     /*Regions=*/96, /*Pipeline=*/4),
      // Distributed ablation: the batch configuration plus 4 remote
      // sampling agents connected over localhost TCP, claiming lease
      // ranges out of the same shared counter and streaming commits
      // back in batched frames. On one machine this prices the wire
      // protocol against the shm fast path (agents mostly add parallel
      // sampling processes); across machines the same rows would show
      // throughput past the single-host ceiling.
      runStoreConfig("shm+fold+batch+net4", proc::StoreBackend::Shm,
                     /*Fold=*/true, /*Pool=*/true, nullptr, nullptr,
                     /*Regions=*/96, /*Pipeline=*/4, /*NetAgents=*/4),
  };
  for (const StoreAblationRow &R : Rows)
    std::printf("%-25s | %9.2fus | %10.3fms | %11.1f\n", R.Name, R.CommitUs,
                R.AggregateMs, R.RegionsPerSec);
  std::printf("(shm should beat files on commit latency; folding should "
              "collapse the barrier-time aggregation; the worker pool "
              "should lift region throughput further; one batch should "
              "remove the last per-region forks; pipelined batches "
              "should overlap sampling with delivery; tracing and armed "
              "fault injection should cost almost nothing)\n");

  if (Json) {
    const char *Path = WBT_SOURCE_ROOT "/BENCH_optimizations.json";
    std::FILE *F = std::fopen(Path, "w");
    if (!F) {
      std::fprintf(stderr, "cannot write %s\n", Path);
      return 1;
    }
    // Host provenance: throughput numbers are only comparable across
    // runs of the same machine shape, so record where they came from.
    char Host[256] = {0};
    if (gethostname(Host, sizeof(Host) - 1) != 0)
      std::strcpy(Host, "unknown");
    long CoresOnline = sysconf(_SC_NPROCESSORS_ONLN);
    long CoresConfigured = sysconf(_SC_NPROCESSORS_CONF);
    double PeakRegionsPerSec = 0;
    for (const StoreAblationRow &R : Rows)
      PeakRegionsPerSec = std::max(PeakRegionsPerSec, R.RegionsPerSec);
    std::fprintf(F,
                 "{\n  \"build_type\": \"%s\",\n"
                 "  \"host\": {\"hostname\": \"%s\", \"cores_online\": %ld, "
                 "\"cores_configured\": %ld},\n"
                 "  \"regions_per_sec\": %.2f,\n"
                 "  \"store_ablation\": [\n",
                 WBT_BUILD_TYPE, Host, CoresOnline, CoresConfigured,
                 PeakRegionsPerSec);
    size_t NumRows = sizeof(Rows) / sizeof(Rows[0]);
    for (size_t I = 0; I != NumRows; ++I) {
      std::fprintf(F,
                   "    {\"config\": \"%s\", \"commit_us\": %.3f, "
                   "\"aggregate_ms\": %.3f, \"regions_per_sec\": %.2f, "
                   "\"total_sec\": %.4f,\n     \"metrics\": ",
                   Rows[I].Name, Rows[I].CommitUs, Rows[I].AggregateMs,
                   Rows[I].RegionsPerSec, Rows[I].TotalSec);
      obs::writeMetricsJson(F, Rows[I].Metrics);
      std::fprintf(F, "}%s\n", I + 1 == NumRows ? "" : ",");
    }
    std::fprintf(F, "  ]\n}\n");
    std::fclose(F);
    std::printf("wrote %s\n", Path);
  }
  return 0;
}
