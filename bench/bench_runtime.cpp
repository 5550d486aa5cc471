//===- bench/bench_runtime.cpp - Runtime micro-benchmarks ------------------===//
//
// Part of the WBTuner reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
//
// google-benchmark timings of the tuner machinery itself: scheduler task
// throughput (Alg. 1 vs FIFO), aggregation strategies, sampling
// strategies, a full in-process pipeline per sample, and the fork
// runtime's aggregation-store backends (Files vs Shm: per-commit latency,
// tuning-side aggregation, and end-to-end region cost). These quantify
// the framework overhead that the paper's "reasonable overhead" claim
// rests on.
//
// `--json` additionally writes the results to BENCH_runtime.json at the
// repo root (the perf-trajectory artifact CI's bench-smoke step checks).
//
//===----------------------------------------------------------------------===//

#include "aggregate/Aggregators.h"
#include "core/Pipeline.h"
#include "obs/Metrics.h"
#include "proc/Runtime.h"
#include "proc/SharedControl.h"
#include "strategy/SamplingStrategy.h"

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>

using namespace wbt;

namespace {

void BM_SchedulerThroughput(benchmark::State &State) {
  bool UseAlg1 = State.range(0) != 0;
  for (auto _ : State) {
    Scheduler::Options Opts;
    Opts.Workers = 4;
    Opts.UseAlg1 = UseAlg1;
    Scheduler S(Opts);
    std::atomic<long> Count{0};
    for (int I = 0; I != 1000; ++I)
      S.submitSampling(1000 - I, [&Count] { Count.fetch_add(1); });
    S.waitIdle();
    benchmark::DoNotOptimize(Count.load());
  }
  State.SetItemsProcessed(State.iterations() * 1000);
}
BENCHMARK(BM_SchedulerThroughput)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

void BM_MajorityVote(benchmark::State &State) {
  size_t Size = static_cast<size_t>(State.range(0));
  std::vector<uint8_t> Mask(Size, 1);
  for (auto _ : State) {
    VoteAccumulator Acc;
    for (int I = 0; I != 50; ++I)
      Acc.add(Mask);
    benchmark::DoNotOptimize(Acc.result(0.5));
  }
  State.SetBytesProcessed(State.iterations() * 50 * Size);
}
BENCHMARK(BM_MajorityVote)->Arg(1024)->Arg(16384)->Arg(262144);

void BM_StrategyDraw(benchmark::State &State) {
  std::unique_ptr<SamplingStrategy> S =
      State.range(0) == 0   ? makeRandomStrategy()
      : State.range(0) == 1 ? makeMcmcStrategy()
                            : makeLatinHypercubeStrategy(1024, 7);
  Distribution D = Distribution::uniform(0.0, 1.0);
  Rng R(11);
  int Run = 0;
  for (auto _ : State) {
    double X = S->draw(Run, "x", D, R);
    S->feedback(Run, X);
    ++Run;
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_StrategyDraw)->Arg(0)->Arg(1)->Arg(2);

void BM_PipelinePerSample(benchmark::State &State) {
  // Cost of one engine-managed sampling run with a trivial body: the
  // framework overhead per sample.
  long Samples = State.range(0);
  for (auto _ : State) {
    Pipeline P;
    StageOptions O;
    O.NumSamples = static_cast<int>(Samples);
    P.addStage<double, double, double>(
        "s", O,
        std::function<std::optional<double>(const double &, SampleContext &)>(
            [](const double &, SampleContext &Ctx) -> std::optional<double> {
              double X = Ctx.sample("x", Distribution::uniform(0.0, 1.0));
              Ctx.setScore(X);
              return X;
            }),
        std::function<std::unique_ptr<Aggregator<double, double>>()>([] {
          return std::make_unique<BestScoreAggregator<double>>(false);
        }));
    RunOptions RO;
    RO.Workers = 4;
    RO.Seed = 5;
    benchmark::DoNotOptimize(P.run(std::any(0.0), RO));
  }
  State.SetItemsProcessed(State.iterations() * Samples);
}
BENCHMARK(BM_PipelinePerSample)->Arg(64)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_DedupVectors(benchmark::State &State) {
  Rng R(3);
  std::vector<std::vector<double>> Items;
  for (int I = 0; I != 64; ++I) {
    std::vector<double> V(32);
    for (double &X : V)
      X = R.uniform(0, 1);
    Items.push_back(V);
  }
  for (auto _ : State)
    benchmark::DoNotOptimize(dedupVectors(Items, 0.05));
}
BENCHMARK(BM_DedupVectors);

//===----------------------------------------------------------------------===//
// Fork-runtime aggregation store: Files vs Shm.
//===----------------------------------------------------------------------===//

constexpr int CommitBatch = 256;

/// Per-commit latency of the file backend: write(2) + rename(2) per
/// commit, the paper's Sec. III-B1 mechanism. Arg = payload bytes.
void BM_CommitFiles(benchmark::State &State) {
  size_t Payload = static_cast<size_t>(State.range(0));
  std::vector<uint8_t> Bytes(Payload, 0x5a);
  char Template[] = "/tmp/wbtuner-bench.XXXXXX";
  std::string Dir = mkdtemp(Template);
  for (auto _ : State)
    for (int I = 0; I != CommitBatch; ++I)
      writeFileBytes(Dir + "/x." + std::to_string(I), Bytes);
  State.SetItemsProcessed(State.iterations() * CommitBatch);
  for (int I = 0; I != CommitBatch; ++I)
    std::remove((Dir + "/x." + std::to_string(I)).c_str());
  rmdir(Dir.c_str());
}
BENCHMARK(BM_CommitFiles)->Arg(64)->Arg(4096);

/// Per-commit latency of the shared-memory slab: payload memcpy + one
/// release-store, no syscalls. Arg = payload bytes.
void BM_CommitShm(benchmark::State &State) {
  size_t Payload = static_cast<size_t>(State.range(0));
  std::vector<uint8_t> Bytes(Payload, 0x5a);
  proc::SlabConfig Slab;
  Slab.Records = CommitBatch;
  Slab.ArenaBytes = (Payload + 64) * CommitBatch;
  for (auto _ : State) {
    State.PauseTiming(); // fresh slab per batch (bump allocators)
    proc::SharedControl Ctl;
    Ctl.init(/*MaxPool=*/2, /*UseScheduler=*/true, Slab);
    // The fresh mapping is untouched: fault it in with one untimed pass
    // and recycle, so the timed pass measures commits, not page faults.
    for (int I = 0; I != CommitBatch; ++I)
      Ctl.slabCommit(0, 1, "x", I, Bytes.data(), Bytes.size());
    Ctl.slabRecycle();
    State.ResumeTiming();
    for (int I = 0; I != CommitBatch; ++I)
      benchmark::DoNotOptimize(
          Ctl.slabCommit(0, 1, "x", I, Bytes.data(), Bytes.size()));
  }
  State.SetItemsProcessed(State.iterations() * CommitBatch);
}
BENCHMARK(BM_CommitShm)->Arg(64)->Arg(4096);

/// Tuning-side one-shot aggregation cost over N pre-committed 8-byte
/// results: the open/read/close-per-sample storm vs one slab scan.
void BM_AggregateFiles(benchmark::State &State) {
  int N = static_cast<int>(State.range(0));
  char Template[] = "/tmp/wbtuner-bench.XXXXXX";
  std::string Dir = mkdtemp(Template);
  for (int I = 0; I != N; ++I)
    writeFileBytes(Dir + "/x." + std::to_string(I),
                   proc::encodeDouble(static_cast<double>(I)));
  std::vector<uint8_t> Bytes;
  for (auto _ : State) {
    ScalarAccumulator Acc;
    for (int I = 0; I != N; ++I)
      if (readFileBytes(Dir + "/x." + std::to_string(I), Bytes))
        Acc.add(proc::decodeDouble(Bytes));
    benchmark::DoNotOptimize(Acc.mean());
  }
  State.SetItemsProcessed(State.iterations() * N);
  for (int I = 0; I != N; ++I)
    std::remove((Dir + "/x." + std::to_string(I)).c_str());
  rmdir(Dir.c_str());
}
BENCHMARK(BM_AggregateFiles)->Arg(32)->Arg(256);

void BM_AggregateShm(benchmark::State &State) {
  int N = static_cast<int>(State.range(0));
  proc::SlabConfig Slab;
  Slab.Records = static_cast<size_t>(N);
  Slab.ArenaBytes = static_cast<size_t>(N) * 64;
  proc::SharedControl Ctl;
  Ctl.init(/*MaxPool=*/2, /*UseScheduler=*/true, Slab);
  for (int I = 0; I != N; ++I) {
    std::vector<uint8_t> B = proc::encodeDouble(static_cast<double>(I));
    Ctl.slabCommit(0, 1, "x", I, B.data(), B.size());
  }
  for (auto _ : State) {
    ScalarAccumulator Acc;
    proc::SlabEntryView E;
    for (size_t I = 0, End = Ctl.slabAllocated(); I != End; ++I)
      if (Ctl.slabEntry(I, E)) {
        ByteReader R(E.Data, E.Size);
        Acc.add(R.read<double>());
      }
    benchmark::DoNotOptimize(Acc.mean());
  }
  State.SetItemsProcessed(State.iterations() * N);
}
BENCHMARK(BM_AggregateShm)->Arg(32)->Arg(256);

/// End-to-end fork-runtime region (N samples, each commits one double;
/// tuning side folds + aggregates). Arg0: 0 = Files (fork-per-sample),
/// 1 = Shm (fork-per-sample), 2 = Shm through the worker pool (one fork
/// per worker, leases amortize the rest), 3 = the pool configuration
/// with event tracing live (arm 2 doubles as its tracing-disabled
/// baseline — tracing is always compiled in). Fixed iteration count
/// keeps the bump-allocated slab within capacity.
void BM_RegionAggregate(benchmark::State &State) {
  proc::StoreBackend B = State.range(0) ? proc::StoreBackend::Shm
                                        : proc::StoreBackend::Files;
  bool Pool = State.range(0) >= 2;
  bool Trace = State.range(0) == 3;
  std::string TracePath =
      "/tmp/wbt-bench-trace." + std::to_string(getpid()) + ".json";
  const int N = 32;
  proc::Runtime &Rt = proc::Runtime::get();
  proc::RuntimeOptions Opts;
  Opts.MaxPool = 8;
  Opts.Seed = 42;
  Opts.Backend = B;
  Opts.ShmSlabRecords = 1u << 12;
  if (Trace)
    Opts.TracePath = TracePath;
  Rt.init(Opts);
  for (auto _ : State) {
    ScalarAccumulator *Acc = nullptr;
    auto Body = [&] {
      double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
      if (Rt.isSampling())
        Rt.aggregate("x2", proc::encodeDouble(X * X), nullptr);
      Acc = &Rt.foldScalar("x2");
      Rt.aggregate("x2", proc::encodeDouble(0),
                   [&](proc::AggregationView &) {});
    };
    if (Pool) {
      Rt.samplingRegion(N, Body);
    } else {
      Rt.sampling(N);
      Body();
    }
    benchmark::DoNotOptimize(Acc->mean());
  }
  State.SetItemsProcessed(State.iterations() * N);
  // Surface the runtime's own accounting next to the timing so the
  // --json artifact carries store and tracing behavior per arm.
  obs::RuntimeMetrics M = Rt.metrics();
  State.counters["shm_commits"] = static_cast<double>(M.ShmCommits);
  State.counters["file_fallbacks"] = static_cast<double>(M.FileFallbacks);
  State.counters["trace_events"] = static_cast<double>(M.TraceEvents);
  State.counters["trace_drops"] = static_cast<double>(M.TraceDrops);
  State.counters["fork_p50_us"] = M.ForkLatency.quantileUs(0.5);
  State.counters["commit_p50_us"] = M.CommitLatency.quantileUs(0.5);
  State.counters["region_p50_us"] = M.RegionLatency.quantileUs(0.5);
  State.counters["net_bytes_in"] = static_cast<double>(M.NetBytesIn);
  State.counters["net_bytes_out"] = static_cast<double>(M.NetBytesOut);
  State.counters["net_recv_hello"] = static_cast<double>(M.NetRecvHello);
  State.counters["net_recv_commit"] = static_cast<double>(M.NetRecvCommit);
  State.counters["net_recv_trace"] = static_cast<double>(M.NetRecvTrace);
  State.counters["slab_recycles"] = static_cast<double>(M.SlabRecycles);
  State.counters["slab_epoch_hw"] = static_cast<double>(M.SlabEpochHighWater);
  Rt.finish();
  if (Trace)
    std::remove(TracePath.c_str());
}
BENCHMARK(BM_RegionAggregate)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Iterations(40)
    ->Unit(benchmark::kMillisecond);

} // namespace

#ifndef WBT_SOURCE_ROOT
#define WBT_SOURCE_ROOT "."
#endif
#ifndef WBT_BUILD_TYPE
#define WBT_BUILD_TYPE "unknown"
#endif

/// BENCHMARK_MAIN plus a `--json` convenience flag that routes the
/// results to <repo>/BENCH_runtime.json (benchmark's own JSON format).
int main(int argc, char **argv) {
  if (std::strcmp(WBT_BUILD_TYPE, "Release") != 0)
    std::fprintf(stderr,
                 "WARNING: bench_runtime built as '%s', not Release; "
                 "numbers are not comparable to the committed artifacts\n",
                 WBT_BUILD_TYPE);
  // Stamp the build type into the JSON context so a debug-built artifact
  // is detectable after the fact (CI greps for Release), plus host
  // provenance: numbers are only comparable on the same machine shape.
  benchmark::AddCustomContext("wbt_build_type", WBT_BUILD_TYPE);
  char Host[256] = {0};
  if (gethostname(Host, sizeof(Host) - 1) != 0)
    std::strcpy(Host, "unknown");
  benchmark::AddCustomContext("wbt_hostname", Host);
  benchmark::AddCustomContext(
      "wbt_cores_online", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  benchmark::AddCustomContext(
      "wbt_cores_configured", std::to_string(sysconf(_SC_NPROCESSORS_CONF)));
  std::vector<char *> Args(argv, argv + argc);
  bool Json = false;
  for (auto It = Args.begin(); It != Args.end();) {
    if (std::strcmp(*It, "--json") == 0) {
      Json = true;
      It = Args.erase(It);
    } else {
      ++It;
    }
  }
  std::string OutArg =
      std::string("--benchmark_out=") + WBT_SOURCE_ROOT + "/BENCH_runtime.json";
  std::string FmtArg = "--benchmark_out_format=json";
  if (Json) {
    Args.push_back(OutArg.data());
    Args.push_back(FmtArg.data());
  }
  int Argc = static_cast<int>(Args.size());
  benchmark::Initialize(&Argc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(Argc, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
