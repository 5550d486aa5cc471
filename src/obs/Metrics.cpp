//===- obs/Metrics.cpp - Runtime counters and histograms ------------------===//
//
// Part of the WBTuner reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include <sched.h>
#include <time.h>

#include <cinttypes>
#include <type_traits>
#include <cstring>
#include <string>

namespace wbt {
namespace obs {

const char *fallbackReasonName(FallbackReason R) {
  switch (R) {
  case FallbackReason::Oversized:
    return "oversized";
  case FallbackReason::LongName:
    return "long_name";
  case FallbackReason::Exhausted:
    return "exhausted";
  }
  return "unknown";
}

int latencyBucket(uint64_t Ns) {
  uint64_t Us = Ns / 1000;
  if (Us < 2)
    return 0;
  int B = 63 - __builtin_clzll(Us);
  return B < NumHistBuckets ? B : NumHistBuckets - 1;
}

uint64_t latencyBucketLowUs(int B) { return B == 0 ? 0 : uint64_t(1) << B; }

uint64_t HistogramSnapshot::total() const {
  uint64_t N = 0;
  for (uint64_t C : Counts)
    N += C;
  return N;
}

double HistogramSnapshot::meanUs() const {
  uint64_t N = total();
  return N ? double(SumNs) / double(N) / 1000.0 : 0.0;
}

double HistogramSnapshot::quantileUs(double Q) const {
  uint64_t N = total();
  if (!N)
    return 0.0;
  uint64_t Want = uint64_t(Q * double(N));
  if (Want >= N)
    Want = N - 1;
  uint64_t Seen = 0;
  for (int B = 0; B != NumHistBuckets; ++B) {
    Seen += Counts[B];
    if (Seen > Want)
      return double(uint64_t(1) << (B + 1)); // bucket upper bound
  }
  return double(uint64_t(1) << NumHistBuckets);
}

void MetricsSnapshotPage::publish(const RuntimeMetrics &M) {
  static_assert(std::is_trivially_copyable<RuntimeMetrics>::value,
                "the metrics page is copied with memcpy");
  uint64_t S = Seq.load(std::memory_order_relaxed);
  // Odd: a copy is in flight. The release fence keeps the payload
  // stores from sinking above the odd store (StoreStore), so a reader
  // can never pair a torn payload with a stable even sequence.
  Seq.store(S + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  std::memcpy(&Snap, &M, sizeof(Snap));
  // Publication: even again, release-paired with the reader's fence.
  Seq.store(S + 2, std::memory_order_release);
}

bool MetricsSnapshotPage::read(RuntimeMetrics &Out) const {
  // Two ways a read can miss. A copy torn by a publish that landed
  // during it retries, a bounded number of times: writers publish at
  // sweep cadence, so one retry almost always lands. An odd sequence is
  // a copy in flight; the reader waits for it, yielding so a writer
  // preempted mid-copy gets the CPU back, and the wait is bounded by
  // time, not by spins: a live writer can be off the CPU for
  // milliseconds, while a writer that died mid-copy leaves the same odd
  // value in place forever.
  constexpr int64_t DeadWriterNs = 20 * 1000 * 1000;
  uint64_t OddSeq = 0;
  int64_t OddSinceNs = 0;
  for (int Torn = 0; Torn != 1024;) {
    uint64_t S1 = Seq.load(std::memory_order_acquire);
    if (S1 == 0)
      return false; // nothing published yet
    if (S1 & 1) {
      timespec T;
      clock_gettime(CLOCK_MONOTONIC, &T);
      int64_t NowNs = int64_t(T.tv_sec) * 1000000000 + T.tv_nsec;
      if (S1 != OddSeq) {
        OddSeq = S1;
        OddSinceNs = NowNs;
      } else if (NowNs - OddSinceNs > DeadWriterNs) {
        return false;
      }
      sched_yield();
      continue;
    }
    std::memcpy(&Out, &Snap, sizeof(Out));
    std::atomic_thread_fence(std::memory_order_acquire);
    if (Seq.load(std::memory_order_relaxed) == S1)
      return true;
    ++Torn;
  }
  return false;
}

void writeMetricsJson(std::FILE *F, const RuntimeMetrics &M) {
  std::fprintf(F,
               "{\"regions_resolved\": %llu, \"regions_per_sec\": %.2f, "
               "\"shm_commits\": %llu, \"file_fallbacks\": %llu",
               (unsigned long long)M.RegionsResolved, M.regionsPerSec(),
               (unsigned long long)M.ShmCommits,
               (unsigned long long)M.FileFallbacks);
  for (int R = 0; R != NumFallbackReasons; ++R)
    std::fprintf(F, ", \"fallback_%s\": %llu",
                 fallbackReasonName(FallbackReason(R)),
                 (unsigned long long)M.Fallbacks[R]);
  std::fprintf(F,
               ", \"crashed\": %llu, \"timed_out\": %llu, "
               "\"fork_failures\": %llu, \"lease_reclaims\": %llu, "
               "\"retries\": %llu, \"slab_records_hw\": %llu, "
               "\"slab_bytes_hw\": %llu, \"slab_recycles\": %llu, "
               "\"slab_epoch_hw\": %llu, \"remove_failures\": %llu, "
               "\"net_agents\": %llu, \"net_reconnects\": %llu, "
               "\"net_remote_leases\": %llu, \"net_leases_returned\": %llu, "
               "\"net_frames\": %llu, \"net_bytes_in\": %llu, "
               "\"net_bytes_out\": %llu, \"net_recv_hello\": %llu, "
               "\"net_recv_commit\": %llu, \"net_recv_trace\": %llu, "
               "\"trace_events\": %llu, "
               "\"trace_drops\": %llu, \"scores_noted\": %llu, "
               "\"score_last\": %.6g, \"score_min\": %.6g, "
               "\"score_max\": %.6g, \"fork_p50_us\": %.1f, "
               "\"fork_mean_us\": %.1f, \"commit_p50_us\": %.1f, "
               "\"commit_mean_us\": %.1f, \"region_p50_us\": %.1f, "
               "\"region_mean_us\": %.1f",
               (unsigned long long)M.CrashedSamples,
               (unsigned long long)M.TimedOutSamples,
               (unsigned long long)M.ForkFailures,
               (unsigned long long)M.LeaseReclaims,
               (unsigned long long)M.Retries,
               (unsigned long long)M.SlabRecordsHighWater,
               (unsigned long long)M.SlabBytesHighWater,
               (unsigned long long)M.SlabRecycles,
               (unsigned long long)M.SlabEpochHighWater,
               (unsigned long long)M.RemoveFailures,
               (unsigned long long)M.NetAgents,
               (unsigned long long)M.NetReconnects,
               (unsigned long long)M.NetRemoteLeases,
               (unsigned long long)M.NetLeasesReturned,
               (unsigned long long)M.NetFrames,
               (unsigned long long)M.NetBytesIn,
               (unsigned long long)M.NetBytesOut,
               (unsigned long long)M.NetRecvHello,
               (unsigned long long)M.NetRecvCommit,
               (unsigned long long)M.NetRecvTrace,
               (unsigned long long)M.TraceEvents,
               (unsigned long long)M.TraceDrops,
               (unsigned long long)M.ScoresNoted, M.ScoreLast, M.ScoreMin,
               M.ScoreMax, M.ForkLatency.quantileUs(0.5),
               M.ForkLatency.meanUs(), M.CommitLatency.quantileUs(0.5),
               M.CommitLatency.meanUs(), M.RegionLatency.quantileUs(0.5),
               M.RegionLatency.meanUs());
  // Raw bucket counts, so consumers can rebuild the full distribution
  // rather than settle for the p50/mean digests above.
  struct {
    const char *Key;
    const HistogramSnapshot *H;
  } Hists[] = {{"fork_latency_buckets", &M.ForkLatency},
               {"commit_latency_buckets", &M.CommitLatency},
               {"region_latency_buckets", &M.RegionLatency}};
  for (const auto &E : Hists) {
    std::fprintf(F, ", \"%s\": [", E.Key);
    for (int B = 0; B != NumHistBuckets; ++B)
      std::fprintf(F, "%s%llu", B ? ", " : "",
                   (unsigned long long)E.H->Counts[B]);
    std::fprintf(F, "]");
  }
  std::fprintf(F, "}");
}

namespace {

/// Pre-rendered forms of one label set: the `{job="a"}` suffix a plain
/// sample line takes, and the `job="a",` lead merged before `le` on
/// bucket lines. Both empty for the label-free (single-tenant) path.
struct LabelSet {
  std::string Plain;
  std::string Lead;
  explicit LabelSet(const std::string &L)
      : Plain(L.empty() ? std::string() : "{" + L + "}"),
        Lead(L.empty() ? std::string() : L + ",") {}
};

void expLine(std::string &Out, const LabelSet &L, const char *Name,
             const char *Type, double Value) {
  char Buf[384];
  std::snprintf(Buf, sizeof(Buf), "# TYPE wbt_%s %s\nwbt_%s%s %.6g\n", Name,
                Type, Name, L.Plain.c_str(), Value);
  Out += Buf;
}

void expCounter(std::string &Out, const LabelSet &L, const char *Name,
                uint64_t Value) {
  char Buf[384];
  std::snprintf(Buf, sizeof(Buf),
                "# TYPE wbt_%s counter\nwbt_%s%s %" PRIu64 "\n", Name, Name,
                L.Plain.c_str(), Value);
  Out += Buf;
}

void expHistogram(std::string &Out, const LabelSet &L, const char *Name,
                  const HistogramSnapshot &H) {
  char Buf[384];
  std::snprintf(Buf, sizeof(Buf), "# TYPE wbt_%s_us histogram\n", Name);
  Out += Buf;
  uint64_t Cum = 0;
  for (int B = 0; B != NumHistBuckets; ++B) {
    Cum += H.Counts[B];
    std::snprintf(Buf, sizeof(Buf),
                  "wbt_%s_us_bucket{%sle=\"%" PRIu64 "\"} %" PRIu64 "\n",
                  Name, L.Lead.c_str(), uint64_t(1) << (B + 1), Cum);
    Out += Buf;
  }
  std::snprintf(Buf, sizeof(Buf),
                "wbt_%s_us_bucket{%sle=\"+Inf\"} %" PRIu64 "\n"
                "wbt_%s_us_sum%s %.1f\n"
                "wbt_%s_us_count%s %" PRIu64 "\n",
                Name, L.Lead.c_str(), Cum, Name, L.Plain.c_str(),
                double(H.SumNs) / 1000.0, Name, L.Plain.c_str(), H.total());
  Out += Buf;
  // Pre-digested gauges so flat-text consumers (wbt-top) need no
  // bucket math.
  std::snprintf(Buf, sizeof(Buf),
                "# TYPE wbt_%s_p50_us gauge\nwbt_%s_p50_us%s %.1f\n"
                "# TYPE wbt_%s_mean_us gauge\nwbt_%s_mean_us%s %.1f\n",
                Name, Name, L.Plain.c_str(), H.quantileUs(0.5), Name, Name,
                L.Plain.c_str(), H.meanUs());
  Out += Buf;
}

} // namespace

void writeExpositionText(std::string &Out, const RuntimeMetrics &M,
                         const std::string &Labels) {
  LabelSet L(Labels);
  expCounter(Out, L, "regions_resolved", M.RegionsResolved);
  expLine(Out, L, "elapsed_sec", "gauge", M.ElapsedSec);
  expLine(Out, L, "regions_per_sec", "gauge", M.regionsPerSec());
  expCounter(Out, L, "shm_commits", M.ShmCommits);
  expCounter(Out, L, "file_fallbacks", M.FileFallbacks);
  for (int R = 0; R != NumFallbackReasons; ++R) {
    std::string Key =
        std::string("fallback_") + fallbackReasonName(FallbackReason(R));
    expCounter(Out, L, Key.c_str(), M.Fallbacks[R]);
  }
  expCounter(Out, L, "crashed", M.CrashedSamples);
  expCounter(Out, L, "timed_out", M.TimedOutSamples);
  expCounter(Out, L, "fork_failures", M.ForkFailures);
  expCounter(Out, L, "lease_reclaims", M.LeaseReclaims);
  expCounter(Out, L, "retries", M.Retries);
  expCounter(Out, L, "slab_records_hw", M.SlabRecordsHighWater);
  expCounter(Out, L, "slab_bytes_hw", M.SlabBytesHighWater);
  expCounter(Out, L, "slab_recycles", M.SlabRecycles);
  expCounter(Out, L, "slab_epoch_hw", M.SlabEpochHighWater);
  expCounter(Out, L, "remove_failures", M.RemoveFailures);
  expCounter(Out, L, "net_agents", M.NetAgents);
  expCounter(Out, L, "net_reconnects", M.NetReconnects);
  expCounter(Out, L, "net_remote_leases", M.NetRemoteLeases);
  expCounter(Out, L, "net_leases_returned", M.NetLeasesReturned);
  expCounter(Out, L, "net_frames", M.NetFrames);
  expCounter(Out, L, "net_bytes_in", M.NetBytesIn);
  expCounter(Out, L, "net_bytes_out", M.NetBytesOut);
  expCounter(Out, L, "net_recv_hello", M.NetRecvHello);
  expCounter(Out, L, "net_recv_commit", M.NetRecvCommit);
  expCounter(Out, L, "net_recv_trace", M.NetRecvTrace);
  expCounter(Out, L, "trace_events", M.TraceEvents);
  expCounter(Out, L, "trace_drops", M.TraceDrops);
  expCounter(Out, L, "scores_noted", M.ScoresNoted);
  expLine(Out, L, "score_last", "gauge", M.ScoreLast);
  expLine(Out, L, "score_min", "gauge", M.ScoreMin);
  expLine(Out, L, "score_max", "gauge", M.ScoreMax);
  expHistogram(Out, L, "fork_latency", M.ForkLatency);
  expHistogram(Out, L, "commit_latency", M.CommitLatency);
  expHistogram(Out, L, "region_latency", M.RegionLatency);
}

} // namespace obs
} // namespace wbt
