//===- obs/Metrics.h - Runtime counters and histograms ----------*- C++ -*-===//
//
// Part of the WBTuner reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
//
// Always-on runtime metrics: shared-memory counter/histogram cells that
// SharedControl embeds in its mapping, and the plain-value snapshot
// (`RuntimeMetrics`) that Runtime::metrics() returns and the bench
// `--json` emitters embed next to the build-type provenance. Unlike the
// event ring, metrics are collected whether or not tracing is enabled —
// a fetch_add per commit is cheap enough to leave on.
//
//===----------------------------------------------------------------------===//

#ifndef WBT_OBS_METRICS_H
#define WBT_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <cstdio>

namespace wbt {
namespace obs {

/// Why a shm commit was routed to the file store instead of the slab.
enum class FallbackReason : uint8_t {
  Oversized = 0, ///< payload above ShmRecordThreshold or > 4 GiB
  LongName = 1,  ///< variable name longer than the slab's inline field
  Exhausted = 2, ///< slab records or payload arena ran out
};
constexpr int NumFallbackReasons = 3;

const char *fallbackReasonName(FallbackReason R);

/// Fixed log2 latency buckets: bucket B counts samples in
/// [2^B, 2^{B+1}) microseconds (bucket 0 also absorbs sub-microsecond
/// samples, the last bucket is open-ended).
constexpr int NumHistBuckets = 16;

/// Which bucket a latency falls in.
int latencyBucket(uint64_t Ns);

/// Inclusive lower bound of bucket B, in microseconds.
uint64_t latencyBucketLowUs(int B);

/// Shared-memory histogram cell. POD-layout, zero-initialized by the
/// mapping's memset; concurrent writers only fetch_add.
struct LatencyHistogram {
  std::atomic<uint64_t> Counts[NumHistBuckets];
  std::atomic<uint64_t> SumNs;

  void record(uint64_t Ns) {
    Counts[latencyBucket(Ns)].fetch_add(1, std::memory_order_relaxed);
    SumNs.fetch_add(Ns, std::memory_order_relaxed);
  }
};

/// Plain-value copy of a LatencyHistogram.
struct HistogramSnapshot {
  uint64_t Counts[NumHistBuckets] = {};
  uint64_t SumNs = 0;

  uint64_t total() const;
  double meanUs() const;
  /// Upper-bound estimate of the Q-quantile (Q in [0,1]), microseconds.
  double quantileUs(double Q) const;
};

/// One coherent snapshot of the run's counters, queryable from
/// Runtime::metrics() at any point while the runtime is initialized.
struct RuntimeMetrics {
  uint64_t RegionsResolved = 0;
  double ElapsedSec = 0; ///< since Runtime::init
  uint64_t ShmCommits = 0;
  uint64_t FileFallbacks = 0; ///< sum over Fallbacks[]
  uint64_t Fallbacks[NumFallbackReasons] = {};
  uint64_t CrashedSamples = 0;
  uint64_t TimedOutSamples = 0;
  uint64_t ForkFailures = 0;
  uint64_t LeaseReclaims = 0; ///< dead-worker lease re-runs
  uint64_t Retries = 0;       ///< spare activations + pool respawns
  uint64_t SlabRecordsHighWater = 0; ///< cumulative across recycling epochs
  uint64_t SlabBytesHighWater = 0;   ///< cumulative across recycling epochs
  uint64_t SlabRecycles = 0;         ///< epoch resets of the commit slab
  uint64_t SlabEpochHighWater = 0;   ///< largest single-epoch record count
  uint64_t RemoveFailures = 0; ///< run-dir entries removeTree failed on
  uint64_t NetAgents = 0;         ///< remote sampling agents spawned
  uint64_t NetReconnects = 0;     ///< agent connections re-accepted
  uint64_t NetRemoteLeases = 0;   ///< leases granted over the wire
  uint64_t NetLeasesReturned = 0; ///< remote leases returned on disconnect
  uint64_t NetFrames = 0;         ///< protocol frames the server received
  uint64_t NetBytesIn = 0;        ///< bytes the lease server received
  uint64_t NetBytesOut = 0;       ///< bytes the lease server sent
  uint64_t NetRecvHello = 0;      ///< Hello frames received
  uint64_t NetRecvCommit = 0;     ///< Commit frames received
  uint64_t NetRecvTrace = 0;      ///< TraceFrame frames received
  uint64_t TraceEvents = 0;
  uint64_t TraceDrops = 0;
  uint64_t ScoresNoted = 0; ///< Runtime::noteScore() calls, run-wide
  double ScoreLast = 0;     ///< most recently noted aggregate score
  double ScoreMin = 0;      ///< smallest score noted (0 until any)
  double ScoreMax = 0;      ///< largest score noted (0 until any)
  HistogramSnapshot ForkLatency;
  HistogramSnapshot CommitLatency;
  HistogramSnapshot RegionLatency; ///< region open -> resolve wall clock

  double regionsPerSec() const {
    return ElapsedSec > 0 ? double(RegionsResolved) / ElapsedSec : 0.0;
  }
};

/// One seqlock-published RuntimeMetrics snapshot page: a sequence word
/// guarding a plain-data payload, laid out for a MAP_SHARED mapping so
/// any process holding the page reads tear-free snapshots without locks.
/// Single writer per page by construction (the publishing process); the
/// writer bumps the sequence to odd, copies the payload, then publishes
/// with an even release-store, and a reader retries until it sees the
/// same even sequence on both sides of its copy. SharedControl embeds
/// one for the run-wide snapshot, and wbtuned carves one per job slot
/// out of its own mapping so every job-runner publishes into its own
/// page (the per-job metrics behind the `job` label on the scrape
/// endpoint). Zero-initialized memory is a valid empty page.
struct MetricsSnapshotPage {
  std::atomic<uint64_t> Seq;
  RuntimeMetrics Snap;

  /// Writer side (the page's single writer only).
  void publish(const RuntimeMetrics &M);
  /// Reader side. False when nothing has been published yet, when
  /// publishes kept tearing the copy for a bounded number of retries, or
  /// when one copy stayed in flight past a time bound (a writer that
  /// died mid-copy leaves the sequence odd forever).
  bool read(RuntimeMetrics &Out) const;
  /// Publication count (even sequence / 2); 0 before the first publish.
  uint64_t published() const {
    return Seq.load(std::memory_order_relaxed) / 2;
  }
};

/// Writes the snapshot as one JSON object (no trailing newline) — the
/// shared shape both bench --json emitters embed under "metrics".
void writeMetricsJson(std::FILE *F, const RuntimeMetrics &M);

/// Appends the snapshot in Prometheus text exposition format (TYPE lines,
/// cumulative `_bucket{le=...}` histograms) — what the scrape endpoint
/// serves and wbt-top parses. Every writeMetricsJson key appears as a
/// `wbt_`-prefixed metric. A non-empty \p Labels (e.g. `job="canny"`,
/// already escaped) is attached to every sample line — `wbt_x{job="a"}`,
/// merged before `le` on bucket lines — which is how wbtuned serves one
/// exposition per tenant job from a single endpoint.
void writeExpositionText(std::string &Out, const RuntimeMetrics &M,
                         const std::string &Labels = std::string());

} // namespace obs
} // namespace wbt

#endif // WBT_OBS_METRICS_H
