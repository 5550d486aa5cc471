//===- proc/SharedControl.h - Cross-process shared state --------*- C++ -*-===//
//
// Part of the WBTuner reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The anonymous shared-memory control block behind the fork-based
/// runtime. Created once by the root tuning process and inherited by
/// every forked sampling/tuning process. Holds:
///
///  * the process pool of paper Alg. 1 (slot counter + the 75% tuning
///    admission gate) — the cross-process counterpart of core/Scheduler;
///  * the live-tuning-process counter that lets the root wait for @split
///    descendants;
///  * crash/timeout/fork-failure counters (diagnostics for the child
///    supervisor);
///  * the **commit slab**: a lock-free shared-memory aggregation store
///    that replaces the per-commit write(2)+rename(2) pair of the file
///    backend. A fixed directory of commit records plus a payload arena,
///    both bump-allocated with atomic counters; a committing child fills
///    its record and payload first and only then publishes with a
///    release-store of the record's Ready word. A child SIGKILLed
///    mid-commit leaves the slot allocated but unpublished, so readers
///    can never observe a torn record — the shared-memory equivalent of
///    the temp-file+rename defense. Capacity or record-size overflow is
///    reported to the caller, which falls back to the file path.
///
/// Everything is built from process-shared pthread primitives inside one
/// mmap(MAP_SHARED | MAP_ANONYMOUS) region; no names leak into the
/// filesystem. Condition variables use CLOCK_MONOTONIC so the timed waits
/// that drive the supervisor are immune to wall-clock steps.
///
/// State that lives and dies with one region — its @sync barrier, its
/// lease claim counter — is not here: it sits in the region's own shared
/// table (proc/Runtime.cpp), so a tuning process that dies with a region
/// open leaks nothing that outlives the mapping. Child-exit wakeups take
/// no shared lock: each tuning process owns an eventfd (eventFd()) that
/// the processes it forks inherit and write when they exit.
///
//===----------------------------------------------------------------------===//

#ifndef WBT_PROC_SHAREDCONTROL_H
#define WBT_PROC_SHAREDCONTROL_H

#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <pthread.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace wbt {
namespace proc {

/// Raw POD layout of the shared region (lives in shared memory; no
/// pointers, no non-trivial members).
struct SharedLayout;

/// Longest variable name a slab record can hold inline; longer names
/// fall back to the file store.
constexpr size_t SlabVarNameMax = 40;

/// Sizing of the shared commit slab (0 records disables it entirely, as
/// the Files backend does).
struct SlabConfig {
  /// Directory entries (one per commit record).
  size_t Records = 4096;
  /// Payload arena bytes shared by all records.
  size_t ArenaBytes = 1u << 20;
};

/// Sizing of the shared trace-event ring (0 records = tracing disabled;
/// the ring is then not even mapped).
struct TraceConfig {
  size_t Records = 0;
};

/// One published commit record viewed in place. Name/Data point into the
/// shared mapping and stay valid for the SharedControl's lifetime.
struct SlabEntryView {
  uint64_t Tp = 0;
  uint64_t Region = 0;
  int32_t Child = -1;
  std::string_view Name;
  const uint8_t *Data = nullptr;
  uint32_t Size = 0;
};

/// A pthread mutex + condvar pair configured for cross-process use.
/// Lives inside shared mappings only (POD; init() before first use).
struct SharedLock {
  pthread_mutex_t Mutex;
  pthread_cond_t Cond;

  void init();
};

/// A cross-process barrier for @sync (POD; lives in a region's shared
/// table). The tuning process sets the expected count with init() and
/// releases each generation; sampling children arrive and block.
struct SharedBarrier {
  SharedLock Lock;
  int Expected;
  int Arrived;
  uint64_t Generation;

  /// Tuning side: initialises the lock and expects \p Expected children.
  void init(int Expected);
  /// Child side: announce arrival and block until the tuning process
  /// releases the generation. \p InBarrier, when non-null, is raised while
  /// the caller is blocked (it lives in a shared child table and lets the
  /// supervisor repair the counts if the caller dies at the barrier).
  void arriveAndWait(std::atomic<int32_t> *InBarrier = nullptr);
  /// Child side: a child that will never arrive (pruned, committed, or
  /// never forked) leaves the expected set.
  void leave();
  /// Tuning side: grow/shrink the expected count (retry respawns).
  void add(int Delta);
  /// Tuning side: waits at most \p TimeoutMs for every still-live child
  /// to arrive; returns true once the barrier is satisfied.
  bool waitAllTimed(int TimeoutMs);
  /// Tuning side: open the next generation, releasing every waiter.
  void release();
  /// Supervisor side: remove a dead child — undo its arrival if
  /// \p InBarrier says it died blocked here, and shrink the expected
  /// count.
  void reclaimDead(std::atomic<int32_t> *InBarrier);
};

/// Owner handle over the mmap'd control block.
class SharedControl {
public:
  SharedControl() = default;
  ~SharedControl();

  SharedControl(const SharedControl &) = delete;
  SharedControl &operator=(const SharedControl &) = delete;

  /// Maps and initializes the region. \p MaxPool is MAX_POOL_SIZE;
  /// \p UseScheduler false disables pool gating (Fig. 10 ablation);
  /// \p Slab sizes the shared commit slab; \p Trace sizes the shared
  /// trace-event ring (disabled by default).
  void init(unsigned MaxPool, bool UseScheduler,
            const SlabConfig &Slab = SlabConfig(),
            const TraceConfig &Trace = TraceConfig());

  //===--------------------------------------------------------------------===
  // Process pool (paper Alg. 1 across real processes).
  //===--------------------------------------------------------------------===

  /// Takes a pool slot, waiting at most \p TimeoutMs; returns whether a
  /// slot was taken. \p IsTuning applies the 75% gate. Every caller waits
  /// in bounded slices, so a supervised loop (the spawn loops, split())
  /// can reap dead children — reclaiming their leaked slots — between
  /// attempts. \p TimeoutMs == 0 makes one attempt that never waits on
  /// the pool's condvar.
  bool acquireSlotTimed(bool IsTuning, int TimeoutMs);
  /// Returns a slot to the pool.
  void releaseSlot();
  /// Free slots right now (diagnostics only).
  int freeSlots() const;
  unsigned maxPool() const;

  //===--------------------------------------------------------------------===
  // Live tuning-process accounting (for @split + shutdown).
  //===--------------------------------------------------------------------===

  /// Called by a parent immediately before forking a tuning child.
  void tuningProcessForked();
  /// Called by a tuning process when it finishes (or by its parent on its
  /// behalf when it died without reaching finish()).
  void tuningProcessExited();
  /// Waits at most \p TimeoutMs; returns true once only \p Remaining
  /// tuning processes are alive.
  bool waitLiveTuningProcessesTimed(int Remaining, int TimeoutMs);
  int liveTuningProcesses() const;
  /// Draws a fresh unique tuning-process id.
  uint64_t nextTpId();

  //===--------------------------------------------------------------------===
  // Child events + supervisor counters.
  //===--------------------------------------------------------------------===

  /// The calling tuning process' child-event eventfd: every sampling
  /// process it forks inherits the descriptor and writes it on exit
  /// (childEventNotify()), and its supervisor waits on it — alone
  /// (childEventWait()), or in the net lease server's poll(2) beside the
  /// agent sockets. The counter stays readable until eventFdDrain(), so
  /// an event posted during a sweep makes the next wait return at once
  /// instead of being lost until the timeout. Non-blocking; -1 if the
  /// kernel refused one, and waits then run to their timeout. init()
  /// opens the root's.
  int eventFd() const { return EventFd; }
  /// A @split child's own eventfd, replacing the inherited one: its
  /// parent's and siblings' children keep waking only their own
  /// supervisors.
  void reopenEventFd();
  /// Sampling side: wakes the supervising tuning process.
  void childEventNotify();
  /// Tuning side: waits at most \p TimeoutMs for a child event and
  /// consumes it. Abnormal deaths emit no event, so callers must re-poll
  /// on timeout.
  void childEventWait(int TimeoutMs);
  /// Consumes the eventfd counter after a poll has observed it.
  void eventFdDrain();

  void noteCrash();
  void noteTimeout();
  void noteForkFailure();
  uint64_t crashedTotal() const;
  uint64_t timedOutTotal() const;
  uint64_t forkFailedTotal() const;
  /// Bumped by the supervisor each time a dead worker's unfinished lease
  /// is returned for another worker to re-claim.
  void noteLeaseReclaim();
  uint64_t leaseReclaimsTotal() const;

  //===--------------------------------------------------------------------===
  // Commit slab (shared-memory aggregation store).
  //===--------------------------------------------------------------------===

  /// Publishes one commit record for (\p Tp, \p Region, \p Var, \p Child).
  /// Payload first, then a release-store of the Ready word — a writer
  /// killed at any point leaves the record unpublished. The `slab.publish`
  /// kill point sits between the two (inject plan
  /// `tp.slab.publish@n1:kill`), so torn-commit drills die exactly
  /// there. \returns false (bumping the fallback counter) when the
  /// directory or arena is full or \p Var exceeds SlabVarNameMax; the
  /// caller then uses the file path.
  bool slabCommit(uint64_t Tp, uint64_t Region, const std::string &Var,
                  int Child, const uint8_t *Data, size_t Size);
  /// Directory entries handed out so far (clamped to capacity). Readers
  /// scan [0, slabAllocated()); unpublished entries read as absent.
  size_t slabAllocated() const;
  /// Reads entry \p Idx if it has been published.
  bool slabEntry(size_t Idx, SlabEntryView &Out) const;
  /// Counts the Runtime's store diagnostics are built from.
  uint64_t slabPublishedTotal() const;
  uint64_t slabFallbackTotal() const;
  /// Per-reason slice of slabFallbackTotal().
  uint64_t slabFallbacks(obs::FallbackReason R) const;
  /// Counts a shm->file fallback under \p R. slabCommit calls this for
  /// the overflows it detects itself; the commit path calls it for the
  /// decisions it makes before reaching slabCommit (oversized payload
  /// under the Shm backend).
  void noteSlabFallback(obs::FallbackReason R);
  /// Slab occupancy high-water marks, cumulative across recycling
  /// epochs: records/bytes retired by slabRecycle() plus the current
  /// epoch's bump counters (clamped to capacity). For runs that never
  /// recycle these are the plain clamped counters, as before.
  uint64_t slabRecordsHighWater() const;
  uint64_t slabBytesHighWater() const;

  //===--------------------------------------------------------------------===
  // Epoch-based slab recycling.
  //===--------------------------------------------------------------------===

  /// Monotone recycling epoch; bumped by every slabRecycle(). Readers
  /// holding raw slab pointers (ShmRegionReader) snapshot this and treat
  /// an epoch mismatch as "my records are gone".
  uint64_t slabEpoch() const;
  /// True once the current epoch has consumed at least half the record
  /// directory or half the payload arena — the trigger the runtime uses
  /// so short runs never pay for a recycle sweep.
  bool slabNeedsRecycle() const;
  /// Resets the bump allocators to an empty slab and bumps the epoch.
  /// ONLY safe when no process can be mid-commit or mid-scan: the
  /// runtime calls it between regions, from the root tuning process,
  /// when it is the only live tuning process and no region is open.
  /// Ready flags of consumed records are cleared first so a stale
  /// record can never alias a fresh allocation.
  void slabRecycle();
  uint64_t slabRecyclesTotal() const;
  /// Largest single-epoch record count seen — the "how big does the
  /// slab actually need to be" number once recycling decouples capacity
  /// from run length.
  uint64_t slabEpochRecordsHighWater() const;

  //===--------------------------------------------------------------------===
  // Observability: trace ring + metric cells (src/obs).
  //===--------------------------------------------------------------------===

  /// Whether init() mapped a trace ring (TraceConfig::Records != 0).
  bool traceEnabled() const;
  /// Emits one event into the shared ring; drops (and counts) when full.
  /// No-op returning false when tracing is disabled.
  bool traceEmit(const obs::TraceEvent &Ev);
  /// Drains published events into \p Out (see obs::traceRingDrain for the
  /// SkipUnpublished contract). Returns events appended.
  size_t traceDrain(std::vector<obs::TraceEvent> &Out, bool SkipUnpublished);
  uint64_t traceDropsTotal() const;
  uint64_t traceEmittedTotal() const;

  /// Always-on latency histograms and run counters.
  void recordForkLatency(uint64_t Ns);
  void recordCommitLatency(uint64_t Ns);
  void recordRegionLatency(uint64_t Ns);
  void noteRegionResolved();
  void noteRetry();
  uint64_t regionsResolvedTotal() const;
  uint64_t retriesTotal() const;
  obs::HistogramSnapshot forkLatencySnapshot() const;
  obs::HistogramSnapshot commitLatencySnapshot() const;
  obs::HistogramSnapshot regionLatencySnapshot() const;

  /// Tuning-progress score cells: noteScore() records each per-region
  /// aggregate outcome (last/min/max via lock-free CAS on the bit
  /// patterns) so readers of the metrics page see score progression
  /// without any aggregation-side locking.
  void noteScore(double Score);
  uint64_t scoresNotedTotal() const;
  double scoreLast() const;
  double scoreMin() const; ///< 0 until any score was noted
  double scoreMax() const; ///< 0 until any score was noted

  //===--------------------------------------------------------------------===
  // Seqlock-published metrics snapshot page.
  //===--------------------------------------------------------------------===
  //
  // The root supervisor republishes a full RuntimeMetrics snapshot into
  // the shared mapping after every sweep. Readers (the scrape endpoint,
  // or any process holding the mapping) get tear-free snapshots without
  // pausing the run: the writer bumps the sequence word to odd, copies
  // the payload, then publishes with an even release-store; a reader
  // retries until it sees the same even sequence on both sides of its
  // copy.

  /// Writer side — root supervisor only (single writer by construction).
  void publishMetricsSnapshot(const obs::RuntimeMetrics &M);
  /// Reader side. False when nothing has been published yet or no stable
  /// snapshot could be had (see obs::MetricsSnapshotPage::read).
  bool readMetricsSnapshot(obs::RuntimeMetrics &Out) const;
  /// Publication count (even sequence / 2); 0 before the first publish.
  uint64_t metricsSnapshotCount() const;

private:
  SharedLayout *Layout = nullptr;
  size_t MappedBytes = 0;
  int EventFd = -1;
};

} // namespace proc
} // namespace wbt

#endif // WBT_PROC_SHAREDCONTROL_H
