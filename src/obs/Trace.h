//===- obs/Trace.h - Cross-process event ring -------------------*- C++ -*-===//
//
// Part of the WBTuner reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
//
// Fixed-size trace events and the lock-free MAP_SHARED ring they travel
// through. Sampling children and pool workers emit events from arbitrary
// points of the runtime; the tuning process drains the ring during its
// WNOHANG supervisor sweeps. The ring is a bounded MPMC queue with
// per-cell sequence numbers: producers claim a cell with one CAS and
// publish it with one release-store (mirroring the commit slab's
// payload-first protocol), and a full ring drops the event and bumps a
// counter instead of ever blocking a child. A writer that dies between
// claim and publish leaves exactly one unpublished cell, which the
// consumer skips (and counts as a drop) once every child of the region
// has been reaped.
//
// The ring functions are free functions over a raw layout pointer so
// they can be unit-tested on a private mapping and embedded into
// SharedControl's single shared mapping without owning memory.
//
//===----------------------------------------------------------------------===//

#ifndef WBT_OBS_TRACE_H
#define WBT_OBS_TRACE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace wbt {
namespace obs {

/// What happened. Span kinds come in Begin/End pairs (exported as "B"/"E"
/// duration events); the rest are instants or complete events.
enum class EventKind : uint16_t {
  None = 0,
  RegionBegin,   ///< tuning: A = region ordinal, B = sample count
  RegionEnd,     ///< tuning: A = region ordinal
  SampleBegin,   ///< fork-mode child: A = region ordinal, B = sample index
  SampleEnd,     ///< fork-mode child: A = region ordinal, B = sample index
  WorkerBegin,   ///< pool worker: A = region ordinal, B = worker index
  WorkerEnd,     ///< pool worker: A = region ordinal, B = worker index
  LeaseBegin,    ///< pool worker: A = lease index, B = attempt
  LeaseEnd,      ///< pool worker: A = lease index, Arg = final LeaseState
  Fork,          ///< tuning: A = slot/worker index, B = fork latency ns,
                 ///< Arg = 1 for a @split tuning fork
  StoreCommit,   ///< child: A = backend (0 slab, 1 file), B = latency ns,
                 ///< Arg = FallbackReason + 1, or 0 when no fallback
  Fold,          ///< tuning: A = child table index folded from
  Kill,          ///< tuning: A = slot index, B = pid (timeout SIGKILL)
  Respawn,       ///< tuning: A = worker slot respawned after a crash
  SpareActivate, ///< tuning: A = slot index of the activated spare
  LeaseReclaim,  ///< tuning: A = lease index returned by a dead worker
  SchedAdmit,    ///< A = 1 for a tuning acquire, B = slot/sample index
  SchedDefer,    ///< pool full, acquire timed out; B = slot/sample index
  BatchBegin,    ///< tuning: A = first region ordinal, B = region count
  BatchEnd,      ///< tuning: A = first region ordinal, B = region count
  BatchRoll,     ///< worker: A = region ordinal rolled into, B = lease index
  SlabRecycle,   ///< tuning: A = new slab epoch, B = records retired
  NetAccept,     ///< tuning: A = agent id, B = net generation
  NetClaim,      ///< tuning: A = agent id, B = leases granted
  NetCommitFrame,///< agent: A = lease count in frame, B = net generation
  NetDisconnect, ///< tuning: A = agent id, B = leases returned
  Progress,      ///< tuning: A = region ordinal, B = bit pattern of the
                 ///< aggregate score (double), Arg = committed samples
};

/// One fixed-size trace record. 32 bytes, POD, safe to write from a
/// process that may be SIGKILLed at any instruction.
struct TraceEvent {
  uint64_t TsNs; ///< CLOCK_MONOTONIC, nanoseconds
  int32_t Pid;
  uint16_t Kind; ///< EventKind
  uint16_t Arg;  ///< small kind-specific argument (state, reason)
  uint64_t A;
  uint64_t B;
};

/// Header + cell array of the shared ring. Lives inside SharedControl's
/// one MAP_SHARED mapping; never unmapped separately.
struct TraceRingLayout {
  uint64_t Capacity; ///< power of two, immutable after init
  std::atomic<uint64_t> Head;      ///< next cell to claim (producers)
  std::atomic<uint64_t> Tail;      ///< next cell to read (consumer)
  std::atomic<uint64_t> Drops;     ///< events lost to a full ring or a
                                   ///< dead writer's unpublished cell
  std::atomic<uint64_t> Published; ///< events successfully emitted
  std::atomic<uint32_t> DrainBusy; ///< consumer mutual exclusion (TAS)
};

struct TraceCell {
  std::atomic<uint64_t> Seq;
  TraceEvent Ev;
};

/// Bytes needed for a ring of `Records` capacity (rounded up to a power
/// of two, minimum 8). Returns 0 when Records == 0 (tracing disabled).
size_t traceRingBytes(size_t Records);

/// Initializes a zeroed region of traceRingBytes(Records) bytes.
void traceRingInit(void *Mem, size_t Records);

/// Claims a cell, writes `Ev`, publishes it. Returns false (and counts a
/// drop) when the ring is full — never blocks. Safe from any number of
/// concurrent processes sharing the mapping. `DebugDieBeforePublish`
/// SIGKILLs the calling process after the claim but before the publish
/// (torn-write drills).
bool traceRingEmit(TraceRingLayout *L, const TraceEvent &Ev,
                   bool DebugDieBeforePublish = false);

/// Drains every published event into `Out` (appending, in emit order).
/// Single consumer: concurrent callers return 0 immediately. With
/// `SkipUnpublished`, a claimed-but-unpublished cell (dead writer) is
/// skipped and counted as a drop instead of wedging the ring — only safe
/// once the writers that could still publish have been reaped. Returns
/// the number of events appended.
size_t traceRingDrain(TraceRingLayout *L, std::vector<TraceEvent> &Out,
                      bool SkipUnpublished);

/// Fills Pid/TsNs from the calling process and the monotonic clock.
TraceEvent makeEvent(EventKind Kind, uint64_t A = 0, uint64_t B = 0,
                     uint16_t Arg = 0);

/// Human-readable name of an event kind ("fork", "lease", ...). Begin
/// and End of one span share a name (exporter track labels).
const char *eventKindName(EventKind Kind);

/// Unique per-kind trace-point name ("sample.begin", "commit", ...) —
/// the names fault-injection kill clauses (`tp.<name>@...:kill`) match
/// on, so Begin and End points are distinguishable.
const char *eventPointName(EventKind Kind);

} // namespace obs
} // namespace wbt

#endif // WBT_OBS_TRACE_H
