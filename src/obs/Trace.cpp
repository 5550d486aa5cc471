//===- obs/Trace.cpp - Cross-process event ring ---------------------------===//
//
// Part of the WBTuner reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include <csignal>
#include <ctime>
#include <unistd.h>

namespace wbt {
namespace obs {

namespace {

size_t roundPow2(size_t N) {
  size_t P = 8;
  while (P < N)
    P <<= 1;
  return P;
}

TraceCell *cells(TraceRingLayout *L) {
  return reinterpret_cast<TraceCell *>(L + 1);
}

uint64_t nowNs() {
  timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return uint64_t(Ts.tv_sec) * 1000000000ull + uint64_t(Ts.tv_nsec);
}

} // namespace

size_t traceRingBytes(size_t Records) {
  if (Records == 0)
    return 0;
  return sizeof(TraceRingLayout) + roundPow2(Records) * sizeof(TraceCell);
}

void traceRingInit(void *Mem, size_t Records) {
  TraceRingLayout *L = static_cast<TraceRingLayout *>(Mem);
  L->Capacity = roundPow2(Records);
  L->Head.store(0, std::memory_order_relaxed);
  L->Tail.store(0, std::memory_order_relaxed);
  L->Drops.store(0, std::memory_order_relaxed);
  L->Published.store(0, std::memory_order_relaxed);
  L->DrainBusy.store(0, std::memory_order_relaxed);
  TraceCell *C = cells(L);
  for (uint64_t I = 0; I != L->Capacity; ++I)
    C[I].Seq.store(I, std::memory_order_relaxed);
}

bool traceRingEmit(TraceRingLayout *L, const TraceEvent &Ev,
                   bool DebugDieBeforePublish) {
  const uint64_t Cap = L->Capacity;
  uint64_t Pos = L->Head.load(std::memory_order_relaxed);
  TraceCell *C = cells(L);
  for (;;) {
    TraceCell &Cell = C[Pos & (Cap - 1)];
    uint64_t Seq = Cell.Seq.load(std::memory_order_acquire);
    int64_t Diff = int64_t(Seq) - int64_t(Pos);
    if (Diff == 0) {
      // Cell free for this lap: claim it. CAS failure means another
      // producer won the race; retry at its published head.
      if (L->Head.compare_exchange_weak(Pos, Pos + 1,
                                        std::memory_order_relaxed))
        break;
    } else if (Diff < 0) {
      // The consumer has not freed this lap's cell yet — ring full.
      // Children must never block on observability: drop and count.
      L->Drops.fetch_add(1, std::memory_order_relaxed);
      return false;
    } else {
      Pos = L->Head.load(std::memory_order_relaxed);
    }
  }
  TraceCell &Cell = C[Pos & (Cap - 1)];
  Cell.Ev = Ev;
  if (DebugDieBeforePublish)
    raise(SIGKILL); // claimed but never published: the torn-write drill
  // Payload first, then the one release-store that publishes it — a
  // writer killed before this line leaves the cell unpublished, never
  // torn (same discipline as SharedControl::slabCommit).
  Cell.Seq.store(Pos + 1, std::memory_order_release);
  L->Published.fetch_add(1, std::memory_order_relaxed);
  return true;
}

size_t traceRingDrain(TraceRingLayout *L, std::vector<TraceEvent> &Out,
                      bool SkipUnpublished) {
  uint32_t Expected = 0;
  if (!L->DrainBusy.compare_exchange_strong(Expected, 1,
                                            std::memory_order_acquire))
    return 0;
  const uint64_t Cap = L->Capacity;
  TraceCell *C = cells(L);
  size_t Drained = 0;
  uint64_t Pos = L->Tail.load(std::memory_order_relaxed);
  for (;;) {
    TraceCell &Cell = C[Pos & (Cap - 1)];
    uint64_t Seq = Cell.Seq.load(std::memory_order_acquire);
    if (Seq == Pos + 1) {
      Out.push_back(Cell.Ev);
      ++Drained;
    } else if (SkipUnpublished &&
               L->Head.load(std::memory_order_acquire) > Pos) {
      // The cell was claimed (Head moved past it) but its writer never
      // published — it died between claim and publish. With every
      // writer reaped nobody can complete it; skip it as a drop so the
      // ring never wedges.
      L->Drops.fetch_add(1, std::memory_order_relaxed);
    } else {
      break; // caught up, or an in-flight writer we must wait for
    }
    Cell.Seq.store(Pos + Cap, std::memory_order_release);
    ++Pos;
  }
  L->Tail.store(Pos, std::memory_order_relaxed);
  L->DrainBusy.store(0, std::memory_order_release);
  return Drained;
}

TraceEvent makeEvent(EventKind Kind, uint64_t A, uint64_t B, uint16_t Arg) {
  TraceEvent Ev;
  Ev.TsNs = nowNs();
  Ev.Pid = int32_t(getpid());
  Ev.Kind = uint16_t(Kind);
  Ev.Arg = Arg;
  Ev.A = A;
  Ev.B = B;
  return Ev;
}

const char *eventKindName(EventKind Kind) {
  switch (Kind) {
  case EventKind::None:
    return "none";
  case EventKind::RegionBegin:
  case EventKind::RegionEnd:
    return "region";
  case EventKind::SampleBegin:
  case EventKind::SampleEnd:
    return "sample";
  case EventKind::WorkerBegin:
  case EventKind::WorkerEnd:
    return "worker";
  case EventKind::LeaseBegin:
  case EventKind::LeaseEnd:
    return "lease";
  case EventKind::Fork:
    return "fork";
  case EventKind::StoreCommit:
    return "commit";
  case EventKind::Fold:
    return "fold";
  case EventKind::Kill:
    return "kill";
  case EventKind::Respawn:
    return "respawn";
  case EventKind::SpareActivate:
    return "spare-activate";
  case EventKind::LeaseReclaim:
    return "lease-reclaim";
  case EventKind::SchedAdmit:
    return "sched-admit";
  case EventKind::SchedDefer:
    return "sched-defer";
  case EventKind::BatchBegin:
  case EventKind::BatchEnd:
    return "batch";
  case EventKind::BatchRoll:
    return "batch-roll";
  case EventKind::SlabRecycle:
    return "slab-recycle";
  case EventKind::NetAccept:
    return "net-accept";
  case EventKind::NetClaim:
    return "net-claim";
  case EventKind::NetCommitFrame:
    return "net-frame";
  case EventKind::NetDisconnect:
    return "net-disconnect";
  case EventKind::Progress:
    return "progress";
  }
  return "unknown";
}

const char *eventPointName(EventKind Kind) {
  switch (Kind) {
  case EventKind::None:
    return "none";
  case EventKind::RegionBegin:
    return "region.begin";
  case EventKind::RegionEnd:
    return "region.end";
  case EventKind::SampleBegin:
    return "sample.begin";
  case EventKind::SampleEnd:
    return "sample.end";
  case EventKind::WorkerBegin:
    return "worker.begin";
  case EventKind::WorkerEnd:
    return "worker.end";
  case EventKind::LeaseBegin:
    return "lease.begin";
  case EventKind::LeaseEnd:
    return "lease.end";
  case EventKind::Fork:
    return "fork";
  case EventKind::StoreCommit:
    return "commit";
  case EventKind::Fold:
    return "fold";
  case EventKind::Kill:
    return "kill";
  case EventKind::Respawn:
    return "respawn";
  case EventKind::SpareActivate:
    return "spare-activate";
  case EventKind::LeaseReclaim:
    return "lease-reclaim";
  case EventKind::SchedAdmit:
    return "sched-admit";
  case EventKind::SchedDefer:
    return "sched-defer";
  case EventKind::BatchBegin:
    return "batch.begin";
  case EventKind::BatchEnd:
    return "batch.end";
  case EventKind::BatchRoll:
    return "batch.roll";
  case EventKind::SlabRecycle:
    return "slab.recycle";
  case EventKind::NetAccept:
    return "net.accept";
  case EventKind::NetClaim:
    return "net.claim";
  case EventKind::NetCommitFrame:
    return "net.frame";
  case EventKind::NetDisconnect:
    return "net.disconnect";
  case EventKind::Progress:
    return "progress";
  }
  return "unknown";
}

} // namespace obs
} // namespace wbt
