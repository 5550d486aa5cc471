//===- proc/SharedControl.cpp - Cross-process shared state ----------------===//
//
// Part of the WBTuner reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "proc/SharedControl.h"

#include "inject/Inject.h"
#include "inject/Sys.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/mman.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <limits>
#include <thread>
#include <type_traits>

using namespace wbt;
using namespace wbt::proc;

void SharedLock::init() {
  pthread_mutexattr_t MA;
  pthread_mutexattr_init(&MA);
  pthread_mutexattr_setpshared(&MA, PTHREAD_PROCESS_SHARED);
  pthread_mutex_init(&Mutex, &MA);
  pthread_mutexattr_destroy(&MA);
  pthread_condattr_t CA;
  pthread_condattr_init(&CA);
  pthread_condattr_setpshared(&CA, PTHREAD_PROCESS_SHARED);
  // Timed waits measure against CLOCK_MONOTONIC so a wall-clock step can
  // neither stall nor fire the supervisor's bounded sleeps.
  pthread_condattr_setclock(&CA, CLOCK_MONOTONIC);
  pthread_cond_init(&Cond, &CA);
  pthread_condattr_destroy(&CA);
}

namespace {

/// Absolute CLOCK_MONOTONIC deadline \p Ms from now.
timespec deadlineIn(int Ms) {
  timespec T;
  clock_gettime(CLOCK_MONOTONIC, &T);
  T.tv_sec += Ms / 1000;
  T.tv_nsec += static_cast<long>(Ms % 1000) * 1000000L;
  if (T.tv_nsec >= 1000000000L) {
    ++T.tv_sec;
    T.tv_nsec -= 1000000000L;
  }
  return T;
}

/// One directory entry of the commit slab. Fixed size, so readers can
/// scan the directory without ever needing an unpublished record's
/// length. Ready is the publication word: 0 until the payload, name and
/// every other field are in place.
struct SlabRecord {
  std::atomic<uint32_t> Ready;
  uint32_t Size;
  uint64_t Tp;
  uint64_t Region;
  uint64_t ArenaOff;
  int32_t Child;
  uint32_t NameLen;
  char Name[wbt::proc::SlabVarNameMax];
};

constexpr uint64_t alignUp8(uint64_t X) { return (X + 7) & ~uint64_t(7); }

uint64_t doubleBits(double D) {
  uint64_t U;
  std::memcpy(&U, &D, sizeof(U));
  return U;
}

double bitsDouble(uint64_t U) {
  double D;
  std::memcpy(&D, &U, sizeof(D));
  return D;
}

} // namespace

namespace wbt {
namespace proc {

struct SharedLayout {
  // Pool (Alg. 1).
  SharedLock PoolLock;
  int FreeSlots;
  unsigned MaxPool;
  int UseScheduler; // 0/1

  // Tuning process accounting.
  SharedLock TpLock;
  int LiveTps;
  uint64_t NextTp;

  // Supervisor counters.
  std::atomic<uint64_t> LeaseReclaims;
  std::atomic<uint64_t> CrashedTotal;
  std::atomic<uint64_t> TimedOutTotal;
  std::atomic<uint64_t> ForkFailedTotal;

  // Commit slab: bump allocators + capacities. The directory and arena
  // follow this struct in the mapping (offsets fixed at init).
  std::atomic<uint64_t> SlabNext;      // directory entries handed out
  std::atomic<uint64_t> SlabArenaNext; // arena bytes handed out
  std::atomic<uint64_t> SlabPublished;
  std::atomic<uint64_t> SlabFallbacks;
  uint64_t SlabRecCap;
  uint64_t SlabArenaCap;
  uint64_t SlabRecByteOff;   // directory offset from the mapping base
  uint64_t SlabArenaByteOff; // arena offset from the mapping base

  // Observability (src/obs): always-on metric cells, plus the offset of
  // the opt-in trace ring (0 when tracing is disabled).
  std::atomic<uint64_t> SlabFallbackReasons[obs::NumFallbackReasons];
  std::atomic<uint64_t> RegionsResolved;
  std::atomic<uint64_t> Retries;
  obs::LatencyHistogram ForkLatency;
  obs::LatencyHistogram CommitLatency;
  obs::LatencyHistogram RegionLatency;

  // Tuning-progress score cells: last as a plain bit-pattern store,
  // min/max maintained by CAS loops over the bit patterns (decoded for
  // the comparison — bit order is not double order).
  std::atomic<uint64_t> ScoreCount;
  std::atomic<uint64_t> ScoreLastBits;
  std::atomic<uint64_t> ScoreMinBits; // +inf until the first score
  std::atomic<uint64_t> ScoreMaxBits; // -inf until the first score

  // Seqlock-published metrics snapshot page (obs::MetricsSnapshotPage
  // owns the protocol). Single writer: the root supervisor.
  obs::MetricsSnapshotPage MetricsPg;

  // Epoch-based slab recycling (written only by the root tuning process,
  // single-threaded, between regions; atomics because every process may
  // read them through the metrics accessors).
  std::atomic<uint64_t> SlabEpoch;
  std::atomic<uint64_t> SlabRecycles;
  std::atomic<uint64_t> SlabRetiredRecords; // summed over retired epochs
  std::atomic<uint64_t> SlabRetiredBytes;
  std::atomic<uint64_t> SlabEpochRecHW; // largest single-epoch record count

  uint64_t TraceByteOff;

  // SlabRecord[SlabRecCap], then uint8_t Arena[SlabArenaCap], then the
  // optional TraceRingLayout follow the struct in memory.
};

} // namespace proc
} // namespace wbt

static SlabRecord *slabRecords(SharedLayout *L) {
  return reinterpret_cast<SlabRecord *>(reinterpret_cast<uint8_t *>(L) +
                                        L->SlabRecByteOff);
}

static uint8_t *slabArena(SharedLayout *L) {
  return reinterpret_cast<uint8_t *>(L) + L->SlabArenaByteOff;
}

static wbt::obs::TraceRingLayout *traceRing(SharedLayout *L) {
  if (!L->TraceByteOff)
    return nullptr;
  return reinterpret_cast<wbt::obs::TraceRingLayout *>(
      reinterpret_cast<uint8_t *>(L) + L->TraceByteOff);
}

SharedControl::~SharedControl() {
  if (Layout)
    munmap(Layout, MappedBytes);
  if (EventFd >= 0)
    close(EventFd);
}

void SharedControl::init(unsigned MaxPool, bool UseScheduler,
                         const SlabConfig &Slab, const TraceConfig &Trace) {
  assert(!Layout && "SharedControl initialized twice");
  if (MaxPool == 0)
    MaxPool = std::max(2u, std::thread::hardware_concurrency());
  uint64_t RecByteOff = alignUp8(sizeof(SharedLayout));
  uint64_t ArenaByteOff = RecByteOff + Slab.Records * sizeof(SlabRecord);
  uint64_t TraceByteOff = ArenaByteOff + alignUp8(Slab.ArenaBytes);
  MappedBytes = TraceByteOff + obs::traceRingBytes(Trace.Records);
  // assert() compiles out under NDEBUG; a failed mapping here must be
  // loud in every build type — nothing downstream can run without it.
  // The anonymous mapping arrives zero-filled, which every field below
  // relies on; its pages fault in as the run touches them.
  void *Mem = sys::mmapShared(MappedBytes);
  if (Mem == MAP_FAILED)
    sys::fatal("mmap of shared control block (%zu bytes) failed: %s",
               MappedBytes, std::strerror(errno));
  Layout = static_cast<SharedLayout *>(Mem);
  Layout->SlabRecCap = Slab.Records;
  Layout->SlabArenaCap = Slab.ArenaBytes;
  Layout->SlabRecByteOff = RecByteOff;
  Layout->SlabArenaByteOff = ArenaByteOff;
  if (Trace.Records) {
    Layout->TraceByteOff = TraceByteOff;
    obs::traceRingInit(traceRing(Layout), Trace.Records);
  }

  Layout->PoolLock.init();
  Layout->FreeSlots = static_cast<int>(MaxPool);
  Layout->MaxPool = MaxPool;
  Layout->UseScheduler = UseScheduler ? 1 : 0;

  Layout->TpLock.init();
  Layout->LiveTps = 1; // the root tuning process
  Layout->NextTp = 1;

  // The root tuning process' child-event channel. Best effort: if the
  // kernel refuses, every wait runs to its bounded timeout.
  EventFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);

  // The mapping starts zeroed; score min/max start at their identities
  // so the first noteScore() wins both CAS races.
  Layout->ScoreMinBits.store(
      doubleBits(std::numeric_limits<double>::infinity()),
      std::memory_order_relaxed);
  Layout->ScoreMaxBits.store(
      doubleBits(-std::numeric_limits<double>::infinity()),
      std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Pool
//===----------------------------------------------------------------------===//

bool SharedControl::acquireSlotTimed(bool IsTuning, int TimeoutMs) {
  assert(Layout && "shared control not initialized");
  if (!Layout->UseScheduler)
    return true;
  timespec Deadline = deadlineIn(TimeoutMs);
  pthread_mutex_lock(&Layout->PoolLock.Mutex);
  bool Taken = false;
  for (;;) {
    // Alg. 1 line 8: sampling threshold is 0; tuning threshold is 75% of
    // the pool ("it has to wait if 25% processes are occupied"). The slot
    // the requesting tuning process itself holds is not occupancy: counting
    // it makes the gate unsatisfiable for MaxPool <= 4 (FreeSlots can never
    // exceed MaxPool - 1 while the caller is alive), and split() hangs
    // forever. Crediting the caller's slot also subsumes the old
    // idle-pool escape, so progress on an otherwise idle pool still holds.
    double Threshold =
        IsTuning ? 0.75 * static_cast<double>(Layout->MaxPool) : 0.0;
    double Free =
        static_cast<double>(Layout->FreeSlots) + (IsTuning ? 1.0 : 0.0);
    if (Free > Threshold) {
      --Layout->FreeSlots;
      Taken = true;
      break;
    }
    if (TimeoutMs <= 0 ||
        pthread_cond_timedwait(&Layout->PoolLock.Cond,
                               &Layout->PoolLock.Mutex, &Deadline) ==
            ETIMEDOUT)
      break;
  }
  pthread_mutex_unlock(&Layout->PoolLock.Mutex);
  return Taken;
}

void SharedControl::releaseSlot() {
  if (!Layout->UseScheduler)
    return;
  pthread_mutex_lock(&Layout->PoolLock.Mutex);
  ++Layout->FreeSlots;
  pthread_cond_broadcast(&Layout->PoolLock.Cond);
  pthread_mutex_unlock(&Layout->PoolLock.Mutex);
}

int SharedControl::freeSlots() const {
  pthread_mutex_lock(&Layout->PoolLock.Mutex);
  int N = Layout->FreeSlots;
  pthread_mutex_unlock(&Layout->PoolLock.Mutex);
  return N;
}

unsigned SharedControl::maxPool() const { return Layout->MaxPool; }

//===----------------------------------------------------------------------===//
// Tuning process accounting
//===----------------------------------------------------------------------===//

void SharedControl::tuningProcessForked() {
  pthread_mutex_lock(&Layout->TpLock.Mutex);
  ++Layout->LiveTps;
  pthread_mutex_unlock(&Layout->TpLock.Mutex);
}

void SharedControl::tuningProcessExited() {
  pthread_mutex_lock(&Layout->TpLock.Mutex);
  --Layout->LiveTps;
  pthread_cond_broadcast(&Layout->TpLock.Cond);
  pthread_mutex_unlock(&Layout->TpLock.Mutex);
}

bool SharedControl::waitLiveTuningProcessesTimed(int Remaining,
                                                 int TimeoutMs) {
  timespec Deadline = deadlineIn(TimeoutMs);
  pthread_mutex_lock(&Layout->TpLock.Mutex);
  while (Layout->LiveTps > Remaining) {
    if (pthread_cond_timedwait(&Layout->TpLock.Cond, &Layout->TpLock.Mutex,
                               &Deadline) == ETIMEDOUT)
      break;
  }
  bool Done = Layout->LiveTps <= Remaining;
  pthread_mutex_unlock(&Layout->TpLock.Mutex);
  return Done;
}

int SharedControl::liveTuningProcesses() const {
  pthread_mutex_lock(&Layout->TpLock.Mutex);
  int N = Layout->LiveTps;
  pthread_mutex_unlock(&Layout->TpLock.Mutex);
  return N;
}

uint64_t SharedControl::nextTpId() {
  pthread_mutex_lock(&Layout->TpLock.Mutex);
  uint64_t Id = Layout->NextTp++;
  pthread_mutex_unlock(&Layout->TpLock.Mutex);
  return Id;
}

//===----------------------------------------------------------------------===//
// Barriers
//===----------------------------------------------------------------------===//

void SharedBarrier::init(int InExpected) {
  Lock.init();
  Expected = InExpected;
  Arrived = 0;
  Generation = 0;
}

void SharedBarrier::add(int Delta) {
  pthread_mutex_lock(&Lock.Mutex);
  Expected += Delta;
  pthread_cond_broadcast(&Lock.Cond);
  pthread_mutex_unlock(&Lock.Mutex);
}

void SharedBarrier::arriveAndWait(std::atomic<int32_t> *InBarrier) {
  pthread_mutex_lock(&Lock.Mutex);
  ++Arrived;
  if (InBarrier)
    InBarrier->store(1, std::memory_order_relaxed);
  uint64_t Gen = Generation;
  pthread_cond_broadcast(&Lock.Cond);
  while (Generation == Gen)
    pthread_cond_wait(&Lock.Cond, &Lock.Mutex);
  if (InBarrier)
    InBarrier->store(0, std::memory_order_relaxed);
  pthread_mutex_unlock(&Lock.Mutex);
}

void SharedBarrier::leave() { add(-1); }

void SharedBarrier::reclaimDead(std::atomic<int32_t> *InBarrier) {
  pthread_mutex_lock(&Lock.Mutex);
  // If the child died blocked inside arriveAndWait(), undo its arrival
  // too; the Arrived > 0 guard covers a death racing the release of the
  // generation (Arrived already reset for the next one).
  if (InBarrier && InBarrier->exchange(0, std::memory_order_relaxed) == 1 &&
      Arrived > 0)
    --Arrived;
  --Expected;
  pthread_cond_broadcast(&Lock.Cond);
  pthread_mutex_unlock(&Lock.Mutex);
}

bool SharedBarrier::waitAllTimed(int TimeoutMs) {
  timespec Deadline = deadlineIn(TimeoutMs);
  pthread_mutex_lock(&Lock.Mutex);
  while (Arrived < Expected) {
    if (pthread_cond_timedwait(&Lock.Cond, &Lock.Mutex, &Deadline) ==
        ETIMEDOUT)
      break;
  }
  bool Satisfied = Arrived >= Expected;
  pthread_mutex_unlock(&Lock.Mutex);
  return Satisfied;
}

void SharedBarrier::release() {
  pthread_mutex_lock(&Lock.Mutex);
  Arrived = 0;
  ++Generation;
  pthread_cond_broadcast(&Lock.Cond);
  pthread_mutex_unlock(&Lock.Mutex);
}

//===----------------------------------------------------------------------===//
// Child events + supervisor counters
//===----------------------------------------------------------------------===//

void SharedControl::reopenEventFd() {
  if (EventFd >= 0)
    close(EventFd);
  EventFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
}

void SharedControl::childEventNotify() {
  if (EventFd < 0)
    return;
  // EAGAIN (saturated counter) still leaves the descriptor readable.
  uint64_t One = 1;
  ssize_t R = write(EventFd, &One, sizeof(One));
  (void)R;
}

void SharedControl::childEventWait(int TimeoutMs) {
  // A negative descriptor is ignored by poll(2): the wait runs to its
  // timeout, as the doc of eventFd() promises.
  pollfd P = {EventFd, POLLIN, 0};
  if (::poll(&P, 1, TimeoutMs) > 0)
    eventFdDrain();
}

void SharedControl::eventFdDrain() {
  if (EventFd < 0)
    return;
  uint64_t V = 0;
  ssize_t R = read(EventFd, &V, sizeof(V)); // non-blocking; EAGAIN is fine
  (void)R;
}

void SharedControl::noteCrash() {
  Layout->CrashedTotal.fetch_add(1, std::memory_order_relaxed);
}
void SharedControl::noteTimeout() {
  Layout->TimedOutTotal.fetch_add(1, std::memory_order_relaxed);
}
void SharedControl::noteForkFailure() {
  Layout->ForkFailedTotal.fetch_add(1, std::memory_order_relaxed);
}
uint64_t SharedControl::crashedTotal() const {
  return Layout->CrashedTotal.load(std::memory_order_relaxed);
}
uint64_t SharedControl::timedOutTotal() const {
  return Layout->TimedOutTotal.load(std::memory_order_relaxed);
}
uint64_t SharedControl::forkFailedTotal() const {
  return Layout->ForkFailedTotal.load(std::memory_order_relaxed);
}
void SharedControl::noteLeaseReclaim() {
  Layout->LeaseReclaims.fetch_add(1, std::memory_order_relaxed);
}
uint64_t SharedControl::leaseReclaimsTotal() const {
  return Layout->LeaseReclaims.load(std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Commit slab
//===----------------------------------------------------------------------===//

bool SharedControl::slabCommit(uint64_t Tp, uint64_t Region,
                               const std::string &Var, int Child,
                               const uint8_t *Data, size_t Size) {
  SharedLayout *L = Layout;
  if (Var.size() > SlabVarNameMax) {
    noteSlabFallback(obs::FallbackReason::LongName);
    return false;
  }
  if (Size > std::numeric_limits<uint32_t>::max()) {
    noteSlabFallback(obs::FallbackReason::Oversized);
    return false;
  }
  if (L->SlabRecCap == 0) {
    noteSlabFallback(obs::FallbackReason::Exhausted);
    return false;
  }
  // Bump-allocate a directory entry and payload space. Rejected
  // allocations stay consumed (the counters only grow), which keeps the
  // fast path a single fetch_add with no retry loop; the lost bytes are
  // bounded by the one commit that hit the boundary.
  uint64_t Idx = L->SlabNext.fetch_add(1, std::memory_order_relaxed);
  if (Idx >= L->SlabRecCap) {
    noteSlabFallback(obs::FallbackReason::Exhausted);
    return false;
  }
  uint64_t Need = alignUp8(Size);
  uint64_t Off = L->SlabArenaNext.fetch_add(Need, std::memory_order_relaxed);
  if (Off + Need > L->SlabArenaCap) {
    noteSlabFallback(obs::FallbackReason::Exhausted);
    return false;
  }
  SlabRecord &R = slabRecords(L)[Idx];
  R.Size = static_cast<uint32_t>(Size);
  R.Tp = Tp;
  R.Region = Region;
  R.ArenaOff = Off;
  R.Child = Child;
  R.NameLen = static_cast<uint32_t>(Var.size());
  std::memcpy(R.Name, Var.data(), Var.size());
  if (Size)
    std::memcpy(slabArena(L) + Off, Data, Size);
  // Torn-commit kill point: a writer that dies here leaves the record
  // allocated but unpublished.
  inject::onTracePoint("slab.publish");
  L->SlabPublished.fetch_add(1, std::memory_order_relaxed);
  // Publication point: everything above must be visible before Ready.
  R.Ready.store(1, std::memory_order_release);
  return true;
}

size_t SharedControl::slabAllocated() const {
  uint64_t N = Layout->SlabNext.load(std::memory_order_acquire);
  return static_cast<size_t>(std::min<uint64_t>(N, Layout->SlabRecCap));
}

bool SharedControl::slabEntry(size_t Idx, SlabEntryView &Out) const {
  SharedLayout *L = Layout;
  if (Idx >= slabAllocated())
    return false;
  SlabRecord &R = slabRecords(L)[Idx];
  // Acquire pairs with the writer's release: a published record's
  // payload and header are fully visible; an unpublished one is absent.
  if (R.Ready.load(std::memory_order_acquire) != 1)
    return false;
  Out.Tp = R.Tp;
  Out.Region = R.Region;
  Out.Child = R.Child;
  Out.Name = std::string_view(R.Name, R.NameLen);
  Out.Data = slabArena(L) + R.ArenaOff;
  Out.Size = R.Size;
  return true;
}

uint64_t SharedControl::slabPublishedTotal() const {
  return Layout->SlabPublished.load(std::memory_order_relaxed);
}

uint64_t SharedControl::slabFallbackTotal() const {
  return Layout->SlabFallbacks.load(std::memory_order_relaxed);
}

uint64_t SharedControl::slabFallbacks(obs::FallbackReason R) const {
  return Layout->SlabFallbackReasons[int(R)].load(std::memory_order_relaxed);
}

void SharedControl::noteSlabFallback(obs::FallbackReason R) {
  Layout->SlabFallbacks.fetch_add(1, std::memory_order_relaxed);
  Layout->SlabFallbackReasons[int(R)].fetch_add(1, std::memory_order_relaxed);
}

uint64_t SharedControl::slabRecordsHighWater() const {
  return Layout->SlabRetiredRecords.load(std::memory_order_relaxed) +
         std::min(Layout->SlabNext.load(std::memory_order_relaxed),
                  Layout->SlabRecCap);
}

uint64_t SharedControl::slabBytesHighWater() const {
  return Layout->SlabRetiredBytes.load(std::memory_order_relaxed) +
         std::min(Layout->SlabArenaNext.load(std::memory_order_relaxed),
                  Layout->SlabArenaCap);
}

uint64_t SharedControl::slabEpoch() const {
  return Layout->SlabEpoch.load(std::memory_order_acquire);
}

bool SharedControl::slabNeedsRecycle() const {
  SharedLayout *L = Layout;
  if (L->SlabRecCap == 0)
    return false;
  uint64_t Recs = std::min(L->SlabNext.load(std::memory_order_relaxed),
                           L->SlabRecCap);
  uint64_t Bytes = std::min(L->SlabArenaNext.load(std::memory_order_relaxed),
                            L->SlabArenaCap);
  return Recs >= L->SlabRecCap / 2 || Bytes >= L->SlabArenaCap / 2;
}

void SharedControl::slabRecycle() {
  SharedLayout *L = Layout;
  if (L->SlabRecCap == 0)
    return;
  uint64_t Recs = std::min(L->SlabNext.load(std::memory_order_relaxed),
                           L->SlabRecCap);
  uint64_t Bytes = std::min(L->SlabArenaNext.load(std::memory_order_relaxed),
                            L->SlabArenaCap);
  // Clear the consumed Ready flags before resetting the allocators: a
  // stale Ready=1 entry racing a fresh writer on the same index would
  // let a reader see a half-written record as published.
  SlabRecord *Recs0 = slabRecords(L);
  for (uint64_t I = 0; I != Recs; ++I)
    Recs0[I].Ready.store(0, std::memory_order_relaxed);
  L->SlabRetiredRecords.fetch_add(Recs, std::memory_order_relaxed);
  L->SlabRetiredBytes.fetch_add(Bytes, std::memory_order_relaxed);
  uint64_t HW = L->SlabEpochRecHW.load(std::memory_order_relaxed);
  if (Recs > HW)
    L->SlabEpochRecHW.store(Recs, std::memory_order_relaxed);
  L->SlabArenaNext.store(0, std::memory_order_relaxed);
  // Release so a process that observes the reset directory (or the new
  // epoch) also observes the cleared Ready flags above.
  L->SlabNext.store(0, std::memory_order_release);
  L->SlabEpoch.fetch_add(1, std::memory_order_release);
  L->SlabRecycles.fetch_add(1, std::memory_order_relaxed);
}

uint64_t SharedControl::slabRecyclesTotal() const {
  return Layout->SlabRecycles.load(std::memory_order_relaxed);
}

uint64_t SharedControl::slabEpochRecordsHighWater() const {
  uint64_t Cur = std::min(Layout->SlabNext.load(std::memory_order_relaxed),
                          Layout->SlabRecCap);
  return std::max(Layout->SlabEpochRecHW.load(std::memory_order_relaxed), Cur);
}

//===----------------------------------------------------------------------===//
// Observability: trace ring + metric cells
//===----------------------------------------------------------------------===//

bool SharedControl::traceEnabled() const {
  return Layout && Layout->TraceByteOff != 0;
}

bool SharedControl::traceEmit(const obs::TraceEvent &Ev) {
  obs::TraceRingLayout *Ring = traceRing(Layout);
  if (!Ring)
    return false;
  return obs::traceRingEmit(Ring, Ev);
}

size_t SharedControl::traceDrain(std::vector<obs::TraceEvent> &Out,
                                 bool SkipUnpublished) {
  obs::TraceRingLayout *Ring = traceRing(Layout);
  if (!Ring)
    return 0;
  return obs::traceRingDrain(Ring, Out, SkipUnpublished);
}

uint64_t SharedControl::traceDropsTotal() const {
  obs::TraceRingLayout *Ring = traceRing(Layout);
  return Ring ? Ring->Drops.load(std::memory_order_relaxed) : 0;
}

uint64_t SharedControl::traceEmittedTotal() const {
  obs::TraceRingLayout *Ring = traceRing(Layout);
  return Ring ? Ring->Published.load(std::memory_order_relaxed) : 0;
}

void SharedControl::recordForkLatency(uint64_t Ns) {
  Layout->ForkLatency.record(Ns);
}

void SharedControl::recordCommitLatency(uint64_t Ns) {
  Layout->CommitLatency.record(Ns);
}

void SharedControl::noteRegionResolved() {
  Layout->RegionsResolved.fetch_add(1, std::memory_order_relaxed);
}

void SharedControl::noteRetry() {
  Layout->Retries.fetch_add(1, std::memory_order_relaxed);
}

uint64_t SharedControl::regionsResolvedTotal() const {
  return Layout->RegionsResolved.load(std::memory_order_relaxed);
}

uint64_t SharedControl::retriesTotal() const {
  return Layout->Retries.load(std::memory_order_relaxed);
}

static obs::HistogramSnapshot snapshotOf(const obs::LatencyHistogram &H) {
  obs::HistogramSnapshot S;
  for (int B = 0; B != obs::NumHistBuckets; ++B)
    S.Counts[B] = H.Counts[B].load(std::memory_order_relaxed);
  S.SumNs = H.SumNs.load(std::memory_order_relaxed);
  return S;
}

obs::HistogramSnapshot SharedControl::forkLatencySnapshot() const {
  return snapshotOf(Layout->ForkLatency);
}

obs::HistogramSnapshot SharedControl::commitLatencySnapshot() const {
  return snapshotOf(Layout->CommitLatency);
}

void SharedControl::recordRegionLatency(uint64_t Ns) {
  Layout->RegionLatency.record(Ns);
}

obs::HistogramSnapshot SharedControl::regionLatencySnapshot() const {
  return snapshotOf(Layout->RegionLatency);
}

void SharedControl::noteScore(double Score) {
  SharedLayout *L = Layout;
  L->ScoreLastBits.store(doubleBits(Score), std::memory_order_relaxed);
  uint64_t Bits = doubleBits(Score);
  uint64_t Cur = L->ScoreMinBits.load(std::memory_order_relaxed);
  while (Score < bitsDouble(Cur) &&
         !L->ScoreMinBits.compare_exchange_weak(Cur, Bits,
                                                std::memory_order_relaxed))
    ;
  Cur = L->ScoreMaxBits.load(std::memory_order_relaxed);
  while (Score > bitsDouble(Cur) &&
         !L->ScoreMaxBits.compare_exchange_weak(Cur, Bits,
                                                std::memory_order_relaxed))
    ;
  L->ScoreCount.fetch_add(1, std::memory_order_relaxed);
}

uint64_t SharedControl::scoresNotedTotal() const {
  return Layout->ScoreCount.load(std::memory_order_relaxed);
}

double SharedControl::scoreLast() const {
  if (!scoresNotedTotal())
    return 0.0;
  return bitsDouble(Layout->ScoreLastBits.load(std::memory_order_relaxed));
}

double SharedControl::scoreMin() const {
  if (!scoresNotedTotal())
    return 0.0; // the cell still holds +inf — never leak it into JSON
  return bitsDouble(Layout->ScoreMinBits.load(std::memory_order_relaxed));
}

double SharedControl::scoreMax() const {
  if (!scoresNotedTotal())
    return 0.0;
  return bitsDouble(Layout->ScoreMaxBits.load(std::memory_order_relaxed));
}

//===----------------------------------------------------------------------===//
// Seqlock metrics snapshot page
//===----------------------------------------------------------------------===//

void SharedControl::publishMetricsSnapshot(const obs::RuntimeMetrics &M) {
  Layout->MetricsPg.publish(M);
}

bool SharedControl::readMetricsSnapshot(obs::RuntimeMetrics &Out) const {
  return Layout->MetricsPg.read(Out);
}

uint64_t SharedControl::metricsSnapshotCount() const {
  return Layout->MetricsPg.published();
}
