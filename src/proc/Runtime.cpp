//===- proc/Runtime.cpp - Fork-based WBTuner runtime ----------------------===//
//
// Part of the WBTuner reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "proc/Runtime.h"

#include "inject/Sys.h"
#include "net/AgentChannel.h"
#include "net/LeaseServer.h"
#include "net/MetricsEndpoint.h"
#include "obs/TraceExporter.h"
#include "proc/SharedControl.h"
#include "strategy/SamplingStrategy.h"

#include <dirent.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string_view>

using namespace wbt;
using namespace wbt::proc;

namespace {

uint64_t mixSeed(uint64_t X, uint64_t Y) {
  uint64_t Z = X + 0x9e3779b97f4a7c15ULL * (Y + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// The RNG stream of sample \p Index of region \p Region of tuning
/// process \p Tp. A fork-per-sample child, a pool worker and a remote
/// agent that run the sample all reseed with it, which keeps their draws
/// bitwise-identical.
Rng sampleRng(uint64_t Seed, uint64_t Tp, uint64_t Region, int Index) {
  return Rng(mixSeed(mixSeed(Seed, Tp),
                     (Region << 20) + static_cast<uint64_t>(Index)));
}

bool makeDir(const std::string &Path) { return sys::makeDir(Path); }

/// makeDir for directories the runtime can survive without (per-region
/// stores, split tp dirs): failure is reported, not fatal — commits
/// into the missing directory fail cleanly and read as absent.
void makeDirOrWarn(const std::string &Path) {
  if (!makeDir(Path))
    std::fprintf(stderr, "wbtuner: cannot create directory %s: %s\n",
                 Path.c_str(), std::strerror(errno));
}

std::atomic<uint64_t> GRemoveFailures{0};

void warnRemoveFailure(const std::string &Path) {
  GRemoveFailures.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr, "wbtuner: cannot remove %s: %s\n", Path.c_str(),
               std::strerror(errno));
}

/// Depth-first removal of one entry; returns how many entries could not
/// be removed. Failures are warned and counted, and the walk continues
/// past them — one undeletable entry must not strand its siblings. (An
/// earlier nftw(3)-based walk stopped at the first failing callback and
/// discarded nftw's return value, so a single EACCES leaked the rest of
/// the run directory without a word.) Symlinks are never followed; the
/// depth cap bounds pathological nesting under the run dir.
uint64_t removeTreeRec(const std::string &Path, int Depth) {
  struct stat St;
  if (lstat(Path.c_str(), &St) != 0) {
    if (errno == ENOENT)
      return 0;
    warnRemoveFailure(Path);
    return 1;
  }
  uint64_t Failures = 0;
  if (S_ISDIR(St.st_mode) && Depth < 64) {
    DIR *D = sys::openDir(Path.c_str());
    if (!D) {
      warnRemoveFailure(Path);
      return 1;
    }
    std::vector<std::string> Names;
    while (dirent *E = readdir(D)) {
      std::string_view Name(E->d_name);
      if (Name != "." && Name != "..")
        Names.emplace_back(Name);
    }
    closedir(D);
    for (const std::string &Name : Names)
      Failures += removeTreeRec(Path + "/" + Name, Depth + 1);
  }
  if (sys::removePath(Path.c_str()) != 0 && errno != ENOENT) {
    warnRemoveFailure(Path);
    ++Failures;
  }
  return Failures;
}

/// Recursively removes \p Path with a direct depth-first traversal — no
/// shell, no quoting, no extra fork on the teardown path. Returns false
/// when some entry survived (already warned and counted).
bool removeTree(const std::string &Path) {
  return removeTreeRec(Path, 0) == 0;
}

std::string sampleFilePath(const std::string &RegionDir,
                           const std::string &Var, int I) {
  return RegionDir + "/" + Var + "." + std::to_string(I);
}

/// CLOCK_MONOTONIC now, in seconds.
double monoNow() {
  timespec T;
  clock_gettime(CLOCK_MONOTONIC, &T);
  return static_cast<double>(T.tv_sec) +
         static_cast<double>(T.tv_nsec) * 1e-9;
}

/// CLOCK_MONOTONIC deadline \p Ms from now, for the monotonic-clock
/// condvars (SharedLock::init).
timespec monoDeadlineIn(int Ms) {
  timespec T;
  clock_gettime(CLOCK_MONOTONIC, &T);
  T.tv_sec += Ms / 1000;
  T.tv_nsec += static_cast<long>(Ms % 1000) * 1000000L;
  if (T.tv_nsec >= 1000000000L) {
    T.tv_nsec -= 1000000000L;
    ++T.tv_sec;
  }
  return T;
}

/// Spare parking commands (ChildSlot::Command).
enum SpareCommand : int32_t { SpPark = 0, SpActivate = 1, SpDiscard = 2 };

/// Lifecycle of one sample lease: the one ledger of sample outcomes, in
/// fork-per-sample and worker-pool regions alike. Terminal states
/// translate to SampleStatus when the region resolves.
enum LeaseState : int32_t {
  LsPending = 0, // not yet claimed
  LsClaimed,     // a process is running it
  LsReturned,    // orphaned by a dead worker; awaiting re-claim
  LsCommitted,
  LsPruned,
  LsCrashed,
  LsTimedOut,
  LsForkFailed, // no process ever existed to run it
  LsUnused,     // a fork-mode retry spare's, until the spare is activated
};

/// Whether lease state \p Ls is a sample's outcome (Committed through
/// ForkFailed), which no party moves again.
bool leaseFinal(int32_t Ls) { return Ls >= LsCommitted && Ls <= LsForkFailed; }

/// A worker re-runs an orphaned lease at most once: the original attempt
/// plus one retry. A lease whose second owner also dies is Crashed — the
/// sample itself is the likely killer.
constexpr int32_t MaxLeaseAttempts = 2;

/// ChildSlot::CurrentLease of a process the supervisor has claimed for a
/// deadline kill while it held lease \p Idx (killStragglers()). Any value
/// <= -2 is such a mark; -1 means no lease. killMark(killMark(I)) == I.
constexpr int32_t killMark(int32_t Idx) { return -2 - Idx; }

SampleStatus leaseSampleStatus(int32_t Ls) {
  switch (Ls) {
  case LsCommitted:
    return SampleStatus::Committed;
  case LsPruned:
    return SampleStatus::Pruned;
  case LsTimedOut:
    return SampleStatus::TimedOut;
  case LsForkFailed:
    return SampleStatus::ForkFailed;
  case LsUnused:
    return SampleStatus::Unused;
  default:
    // LsCrashed, plus any non-terminal state that slipped through (the
    // settle loop should have retired them all): count it as a crash
    // rather than pretend the sample ran.
    return SampleStatus::Crashed;
  }
}

/// Thrown inside a pool worker to unwind one lease's body invocation —
/// check() pruning the lease, or aggregate() after the commit — and
/// caught in workerLoop(), which then claims the next index.
struct LeaseEnd {};

} // namespace

namespace wbt {
namespace proc {

/// Supervision record of one sampling process (a fork-mode sample or
/// spare, or a pool worker). Lives in the per-region MAP_SHARED table, so
/// both the child and the supervising tuning process see it; the child's
/// sample outcomes live in the lease cells, not here. The
/// SlotHeld/BarrierLeft flags carry cleanup ownership: whoever wins the
/// atomic exchange performs the release, which makes pool slot and barrier
/// reclamation exactly-once even when the supervisor reclaims on behalf of
/// a child that died mid-exit.
struct ChildSlot {
  std::atomic<int32_t> Pid;
  std::atomic<int32_t> SlotHeld;    // 1 while a pool slot is owned
  std::atomic<int32_t> BarrierLeft; // 1 once the @sync barrier is left, or
                                    // while outside it (spares, workers)
  std::atomic<int32_t> InBarrier;   // 1 while blocked in @sync
  std::atomic<int32_t> Exiting;     // 1 once only exitChild()'s end is left
  std::atomic<int32_t> Command;     // SpareCommand (spares only)
  std::atomic<int32_t> CurrentLease; // lease held, -1 for none, or the
                                     // killMark() of a deadline victim
};

/// Per-sample lease record; the supervisor and every sampling process see
/// the same state machine (LeaseState). Lives in the region table after
/// the child slots.
struct LeaseCell {
  std::atomic<int32_t> State;    // LeaseState
  std::atomic<int32_t> Signal;   // terminating signal of a crashed owner
  std::atomic<int32_t> Attempts; // times a local worker started it
};

/// Header of the per-region shared table; ChildSlot[NumSlots] follows it
/// in memory, then LeaseCell[NumLeases]. A fork-mode region has a slot
/// and a lease per sample and spare (slot I runs lease I); a pool table
/// has a slot per worker. Everything a region shares lives here and
/// nowhere else, so it is created with the region's mapping and gone
/// with it, even when its tuning process dies with the region open.
struct RegionTable {
  SharedLock ParkLock; // spare parking and the pool's claim gate
  SharedBarrier Barrier; // @sync; fork-mode regions only
  int32_t NumSlots;
  int32_t PoolMode;  // 1 for regionBatch() regions
  int32_t NumLeases; // BatchCount * BatchN
  std::atomic<int32_t> LeasesReturned; // LsReturned cells awaiting re-claim
  // The lease table spans BatchCount regions of BatchN samples each;
  // lease Idx belongs to region BatchBase + Idx / BatchN at local sample
  // index Idx % BatchN. A fork-mode region is a one-region table whose
  // BatchN counts its spares too.
  int32_t BatchCount;
  int32_t BatchN;
  uint64_t BatchBase;
  // Workers may only run leases below this bound; the supervisor raises
  // it (under ParkLock) as deliveries complete, which is what caps the
  // number of in-flight regions at Pipeline.
  std::atomic<int64_t> ClaimLimit;
  // Next unclaimed counter index of a pool table, zero in the fresh
  // mapping. Claimed by CAS, and only below ClaimLimit: the gate must
  // reject BEFORE the claim, since an index claimed and then parked on
  // stalls its region's delivery until the sleeping holder runs again.
  // Every claimant writes it, so it gets a cache line of its own.
  alignas(64) std::atomic<int64_t> ClaimNext;
};

/// Cleanup ownership of one @split tuning process, in a page its parent
/// maps for it before the fork and unmaps when it reaps it. The child
/// gives its pool slot back at the top of finish() and its live count at
/// the end; whichever of it and the reaping parent wins each exchange
/// does the release, so a child killed at any point is reclaimed
/// exactly once (the rule ChildSlot::SlotHeld follows).
struct SplitCell {
  std::atomic<int32_t> SlotHeld; // 1 while its pool slot is owned
  std::atomic<int32_t> Live;     // 1 while it counts as a live tuning process
};

} // namespace proc
} // namespace wbt

static ChildSlot *slotsOf(RegionTable *T) {
  return reinterpret_cast<ChildSlot *>(T + 1);
}

static LeaseCell *leasesOf(RegionTable *T) {
  return reinterpret_cast<LeaseCell *>(slotsOf(T) + T->NumSlots);
}

uint64_t proc::removeTreeFailures() {
  return GRemoveFailures.load(std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Region readers (aggregation-store backends)
//===----------------------------------------------------------------------===//

namespace {

/// StoreBackend::Files: one file per (variable, child) under the cached
/// region directory. Readers are built only after every child of the
/// region is reaped, so one readdir(3) pass at construction sees the
/// complete store; has() then answers from the in-memory index instead
/// of an access(2) per call, which kept @loadS-heavy aggregation
/// callbacks — and every Shm-backend fallback miss — quadratic in
/// filesystem round-trips.
class FileRegionReader : public RegionReader {
public:
  explicit FileRegionReader(std::string InDir) : Dir(std::move(InDir)) {
    DIR *D = opendir(Dir.c_str());
    if (!D)
      return;
    while (dirent *E = readdir(D)) {
      // Commit files are named "<var>.<child>"; anything else in the
      // directory (".", "..", an unrenamed ".tmp" of a writer killed
      // mid-commit) has a non-numeric suffix and is skipped.
      std::string_view Name(E->d_name);
      size_t Dot = Name.rfind('.');
      if (Dot == std::string_view::npos || Dot == 0 ||
          Dot + 1 == Name.size())
        continue;
      int Child = 0;
      bool Numeric = true;
      for (size_t I = Dot + 1; I != Name.size(); ++I) {
        if (Name[I] < '0' || Name[I] > '9') {
          Numeric = false;
          break;
        }
        Child = Child * 10 + (Name[I] - '0');
      }
      if (!Numeric)
        continue;
      Index[std::string(Name.substr(0, Dot))].insert(Child);
    }
    closedir(D);
  }

  bool has(const std::string &Var, int I) const override {
    auto It = Index.find(Var);
    return It != Index.end() && It->second.count(I);
  }
  bool load(const std::string &Var, int I,
            std::vector<uint8_t> &Out) const override {
    if (!has(Var, I))
      return false;
    return readFileBytes(sampleFilePath(Dir, Var, I), Out);
  }

private:
  std::string Dir;
  std::map<std::string, std::set<int>> Index;
};

/// StoreBackend::Shm: index of the region's published slab records,
/// built with one scan when the region barrier resolves. Payload
/// pointers reference the shared mapping (valid for the Runtime's
/// lifetime). Misses fall through to the file reader, which covers the
/// oversized-payload and slab-overflow fallbacks. Slab recycling can
/// retire this view's records after the fact: the reader snapshots the
/// slab epoch at construction, and once the epoch moves on it answers
/// from the file store alone (the documented degradation for views that
/// outlive their region — see DESIGN.md, slab recycling).
class ShmRegionReader : public RegionReader {
public:
  ShmRegionReader(const SharedControl &InCtl, uint64_t Tp, uint64_t Region,
                  size_t SlabStart, int NumSlots, std::string Dir)
      : Ctl(&InCtl), Epoch(InCtl.slabEpoch()), Files(std::move(Dir)) {
    SlabEntryView E;
    for (size_t Idx = SlabStart, End = InCtl.slabAllocated(); Idx != End;
         ++Idx) {
      if (!InCtl.slabEntry(Idx, E))
        continue;
      if (E.Tp != Tp || E.Region != Region || E.Child < 0 ||
          E.Child >= NumSlots)
        continue;
      // Map overwrite = last commit wins, matching the file backend.
      Entries[std::string(E.Name)][E.Child] = {E.Data, E.Size};
    }
  }

  bool has(const std::string &Var, int I) const override {
    if (fresh()) {
      auto It = Entries.find(Var);
      if (It != Entries.end() && It->second.count(I))
        return true;
    }
    return Files.has(Var, I);
  }
  bool load(const std::string &Var, int I,
            std::vector<uint8_t> &Out) const override {
    if (fresh()) {
      auto It = Entries.find(Var);
      if (It != Entries.end()) {
        auto Jt = It->second.find(I);
        if (Jt != It->second.end()) {
          Out.assign(Jt->second.first, Jt->second.first + Jt->second.second);
          return true;
        }
      }
    }
    return Files.load(Var, I, Out);
  }

private:
  /// The cached payload pointers are valid only while the slab epoch they
  /// were scanned under is still current; slabRecycle() invalidates them
  /// wholesale by bumping the epoch.
  bool fresh() const { return Ctl->slabEpoch() == Epoch; }

  const SharedControl *Ctl;
  uint64_t Epoch;
  std::map<std::string, std::map<int, std::pair<const uint8_t *, uint32_t>>>
      Entries;
  FileRegionReader Files;
};

} // namespace

//===----------------------------------------------------------------------===//
// AggregationView
//===----------------------------------------------------------------------===//

int AggregationView::countStatus(SampleStatus S) const {
  int N = 0;
  for (const SampleRecord &R : Records)
    N += R.Status == S;
  return N;
}

std::vector<int> AggregationView::committed(const std::string &Var) const {
  // The status table answers "did child I commit?" without touching the
  // store backend; the presence check then only runs for Committed
  // children (distinguishing the aggregate() variable from commitExtra()
  // variables a given child may not have written).
  std::vector<int> Out;
  for (int I = 0, E = spawned(); I != E; ++I)
    if (Records[I].Status == SampleStatus::Committed && Store->has(Var, I))
      Out.push_back(I);
  return Out;
}

bool AggregationView::loadBytes(const std::string &Var, int I,
                                std::vector<uint8_t> &Out) const {
  return Store->load(Var, I, Out);
}

double AggregationView::loadDouble(const std::string &Var, int I,
                                   double Default) const {
  std::vector<uint8_t> Bytes;
  if (!loadBytes(Var, I, Bytes))
    return Default;
  return decodeDouble(Bytes, Default);
}

std::vector<double> AggregationView::loadDoubles(const std::string &Var,
                                                 int I) const {
  std::vector<uint8_t> Bytes;
  if (!loadBytes(Var, I, Bytes))
    return {};
  return decodeVector<double>(Bytes);
}

std::vector<uint8_t> AggregationView::loadMask(const std::string &Var,
                                               int I) const {
  std::vector<uint8_t> Bytes;
  if (!loadBytes(Var, I, Bytes))
    return {};
  return decodeVector<uint8_t>(Bytes);
}

//===----------------------------------------------------------------------===//
// Runtime
//===----------------------------------------------------------------------===//

Runtime &Runtime::get() {
  static Runtime Instance;
  return Instance;
}

void Runtime::init(const RuntimeOptions &InOpts) {
  assert(!Inited && "proc runtime initialized twice");
  Opts = InOpts;

  // Arm fault injection before the first wrapped syscall, so init's own
  // mkdtemp/mkdir calls are injectable. A malformed plan is a hard
  // error: silently running without the requested faults would make a
  // soak run vacuously green.
  std::string PlanText = Opts.InjectPlan;
  if (PlanText.empty()) {
    const char *Env = getenv("WBT_INJECT");
    if (Env && *Env)
      PlanText = Env;
  }
  if (!PlanText.empty()) {
    std::string Err;
    if (!inject::armText(PlanText, Err))
      sys::fatal("bad WBT_INJECT plan: %s", Err.c_str());
  } else {
    inject::disarm();
  }

  // Run-directory failures here were previously assert()s, which
  // compile out under NDEBUG and let execution continue with a garbage
  // RunDir; every store write of the run then lands nowhere. Fail
  // loudly in all build types instead.
  if (Opts.RunDir.empty()) {
    // Respect TMPDIR like the mktemp(3) family does; /tmp is the
    // fallback, not the policy.
    const char *Tmp = getenv("TMPDIR");
    std::string Templ =
        std::string(Tmp && *Tmp ? Tmp : "/tmp") + "/wbtuner.XXXXXX";
    std::vector<char> Buf(Templ.begin(), Templ.end());
    Buf.push_back('\0');
    char *Dir = sys::makeTempDir(Buf.data());
    if (!Dir)
      sys::fatal("mkdtemp %s failed: %s", Templ.c_str(),
                 std::strerror(errno));
    Opts.RunDir = Dir;
  } else if (!makeDir(Opts.RunDir)) {
    sys::fatal("cannot create run directory %s: %s", Opts.RunDir.c_str(),
               std::strerror(errno));
  }
  if (!makeDir(Opts.RunDir + "/exposed"))
    sys::fatal("cannot create exposed store %s/exposed: %s",
               Opts.RunDir.c_str(), std::strerror(errno));

  // Tracing is opt-in: RuntimeOptions::TracePath, or WBT_TRACE for runs
  // that cannot change code. Off means the ring is not even mapped and
  // every tracepoint is one predictable untaken branch.
  TracePathEff = Opts.TracePath;
  if (TracePathEff.empty()) {
    const char *Env = getenv("WBT_TRACE");
    if (Env && *Env)
      TracePathEff = Env;
  }
  TraceOn = !TracePathEff.empty();

  Ctl = std::make_unique<SharedControl>();
  SlabConfig Slab;
  if (Opts.Backend == StoreBackend::Shm) {
    Slab.Records = Opts.ShmSlabRecords;
    Slab.ArenaBytes = Opts.ShmSlabBytes;
  } else {
    Slab.Records = 0; // Files backend: no slab at all
    Slab.ArenaBytes = 0;
  }
  TraceConfig Trace;
  Trace.Records = TraceOn ? Opts.TraceRingRecords : 0;
  Ctl->init(Opts.MaxPool, Opts.UseScheduler, Slab, Trace);

  Inited = true;
  IsRoot = true;
  Mode = ModeKind::Tuning;
  TpId = 0;
  TpDir = Opts.RunDir + "/tp0";
  if (!makeDir(TpDir))
    sys::fatal("cannot create tuning-process directory %s: %s",
               TpDir.c_str(), std::strerror(errno));
  TheRng = Rng(mixSeed(Opts.Seed, 0));
  // Reset per-run state so a root that called finish() can init() again
  // in the same process (backend equivalence tests, benchmarks).
  resetTuningState();
  NetServer.reset();
  NetAgentMode = false;
  AgentVars.clear();
  AgentCommitted = false;
  // Distributed sampling: open the lease server now so its port exists
  // before any region; the agent processes themselves are forked lazily
  // at the first worker-pool region (so the region body is part of the
  // forked image). A listen failure is not fatal — the run degrades to
  // local-only sampling.
  if (Opts.NetAgents > 0) {
    net::LeaseServer::Callbacks CB;
    CB.Claim = [this] { return netClaimLease(); };
    CB.Commit = [this](const net::LeaseResult &R) { netApplyCommit(R); };
    CB.Return = [this](int64_t Lease) { return netReturnLease(Lease); };
    CB.Trace = [this](obs::EventKind Kind, uint64_t A, uint64_t B) {
      traceEmit(Kind, A, B);
    };
    CB.TraceSink = [this](std::vector<obs::TraceEvent> &&Evs) {
      // Agent trace batches arrive already rebased onto our clock; merge
      // them straight into the root's drained-event pool for export.
      if (TraceOn)
        TraceBuf.insert(TraceBuf.end(), Evs.begin(), Evs.end());
    };
    auto Srv = std::make_unique<net::LeaseServer>(std::move(CB));
    if (Srv->listen(Opts.NetListenAddress))
      NetServer = std::move(Srv);
    else
      std::fprintf(stderr,
                   "wbtuner: lease server cannot listen on %s: %s; "
                   "running local-only\n",
                   Opts.NetListenAddress.c_str(), std::strerror(errno));
  }
  // Live telemetry plane: the scrape endpoint shares the supervisor's
  // poll cadence (no thread of its own). The address comes from the
  // option or, when unset, the WBT_METRICS environment knob; a listen
  // failure degrades to running without a scrape surface, like the
  // lease server above.
  MetricsEp.reset();
  AgentTraceBuf.clear();
  RegionT0 = 0;
  {
    std::string MAddr = Opts.MetricsAddress;
    if (MAddr.empty()) {
      if (const char *Env = std::getenv("WBT_METRICS"))
        MAddr = Env;
    }
    if (!MAddr.empty()) {
      auto Ep = std::make_unique<net::MetricsEndpoint>([this] {
        // Serve the seqlock-published page so a scrape never races the
        // live counters; before the first publish, render live metrics.
        obs::RuntimeMetrics M;
        if (!Ctl || !Ctl->readMetricsSnapshot(M))
          M = metrics();
        std::string Out;
        obs::writeExpositionText(Out, M);
        return Out;
      });
      if (Ep->listen(MAddr))
        MetricsEp = std::move(Ep);
      else
        std::fprintf(stderr,
                     "wbtuner: metrics endpoint cannot listen on %s: %s; "
                     "running without scrape surface\n",
                     MAddr.c_str(), std::strerror(errno));
    }
  }
  InitTime = monoNow();
  // The root tuning process occupies a pool slot like any other process;
  // a fresh pool always admits it, so one attempt that never waits.
  Ctl->acquireSlotTimed(/*IsTuning=*/true, /*TimeoutMs=*/0);
  // Seed the metrics page so the very first scrape sees a snapshot.
  publishTelemetry();
}

void Runtime::finish() {
  assert(Inited && "finish() before init()");
  assert(isTuning() && "sampling processes terminate in aggregate()");
  // Nothing below forks, so the pool slot goes back first: a split
  // descendant's own split() may need it at the tuning gate, and on a
  // small pool only this slot can let it through.
  if (IsRoot || SplitSelf->SlotHeld.exchange(0, std::memory_order_acq_rel) == 1)
    Ctl->releaseSlot();
  // Reap our own split children; their finish() already waited for
  // theirs, so this transitively covers all descendants.
  reapSplitChildren(/*Block=*/true);
  if (IsRoot) {
    // Retire the sampling agents before the all-descendants wait: they
    // hold no pool slot or live-tuning-process count, so nothing below
    // would ever reap them.
    shutdownNetAgents();
    while (!Ctl->waitLiveTuningProcessesTimed(1, 100)) {
    }
    // Every descendant is gone: take the final drain (skipping cells a
    // killed writer left unpublished), merge @split fragments, and write
    // the Chrome trace before the run directory disappears.
    if (TraceOn) {
      drainTraceEvents(/*Final=*/true);
      exportTrace();
    }
    if (!Opts.KeepFiles)
      removeTree(Opts.RunDir);
    MetricsEp.reset();
    Inited = false;
    Ctl.reset();
    inject::disarm();
    return;
  }
  // A @split tuning process parks its drained events as a binary
  // fragment for the root to merge. No skip-drain here: other tuning
  // processes' children may still be writing.
  if (TraceOn) {
    drainTraceEvents(/*Final=*/false);
    writeTraceFragmentFile();
  }
  if (SplitSelf->Live.exchange(0, std::memory_order_acq_rel) == 1)
    Ctl->tuningProcessExited();
}

void Runtime::finishAndExit() {
  finish();
  std::fflush(nullptr); // _exit(2) skips stdio teardown
  _exit(0);
}

/// Reaps this tuning process' @split children: every one, waiting for
/// it, when \p Block (finish()), else those already gone (the split()
/// gate). A split child that died before its own finish() was through
/// left its pool slot, its live-tuning-process count, or both, behind;
/// whatever its cell says it still held is reclaimed on its behalf, or
/// the root would hang in finish() and a later split() would starve at
/// the gate.
void Runtime::reapSplitChildren(bool Block) {
  for (size_t I = 0; I != SplitChildren.size();) {
    auto [Pid, Cell] = SplitChildren[I];
    int St = 0;
    // sys::waitPid retries EINTR internally, so an interrupted wait never
    // reads as "child handled", which would skip both the reap and the
    // reclamation below.
    pid_t Got = sys::waitPid(Pid, &St, Block ? 0 : WNOHANG);
    if (Got == 0) {
      ++I;
      continue;
    }
    bool Slot = Cell->SlotHeld.exchange(0, std::memory_order_acq_rel) == 1;
    bool Live = Cell->Live.exchange(0, std::memory_order_acq_rel) == 1;
    if (Slot || Live)
      std::fprintf(stderr,
                   "wbtuner: split tuning process %d died before finish() "
                   "(status 0x%x); reclaiming its accounting\n",
                   static_cast<int>(Pid), St);
    if (Slot)
      Ctl->releaseSlot();
    if (Live)
      Ctl->tuningProcessExited();
    munmap(Cell, sizeof(SplitCell));
    SplitChildren.erase(SplitChildren.begin() + static_cast<ptrdiff_t>(I));
  }
}

std::string Runtime::regionDir(uint64_t Region) const {
  return TpDir + "/r" + std::to_string(Region);
}

void Runtime::resetTuningState() {
  RegionCounter = 0;
  RegionActive = false;
  SplitChildren.clear();
  Reaped.clear();
  NumSpares = 0;
  RegionDirPath.clear();
  RegionSlabStart = 0;
  RegionShmStart = 0;
  std::fill(std::begin(RegionFallbackStart), std::end(RegionFallbackStart),
            0);
  FoldScalars.clear();
  FoldVotes.clear();
  FoldMeanVecs.clear();
  FoldedPairs.clear();
  LeaseIndex = -1;
  RespawnsUsed = 0;
  RegionBody = nullptr;
  PoolWorker = false;
  WorkerIndex = -1;
  NetAgentPids.clear();
  NetSpawned = false;
  TraceBuf.clear();
}

void Runtime::exitChild() {
  // Controlled exit of a sampling process. A fork child first gives up
  // its lease (a pool worker gave up its last one in runOneLease()):
  // from here on no deadline kill can pick it, so it never holds one of
  // the shared locks below when a SIGKILL lands. Then it leaves the
  // region barrier so a pending @sync cannot deadlock, and returns the
  // pool slot; the exchange flags hand that cleanup to the supervisor if
  // it dies first. _exit(2) skips stdio teardown, so flush what the user
  // printed first.
  if (!PoolWorker)
    dropLeaseMark(ChildIndex);
  traceEmit(PoolWorker ? obs::EventKind::WorkerEnd
                       : obs::EventKind::SampleEnd,
            RegionCounter,
            static_cast<uint64_t>(PoolWorker ? WorkerIndex : ChildIndex));
  std::fflush(nullptr);
  ChildSlot &S = slotsOf(Table)[WorkerIndex];
  S.Exiting.store(1, std::memory_order_release);
  if (S.BarrierLeft.exchange(1, std::memory_order_acq_rel) == 0)
    Table->Barrier.leave();
  if (S.SlotHeld.exchange(0, std::memory_order_acq_rel) == 1)
    Ctl->releaseSlot();
  Ctl->childEventNotify();
  _exit(0);
}

void Runtime::parkAsSpare(int Idx) {
  ChildSlot &S = slotsOf(Table)[Idx];
  // Give the pool slot back while parked; re-acquire on activation.
  if (S.SlotHeld.exchange(0, std::memory_order_acq_rel) == 1)
    Ctl->releaseSlot();
  int32_t Cmd = SpPark;
  pthread_mutex_lock(&Table->ParkLock.Mutex);
  while ((Cmd = S.Command.load(std::memory_order_relaxed)) == SpPark)
    pthread_cond_wait(&Table->ParkLock.Cond, &Table->ParkLock.Mutex);
  pthread_mutex_unlock(&Table->ParkLock.Mutex);
  if (Cmd == SpDiscard) {
    std::fflush(nullptr);
    _exit(0);
  }
  // Activated: claim the lease the way a pool worker back from the claim
  // gate does — publish it in CurrentLease, then, once it holds a real
  // sampling slot, move it from Pending to Claimed. A lease the region
  // deadline retired meanwhile, even while it waits for the slot, is not
  // ours to run. The body then runs with the fresh RNG stream this index
  // was seeded with.
  S.CurrentLease.store(Idx, std::memory_order_release);
  if (!pollForSlot(/*WhilePending=*/Idx))
    exitChild();
  S.SlotHeld.store(1, std::memory_order_release);
  traceEmit(obs::EventKind::SchedAdmit, 0, static_cast<uint64_t>(Idx));
  int32_t Expect = LsPending;
  if (!leasesOf(Table)[Idx].State.compare_exchange_strong(
          Expect, LsClaimed, std::memory_order_acq_rel))
    exitChild();
}

bool Runtime::pollForSlot(int WhilePending) {
  // Poll rather than wait on the pool's process-shared condvar: glibc's
  // condvar counts each waiter in, and one that dies mid-wait is never
  // counted out, so the next broadcast — every releaseSlot() of every
  // process — blocks forever. Uncontended, the first attempt succeeds.
  while (!Ctl->acquireSlotTimed(/*IsTuning=*/false, /*TimeoutMs=*/0)) {
    if (WhilePending >= 0 &&
        leasesOf(Table)[WhilePending].State.load(std::memory_order_acquire) !=
            LsPending)
      return false;
    usleep(1000);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Supervisor internals (tuning side)
//===----------------------------------------------------------------------===//

bool Runtime::regionDeadlinePassed() const {
  return RegionHasDeadline && monoNow() > RegionDeadline;
}

/// Reaps child \p Idx if it has exited, reclaims whatever it still owned,
/// and settles the lease it held. Returns true if newly reaped.
bool Runtime::reapOne(int Idx, bool Block) {
  ChildSlot &S = slotsOf(Table)[Idx];
  pid_t Pid = S.Pid.load(std::memory_order_relaxed);
  if (Reaped[Idx] || Pid <= 0)
    return false;
  int St = 0;
  // EINTR retries live inside sys::waitPid: an interrupted *blocking*
  // wait here used to read as "child not exited", so the exiting-child
  // fast path re-armed a full event-wait timeout — and the child's
  // lease/slot reclamation was deferred a sweep.
  if (sys::waitPid(Pid, &St, Block ? 0 : WNOHANG) != Pid)
    return false;
  Reaped[Idx] = true;

  // Reclaim the pool slot and barrier membership the child still owned.
  // Exchange semantics make this a no-op for children that cleaned up
  // themselves in exitChild().
  if (S.SlotHeld.exchange(0, std::memory_order_acq_rel) == 1)
    Ctl->releaseSlot();
  if (S.BarrierLeft.exchange(1, std::memory_order_acq_rel) == 0)
    Table->Barrier.reclaimDead(&S.InBarrier);
  // A holder still naming its lease died mid-body (or under a deadline
  // kill mark). A clean exit there is a voluntary prune; any other death
  // goes through the retry rule, timed out if it was a deadline kill. A
  // lease still Pending lost its claimant between the mark and the
  // Claimed CAS; no one else can claim it.
  int32_t Lease = S.CurrentLease.exchange(-1, std::memory_order_acq_rel);
  bool Killed = Lease <= -2;
  if (Killed)
    Lease = killMark(Lease);
  bool CleanExit = WIFEXITED(St) && WEXITSTATUS(St) == 0;
  if (!CleanExit && !Killed)
    Ctl->noteCrash();
  if (Lease < 0 || Lease >= Table->NumLeases)
    return true;
  LeaseCell &L = leasesOf(Table)[Lease];
  int32_t From = L.State.load(std::memory_order_acquire) == LsPending
                     ? LsPending
                     : LsClaimed;
  if (CleanExit && !Killed)
    L.State.compare_exchange_strong(From, LsPruned, std::memory_order_acq_rel);
  else
    returnOrRetireLease(Lease, From, Killed,
                        !Killed && WIFSIGNALED(St) ? WTERMSIG(St) : 0);
  return true;
}

/// The one retry rule for an orphaned lease, whose holder died (a local
/// worker or fork child), disconnected (a remote agent), or vanished
/// inside the claim window: move it from state \p From back to the pool
/// for another worker to re-claim, unless it is \p Timed, out of attempts,
/// or has no RegionBody to re-run it (a fork-mode sample) — then retire
/// it as TimedOut or Crashed, recording the holder's \p Signal.
/// Re-running a sample that keeps killing its workers, or that has
/// already blown the region deadline, only wastes the rest of the pool.
/// Returns true when the lease went back to the pool.
bool Runtime::returnOrRetireLease(int Idx, int32_t From, bool Timed,
                                  int32_t Signal) {
  LeaseCell &L = leasesOf(Table)[Idx];
  if (!Timed && RegionBody &&
      L.Attempts.load(std::memory_order_relaxed) < MaxLeaseAttempts) {
    int32_t Expect = From;
    if (!L.State.compare_exchange_strong(Expect, LsReturned,
                                         std::memory_order_acq_rel))
      return false;
    Table->LeasesReturned.fetch_add(1, std::memory_order_release);
    Ctl->noteLeaseReclaim();
    traceEmit(obs::EventKind::LeaseReclaim, static_cast<uint64_t>(Idx));
    return true;
  }
  retireLease(Idx, From, Timed ? LsTimedOut : LsCrashed, Signal);
  return false;
}

/// Moves lease \p Idx from state \p From to the terminal state \p Final
/// unless another party moved it first, recording its holder's
/// \p Signal. Every timed-out sample is counted here. Returns whether the
/// lease moved.
bool Runtime::retireLease(int64_t Idx, int32_t From, int32_t Final,
                          int32_t Signal) {
  LeaseCell &L = leasesOf(Table)[Idx];
  int32_t Expect = From;
  if (!L.State.compare_exchange_strong(Expect, Final,
                                       std::memory_order_acq_rel))
    return false;
  if (From == LsReturned)
    Table->LeasesReturned.fetch_sub(1, std::memory_order_relaxed);
  L.Signal.store(Signal, std::memory_order_relaxed);
  if (Final == LsTimedOut)
    Ctl->noteTimeout();
  return true;
}

/// One WNOHANG pass over every child. Activates retry spares for newly
/// found crashed/timed-out samples when allowed. Returns the number of
/// children the region still has to wait for.
int Runtime::sweepChildren() {
  ChildSlot *Slots = slotsOf(Table);
  bool Pool = Table->PoolMode != 0;
  int Live = 0;
  for (int I = 0, E = Table->NumSlots; I != E; ++I) {
    // Pool mode has no parked spares: every slot with a pid is a worker
    // (initial or respawned) and is supervised.
    if (!Pool && I >= RegionN &&
        Slots[I].Command.load(std::memory_order_relaxed) != SpActivate)
      continue; // parked spares are discarded at region end
    // An Exiting child is inside exitChild() with only _exit(2) left:
    // its wake event fired before the zombie existed, so a WNOHANG pass
    // can miss it and stall a full event-wait timeout. Reaping it
    // blocking is bounded — no user code runs past that point.
    if (!reapOne(I, /*Block=*/Slots[I].Exiting.load(
                     std::memory_order_acquire) == 1)) {
      Live += !Reaped[I] && Slots[I].Pid.load(std::memory_order_relaxed) > 0;
      continue;
    }
    // A spare replaces a failed fork-mode sample (slot I runs lease I).
    // One activated here sits at a higher index, so this pass still
    // visits (and counts) it.
    if (!Pool && !RegionUsedSync) {
      int32_t Ls = leasesOf(Table)[I].State.load(std::memory_order_acquire);
      if (Ls == LsCrashed || Ls == LsTimedOut)
        activateSpare();
    }
  }
  // Fold freshly published slab commits while we are here anyway — this
  // is what makes aggregate() O(1) per sample: by the time the last
  // child exits, nearly everything has already been folded.
  foldSlabCommits();
  // ... and drain the trace ring on the same schedule, so children's
  // events free ring cells while the region is still running.
  drainTraceEvents(/*Final=*/false);
  // ... and refresh the telemetry plane: publish a fresh seqlock
  // snapshot and give the scrape endpoint one non-blocking poll round.
  publishTelemetry();
  return Live;
}

/// Wakes the next parked spare to replace a failed sample: its lease
/// turns Pending, for the spare to claim. Returns false when no spare is
/// left, or the region deadline has passed (a replacement could not run
/// inside it).
bool Runtime::activateSpare() {
  if (regionDeadlinePassed())
    return false;
  ChildSlot *Slots = slotsOf(Table);
  while (NextSpare < NumSpares) {
    int Idx = RegionN + NextSpare++;
    ChildSlot &S = Slots[Idx];
    // A spare the spawn loop has not forked yet is activated all the
    // same: it finds the command set when it parks.
    if (Reaped[Idx])
      continue; // its fork failed, or it died while parked
    // The spare will owe a barrier leave like any live child.
    Table->Barrier.add(+1);
    S.BarrierLeft.store(0, std::memory_order_relaxed);
    leasesOf(Table)[Idx].State.store(LsPending, std::memory_order_release);
    pthread_mutex_lock(&Table->ParkLock.Mutex);
    S.Command.store(SpActivate, std::memory_order_relaxed);
    pthread_cond_broadcast(&Table->ParkLock.Cond);
    pthread_mutex_unlock(&Table->ParkLock.Mutex);
    Ctl->noteRetry();
    traceEmit(obs::EventKind::SpareActivate, static_cast<uint64_t>(Idx));
    return true;
  }
  return false;
}

/// Region deadline enforcement, one rule for both region paths: SIGKILL
/// every process still running a claimed lease of the delivering
/// region's window. Each is claimed first by swapping its CurrentLease
/// for a kill mark while the lease is Claimed, and its slot and barrier
/// share are reclaimed before the kill (claim-then-kill keeps the
/// accounting exact). A holder that ends that lease meanwhile finds the
/// mark when it gives up CurrentLease (dropLeaseMark(), first thing in
/// exitChild() for a fork child) and waits there for the SIGKILL,
/// holding no lock. Processes holding no claimed lease of the window —
/// parked spares, spares and workers waiting for a pool slot, workers at
/// the claim gate or running a later region's lease, children that have
/// committed or wait at a @sync barrier — are not the deadline's
/// business. Returns the number of processes killed.
int Runtime::killStragglers() {
  ChildSlot *Slots = slotsOf(Table);
  int64_t W0 = windowBegin();
  int Killed = 0;
  for (int I = 0, E = Table->NumSlots; I != E; ++I) {
    ChildSlot &S = Slots[I];
    pid_t Pid = S.Pid.load(std::memory_order_relaxed);
    if (Reaped[I] || Pid <= 0)
      continue;
    int32_t Cur = S.CurrentLease.load(std::memory_order_acquire);
    if (Cur < W0 || Cur >= W0 + Table->BatchN ||
        leasesOf(Table)[Cur].State.load(std::memory_order_acquire) !=
            LsClaimed ||
        !S.CurrentLease.compare_exchange_strong(Cur, killMark(Cur),
                                                std::memory_order_acq_rel))
      continue;
    if (S.SlotHeld.exchange(0, std::memory_order_acq_rel) == 1)
      Ctl->releaseSlot();
    if (S.BarrierLeft.exchange(1, std::memory_order_acq_rel) == 0)
      Table->Barrier.reclaimDead(&S.InBarrier);
    traceEmit(obs::EventKind::Kill, static_cast<uint64_t>(I),
              static_cast<uint64_t>(Pid));
    kill(Pid, SIGKILL);
    reapOne(I, /*Block=*/true);
    ++Killed;
  }
  return Killed;
}

/// The deadline step of every tuning-side wait of a live region (the
/// spawn loops, sync() and aggregate()): once the region deadline has
/// passed, retire the delivering window's unclaimed leases — first, so
/// no process can claim one after the kill pass has looked at it — then
/// kill the holders of its claimed ones, and drop the connections of
/// remote agents that still own some. Remotely owned leases retire
/// through the Return callback that dropping the connections runs (the
/// window's past-deadline returns retire, later windows' go back to the
/// pool); the agents reconnect on their own. Returns how many leases,
/// processes and server drops it acted on: 0 means there was nothing
/// left to enforce.
int Runtime::enforceDeadline() {
  if (!regionDeadlinePassed())
    return 0;
  int Acted = markLeasesTimedOut() + killStragglers();
  if (NetServer && NetServer->regionOpen() && NetServer->busy()) {
    NetServer->dropConnections();
    ++Acted;
  }
  return Acted;
}

/// Tells every still-parked spare to exit and reaps it.
void Runtime::discardSpares() {
  if (!NumSpares)
    return;
  ChildSlot *Slots = slotsOf(Table);
  pthread_mutex_lock(&Table->ParkLock.Mutex);
  for (int J = 0; J != NumSpares; ++J) {
    ChildSlot &S = Slots[RegionN + J];
    int32_t Expect = SpPark;
    S.Command.compare_exchange_strong(Expect, SpDiscard,
                                      std::memory_order_relaxed);
  }
  pthread_cond_broadcast(&Table->ParkLock.Cond);
  pthread_mutex_unlock(&Table->ParkLock.Mutex);
  for (int J = 0; J != NumSpares; ++J)
    reapOne(RegionN + J, /*Block=*/true);
}

void Runtime::destroyRegionTable() {
  if (Table) {
    munmap(Table, TableBytes);
    Table = nullptr;
    TableBytes = 0;
  }
}

//===----------------------------------------------------------------------===//
// Incremental folding (tuning side)
//===----------------------------------------------------------------------===//

ScalarAccumulator &Runtime::foldScalar(const std::string &Var) {
  return FoldScalars[Var];
}
VoteAccumulator &Runtime::foldVote(const std::string &Var) {
  return FoldVotes[Var];
}
MeanVectorAccumulator &Runtime::foldMeanVector(const std::string &Var) {
  return FoldMeanVecs[Var];
}

/// Folds one committed payload into every accumulator registered for
/// \p Var, at most once per (Var, Child). Payloads that fail to decode
/// are skipped (the pair is still marked, matching one-shot aggregation
/// over loadDouble()/loadMask()/loadDoubles() defaults).
void Runtime::foldEntryBytes(const std::string &Var, int Child,
                             const uint8_t *Data, size_t Size) {
  std::pair<std::string, int> Key(Var, Child);
  if (FoldedPairs.count(Key))
    return;
  bool Registered = false;
  auto Si = FoldScalars.find(Var);
  if (Si != FoldScalars.end()) {
    ByteReader R(Data, Size);
    double X = R.read<double>();
    if (R.ok())
      Si->second.add(X);
    Registered = true;
  }
  auto Vi = FoldVotes.find(Var);
  if (Vi != FoldVotes.end()) {
    ByteReader R(Data, Size);
    std::vector<uint8_t> Mask = R.readVector<uint8_t>();
    if (R.ok() && !Mask.empty())
      Vi->second.add(Mask);
    Registered = true;
  }
  auto Mi = FoldMeanVecs.find(Var);
  if (Mi != FoldMeanVecs.end()) {
    ByteReader R(Data, Size);
    std::vector<double> Xs = R.readVector<double>();
    if (R.ok() && !Xs.empty())
      Mi->second.add(Xs);
    Registered = true;
  }
  if (Registered) {
    FoldedPairs.insert(std::move(Key));
    traceEmit(obs::EventKind::Fold, static_cast<uint64_t>(Child));
  }
}

/// One pass over the region's slab window, folding every published
/// commit of a sample whose lease has reached Committed. Leases still
/// running are revisited on the next sweep (their commitExtra() records
/// become foldable only once the lease says the run succeeded); crashed
/// or pruned samples are never folded, mirroring committed().
void Runtime::foldSlabCommits() {
  if (!Table ||
      (FoldScalars.empty() && FoldVotes.empty() && FoldMeanVecs.empty()))
    return;
  // Child is the region-local sample index; the lease cell lives at the
  // region's window offset in the flat table.
  LeaseCell *Window = leasesOf(Table) + windowBegin();
  SlabEntryView E;
  for (size_t Idx = RegionSlabStart, End = Ctl->slabAllocated(); Idx != End;
       ++Idx) {
    if (!Ctl->slabEntry(Idx, E))
      continue; // unpublished (in flight, or its writer died mid-commit)
    if (E.Tp != TpId || E.Region != RegionCounter || E.Child < 0 ||
        E.Child >= Table->BatchN)
      continue;
    if (Window[E.Child].State.load(std::memory_order_acquire) != LsCommitted)
      continue;
    foldEntryBytes(std::string(E.Name), E.Child, E.Data, E.Size);
  }
}

/// Folds every registered (Var, Committed child) pair the slab sweeps
/// did not cover: file-fallback commits under Shm, and the entire
/// region under the Files backend.
void Runtime::foldRemaining(
    const RegionReader &Store,
    const std::vector<AggregationView::SampleRecord> &Records) {
  if (FoldScalars.empty() && FoldVotes.empty() && FoldMeanVecs.empty())
    return;
  std::vector<std::string> Vars;
  for (const auto &KV : FoldScalars)
    Vars.push_back(KV.first);
  for (const auto &KV : FoldVotes)
    Vars.push_back(KV.first);
  for (const auto &KV : FoldMeanVecs)
    Vars.push_back(KV.first);
  std::vector<uint8_t> Bytes;
  for (const std::string &Var : Vars) {
    for (size_t I = 0, E = Records.size(); I != E; ++I) {
      int Child = static_cast<int>(I);
      if (Records[I].Status != SampleStatus::Committed)
        continue;
      if (FoldedPairs.count({Var, Child}))
        continue;
      if (!Store.load(Var, Child, Bytes))
        continue;
      foldEntryBytes(Var, Child, Bytes.data(), Bytes.size());
    }
  }
}

std::shared_ptr<const RegionReader> Runtime::makeRegionReader() const {
  // A delivery reads one region's window of BatchN samples (slab records
  // carry region-local child indices).
  if (Opts.Backend == StoreBackend::Shm)
    return std::make_shared<ShmRegionReader>(*Ctl, TpId, RegionCounter,
                                             RegionSlabStart, Table->BatchN,
                                             RegionDirPath);
  return std::make_shared<FileRegionReader>(RegionDirPath);
}

//===----------------------------------------------------------------------===//
// Primitives
//===----------------------------------------------------------------------===//

void Runtime::sampling(int N, const RegionOptions &Ro) {
  assert(Inited && "sampling() before init()");
  assert(N > 0 && "region needs at least one sample");
  // Rule [SAMPLING] only applies in a tuning process; in a sampling
  // process it is a no-op.
  if (isSampling())
    return;
  assert(!RegionActive && "nested @sampling regions are not supported");
  maybeRecycleSlab();
  // Slab entries allocated before this point cannot belong to this
  // region; sweeps scan [RegionSlabStart, slabAllocated()).
  RegionSlabStart = Ctl->slabAllocated();
  beginRegion(RegionCounter + 1, N, Ro);
  NextSpare = 0;
  NumSpares = std::max(0, Ro.MaxRetries);

  // One slot and one lease per sample, the spares' after the mains': a
  // one-region table whose window spans them all. Mains owe a barrier
  // leave; spares stay outside the barrier, and their leases unused,
  // until activated.
  int NumSlots = N + NumSpares;
  mapRegionTable(RegionCounter, 1, NumSlots, NumSlots);
  Table->Barrier.init(N);
  ChildSlot *Slots = slotsOf(Table);
  LeaseCell *Leases = leasesOf(Table);
  for (int I = 0; I != NumSlots; ++I) {
    if (I < N)
      Slots[I].BarrierLeft.store(0, std::memory_order_relaxed);
    else
      Leases[I].State.store(LsUnused, std::memory_order_relaxed);
  }

  for (int I = 0; I != NumSlots; ++I) {
    if (!admitSampler(I, /*UntilDeadline=*/true)) {
      // Nothing is forked past the region deadline: a main sample, or a
      // spare activated before its fork, retires TimedOut, and an idle
      // spare stays unused.
      retireLease(I, LsPending, LsTimedOut, /*Signal=*/0);
      settleUnforked(I);
      continue;
    }
    if (I < N) {
      // A main sample is forked only once its lease is claimed. Before
      // its fork only the deadline step can move it, and then admission
      // fails first.
      int32_t Expect = LsPending;
      [[maybe_unused]] bool Claimed = Leases[I].State.compare_exchange_strong(
          Expect, LsClaimed, std::memory_order_acq_rel);
      assert(Claimed && "an unforked sample's lease moved");
      Slots[I].CurrentLease.store(I, std::memory_order_relaxed);
    }
    pid_t Pid = forkIntoSlot(I);
    if (Pid < 0) {
      // The sample never existed; carry on with the region.
      Leases[I].State.store(LsForkFailed, std::memory_order_relaxed);
      std::fprintf(stderr,
                   "wbtuner: fork failed for sample %d of region %llu "
                   "(tp %llu); skipping it\n",
                   I, static_cast<unsigned long long>(RegionCounter),
                   static_cast<unsigned long long>(TpId));
      continue;
    }
    if (Pid == 0) {
      // Sampling child: it owns the slot just acquired and releases it in
      // exitChild() (or when parking, for spares).
      ChildIndex = I;
      LeaseIndex = I;
      if (inject::armed())
        inject::tagProcess(mixSeed(TpId, (RegionCounter << 20) +
                                             static_cast<uint64_t>(I)));
      TheRng = sampleRng(Opts.Seed, TpId, RegionCounter, I);
      if (I >= N)
        parkAsSpare(I); // returns only if activated as a replacement
      traceEmit(obs::EventKind::SampleBegin, RegionCounter,
                static_cast<uint64_t>(ChildIndex));
      return;
    }
  }
  RegionActive = true;
}

/// Alg. 1: a sampling spawn waits only for a free slot. The wait is
/// supervised like aggregate()'s: between slices it reaps dead children,
/// so their leaked slots cannot starve the spawn loop, and runs the
/// deadline step. With \p UntilDeadline (a fork-mode sample or spare,
/// which has no use past its region's deadline) it gives up once the
/// deadline has passed, whoever holds the slots, so a region whose
/// samples queue here still ends on time. Returns whether it holds a
/// slot.
bool Runtime::admitSampler(int SlotIdx, bool UntilDeadline) {
  while (!(UntilDeadline && regionDeadlinePassed())) {
    if (Ctl->acquireSlotTimed(/*IsTuning=*/false, 50)) {
      traceEmit(obs::EventKind::SchedAdmit, 0, static_cast<uint64_t>(SlotIdx));
      return true;
    }
    traceEmit(obs::EventKind::SchedDefer, 0, static_cast<uint64_t>(SlotIdx));
    sweepChildren();
    enforceDeadline();
  }
  return false;
}

/// Settles child slot \p Idx, whose process never existed (its fork
/// failed, or the region deadline came first) and which holds no pool
/// slot: its barrier share goes back, so a @sync does not wait for it,
/// and the reaper skips it.
void Runtime::settleUnforked(int Idx) {
  if (slotsOf(Table)[Idx].BarrierLeft.exchange(1, std::memory_order_relaxed) ==
      0)
    Table->Barrier.leave();
  Reaped[Idx] = 1;
}

/// Forks the process of child slot \p SlotIdx onto the pool slot the
/// caller was just admitted to (fork-mode samples and pool workers share
/// this path). In the child it returns 0 in sampling mode; in the parent,
/// the pid, once recorded. When fork(2) fails the process never existed:
/// its pool slot and barrier share go back, the failure is counted, and
/// it returns -1.
pid_t Runtime::forkIntoSlot(int SlotIdx) {
  ChildSlot &S = slotsOf(Table)[SlotIdx];
  S.SlotHeld.store(1, std::memory_order_relaxed);
  // Flush stdio before forking so children do not replay the parent's
  // buffered output.
  std::fflush(nullptr);
  double ForkT0 = monoNow();
  pid_t Pid = sys::forkProcess();
  if (Pid < 0) {
    S.SlotHeld.store(0, std::memory_order_relaxed);
    Ctl->releaseSlot();
    Ctl->noteForkFailure();
    settleUnforked(SlotIdx);
    return Pid;
  }
  if (Pid == 0) {
    Mode = ModeKind::Sampling;
    WorkerIndex = SlotIdx;
    RegionActive = true;
    SplitChildren.clear();
    closeInheritedNetFds();
    return 0;
  }
  uint64_t ForkNs = static_cast<uint64_t>((monoNow() - ForkT0) * 1e9);
  Ctl->recordForkLatency(ForkNs);
  traceEmit(obs::EventKind::Fork, static_cast<uint64_t>(Pid), ForkNs);
  S.Pid.store(static_cast<int32_t>(Pid), std::memory_order_relaxed);
  return Pid;
}

/// Maps a region's zero-filled shared table: \p Slots child slots, each
/// holding no lease and owing no barrier leave, then \p Regions * \p N
/// lease cells for regions \p Base onward, each Pending and unattempted.
void Runtime::mapRegionTable(uint64_t Base, int Regions, int N, int Slots) {
  int Leases = Regions * N;
  TableBytes = sizeof(RegionTable) +
               static_cast<size_t>(Slots) * sizeof(ChildSlot) +
               static_cast<size_t>(Leases) * sizeof(LeaseCell);
  void *Mem = sys::mmapShared(TableBytes);
  if (Mem == MAP_FAILED)
    sys::fatal("mmap of region child table (%zu bytes) failed: %s",
               TableBytes, std::strerror(errno));
  static_assert(LsPending == 0, "lease tables rely on the zero-filled mapping");
  Table = static_cast<RegionTable *>(Mem);
  Table->ParkLock.init();
  Table->NumSlots = Slots;
  Table->NumLeases = Leases;
  Table->BatchCount = Regions;
  Table->BatchN = N;
  Table->BatchBase = Base;
  ChildSlot *S = slotsOf(Table);
  for (int I = 0; I != Slots; ++I) {
    S[I].BarrierLeft.store(1, std::memory_order_relaxed);
    S[I].CurrentLease.store(-1, std::memory_order_relaxed);
  }
  Reaped.assign(static_cast<size_t>(Slots), 0);
}

void Runtime::beginRegion(uint64_t Ordinal, int N, const RegionOptions &Ro) {
  RegionCounter = Ordinal;
  // Cache the region directory once; every file commit/load reuses it
  // instead of rebuilding the path strings. The directory itself is
  // created lazily by the first file-fallback commit: pure-shm regions
  // never touch the filesystem at all.
  RegionDirPath = regionDir(Ordinal);
  // Fresh fold state; references returned by foldScalar() & friends for
  // the previous region die here.
  FoldScalars.clear();
  FoldVotes.clear();
  FoldMeanVecs.clear();
  FoldedPairs.clear();
  // Store-counter watermarks: AggregationView reports per-region deltas
  // against these.
  RegionShmStart = Ctl->slabPublishedTotal();
  for (int R = 0; R != obs::NumFallbackReasons; ++R)
    RegionFallbackStart[R] =
        Ctl->slabFallbacks(static_cast<obs::FallbackReason>(R));
  RegionT0 = monoNow();
  double TimeoutSec =
      Ro.TimeoutSec >= 0 ? Ro.TimeoutSec : Opts.SampleTimeoutSec;
  RegionHasDeadline = TimeoutSec > 0;
  RegionDeadline = RegionHasDeadline ? RegionT0 + TimeoutSec : 0;
  RegionN = N;
  RegionKind = Ro.Kind;
  RegionUsedSync = false;
  traceEmit(obs::EventKind::RegionBegin, Ordinal, static_cast<uint64_t>(N));
}

//===----------------------------------------------------------------------===//
// Worker-pool sampling regions
//===----------------------------------------------------------------------===//

/// Forks one pool worker into child-table slot \p SlotIdx (initial spawn
/// and wipe-out respawns share this path). In the child this never
/// returns.
void Runtime::forkPoolWorker(int SlotIdx) {
  admitSampler(SlotIdx, /*UntilDeadline=*/false);
  pid_t Pid = forkIntoSlot(SlotIdx);
  if (Pid < 0) {
    // This worker never existed. Its prospective leases stay with the
    // counter for the other workers.
    std::fprintf(stderr,
                 "wbtuner: fork failed for pool worker %d of region %llu "
                 "(tp %llu); continuing with fewer workers\n",
                 SlotIdx, static_cast<unsigned long long>(RegionCounter),
                 static_cast<unsigned long long>(TpId));
    return;
  }
  if (Pid == 0) {
    PoolWorker = true;
    if (inject::armed())
      inject::tagProcess(mixSeed(TpId, (RegionCounter << 20) + 0xF00D +
                                           static_cast<uint64_t>(SlotIdx)));
    traceEmit(obs::EventKind::WorkerBegin, RegionCounter,
              static_cast<uint64_t>(SlotIdx));
    workerLoop(); // never returns
  }
}

/// Claims one lease without blocking: a lease returned by a dead holder
/// first (the re-run path), else the next counter index below the
/// pipeline's claim limit. Marks it LsClaimed before anyone can look.
/// Returns its index, or -1 when neither is available right now. Local
/// workers and the net lease server's remote claims share it.
///
/// A \p Worker publishes a counter index in its CurrentLease before it
/// marks the lease Claimed, so every Claimed lease of a live worker is
/// visible to the deadline kill, and a worker that dies in between
/// leaves the reaper its still-Pending lease. The mark is a CAS: a
/// lease the supervisor retired before anyone claimed it (a region
/// deadline) is skipped.
int Runtime::tryClaimLease(bool Worker) {
  LeaseCell *Leases = leasesOf(Table);
  int N = Table->NumLeases;
  std::atomic<int32_t> *Mark =
      Worker ? &slotsOf(Table)[WorkerIndex].CurrentLease : nullptr;
  if (Table->LeasesReturned.load(std::memory_order_acquire) > 0) {
    for (int I = 0; I != N; ++I) {
      int32_t Expect = LsReturned;
      if (Leases[I].State.compare_exchange_strong(Expect, LsClaimed,
                                                  std::memory_order_acq_rel)) {
        Table->LeasesReturned.fetch_sub(1, std::memory_order_relaxed);
        if (Mark)
          Mark->store(I, std::memory_order_release);
        return I;
      }
    }
    // Another claimant won every visible return.
  }
  for (;;) {
    int64_t Bound = std::min<int64_t>(
        Table->ClaimLimit.load(std::memory_order_acquire), N);
    int64_t Idx = Table->ClaimNext.load(std::memory_order_relaxed);
    do {
      if (Idx >= Bound)
        return -1;
    } while (!Table->ClaimNext.compare_exchange_weak(
        Idx, Idx + 1, std::memory_order_relaxed));
    if (Mark)
      Mark->store(static_cast<int32_t>(Idx), std::memory_order_release);
    int32_t Expect = LsPending;
    if (Leases[Idx].State.compare_exchange_strong(Expect, LsClaimed,
                                                  std::memory_order_acq_rel))
      return static_cast<int>(Idx);
    if (Mark)
      dropLeaseMark(static_cast<int>(Idx));
  }
}

/// Sampling side: clears CurrentLease once lease \p Idx has ended (or its
/// claim lost to a deadline retirement). If the supervisor swapped in a
/// kill mark first, the SIGKILL is on its way: wait for it here, before
/// the process could take any process-shared lock (the claim gate, the
/// pool slot, the @sync barrier) that a kill must never interrupt.
void Runtime::dropLeaseMark(int Idx) {
  int32_t Expect = Idx;
  if (slotsOf(Table)[WorkerIndex].CurrentLease.compare_exchange_strong(
          Expect, -1, std::memory_order_acq_rel))
    return;
  for (;;)
    pause();
}

int64_t Runtime::windowBegin() const {
  return static_cast<int64_t>(RegionCounter - Table->BatchBase) *
         Table->BatchN;
}

/// Blocking claim of a worker: tryClaimLease(), parking at the pipeline's
/// claim limit. A gated worker parks WITHOUT holding an index — an index
/// claimed before parking belongs to a region whose delivery then stalls
/// until the sleeping holder gets rescheduled (observed as multi-ms
/// pipeline hiccups every K regions on loaded machines, and as outright
/// deadlock when the holder's region also had a returned lease nobody
/// could pick up). Servicing returns while gated keeps a dead worker's
/// lease from wedging the delivery window the supervisor is waiting on.
/// Limit raises broadcast under ParkLock, so the timed wait only pays its
/// 50 ms on a missed reclaim, never as a steady-state cost. Returns -1
/// once the counter is drained and no returned leases remain; a lease
/// returned after that is covered by the supervisor's wipe-out path
/// (settlePoolLeases forks a fresh worker), so exiting is safe.
///
/// A gated worker also parks WITHOUT its pool slot, as a parked spare
/// does, and takes one again before its next claim. Idle workers holding
/// slots deadlocked against a tuning process still forking the rest of
/// its workers (it can only raise the limit after they exist) once a
/// @split sibling's workers had the other slots.
int Runtime::claimLeaseGated() {
  ChildSlot &Me = slotsOf(Table)[WorkerIndex];
  int N = Table->NumLeases;
  for (;;) {
    if (Me.SlotHeld.load(std::memory_order_relaxed) == 0) {
      pollForSlot(/*WhilePending=*/-1);
      Me.SlotHeld.store(1, std::memory_order_release);
    }
    int Idx = tryClaimLease(/*Worker=*/true);
    if (Idx >= 0)
      return Idx;
    if (Table->ClaimNext.load(std::memory_order_acquire) >= N &&
        Table->LeasesReturned.load(std::memory_order_acquire) == 0)
      return -1;
    if (Table->LeasesReturned.load(std::memory_order_acquire) == 0 &&
        Table->ClaimLimit.load(std::memory_order_acquire) <=
            Table->ClaimNext.load(std::memory_order_acquire) &&
        Me.SlotHeld.exchange(0, std::memory_order_acq_rel) == 1)
      Ctl->releaseSlot();
    timespec Deadline = monoDeadlineIn(50);
    pthread_mutex_lock(&Table->ParkLock.Mutex);
    if (Table->LeasesReturned.load(std::memory_order_acquire) == 0 &&
        Table->ClaimLimit.load(std::memory_order_acquire) <=
            Table->ClaimNext.load(std::memory_order_acquire))
      pthread_cond_timedwait(&Table->ParkLock.Cond, &Table->ParkLock.Mutex,
                             &Deadline);
    pthread_mutex_unlock(&Table->ParkLock.Mutex);
  }
}

/// Runs one claimed lease to its terminal state: impersonate the
/// fork-per-sample child of that region and index, run the body, publish
/// the outcome.
void Runtime::runOneLease(int Idx) {
  // Roll into the lease's region: same region identity a worker forked
  // for that region alone would carry. Re-claimed returns can roll
  // backwards into an earlier region; the next counter claim rolls
  // forward again. A one-region batch never rolls.
  int64_t BatchN = Table->BatchN;
  uint64_t Reg = Table->BatchBase + static_cast<uint64_t>(Idx / BatchN);
  if (Reg != RegionCounter) {
    RegionCounter = Reg;
    RegionDirPath = regionDir(RegionCounter);
    RegionN = Table->BatchN;
    traceEmit(obs::EventKind::BatchRoll, RegionCounter,
              static_cast<uint64_t>(Idx));
  }
  LeaseCell &L = leasesOf(Table)[Idx];
  L.Attempts.fetch_add(1, std::memory_order_relaxed);
  // CurrentLease already names this lease (tryClaimLease): if we die in
  // the body, the supervisor reads it to return the lease.
  // ChildIndex is the region-local sample index (what sample() strata
  // and commit records see); LeaseIndex addresses the flat lease table,
  // which spans every region's window.
  int Local = static_cast<int>(Idx % BatchN);
  ChildIndex = Local;
  LeaseIndex = Idx;
  traceEmit(obs::EventKind::LeaseBegin, RegionCounter,
            static_cast<uint64_t>(Idx));
  // The per-index reseed that makes pool draws bitwise-identical to a
  // fork-per-sample child of the same index.
  TheRng = sampleRng(Opts.Seed, TpId, RegionCounter, Local);
  try {
    RegionBody();
    // Returning without reaching aggregate() is a voluntary prune,
    // mirroring a fork-mode child that exits cleanly mid-body.
    int32_t Expect = LsClaimed;
    L.State.compare_exchange_strong(Expect, LsPruned,
                                    std::memory_order_relaxed);
  } catch (const LeaseEnd &) {
    // check() pruned the lease or aggregate() committed it.
  }
  traceEmit(obs::EventKind::LeaseEnd, RegionCounter,
            static_cast<uint64_t>(Idx),
            static_cast<uint16_t>(L.State.load(std::memory_order_relaxed)));
  dropLeaseMark(Idx);
  // One supervisor wakeup per settled region window instead of per
  // lease: each notify costs the supervisor a sleep/wake round trip, and
  // a delivery can only advance when its whole window is terminal
  // anyway. The last finisher of a window is guaranteed to see every
  // cell terminal (the terminal stores above are release, these loads
  // acquire); two leases finishing back-to-back can at worst both
  // notify, which is harmless. The scan runs from the window's end,
  // where the unsettled cells of a window still in progress are.
  LeaseCell *Leases = leasesOf(Table);
  int64_t W0 = (Idx / BatchN) * BatchN;
  for (int64_t I = W0 + BatchN; I-- != W0;) {
    int32_t St = Leases[I].State.load(std::memory_order_acquire);
    if (St == LsPending || St == LsClaimed || St == LsReturned)
      return;
  }
  Ctl->childEventNotify();
}

int Runtime::sampleAttempt() const {
  if (!isSampling() || !PoolWorker || LeaseIndex < 0)
    return 1;
  return static_cast<int>(
      leasesOf(Table)[LeaseIndex].Attempts.load(std::memory_order_relaxed));
}

/// A pool worker's whole life: claim a lease, impersonate the
/// fork-per-sample child of its region and index (same ChildIndex, same
/// RNG stream), run the body, repeat until the batch is drained, exit.
void Runtime::workerLoop() {
  for (int Idx; (Idx = claimLeaseGated()) >= 0;)
    runOneLease(Idx);
  exitChild();
}

/// Live == 0 with the batch not yet drained: decide every open lease's
/// fate. Orphans (claimed by a worker that died, or lost inside the
/// claim window) go through the retry rule, and one replacement worker
/// is forked per pass, bounded by a respawn budget of one per lease; past
/// the budget the stragglers are retired in place, and so are those of
/// the delivering window once its region deadline has passed. Returns
/// true once every lease is terminal.
bool Runtime::settlePoolLeases() {
  LeaseCell *Leases = leasesOf(Table);
  int N = Table->NumLeases;
  int64_t CounterNext = Table->ClaimNext.load(std::memory_order_acquire);
  int64_t W0 = windowBegin();
  bool DeadlinePassed = regionDeadlinePassed();
  bool BudgetLeft = RespawnsUsed < N;
  int Open = 0;
  int RemoteOwned = 0;
  for (int I = 0; I != N; ++I) {
    LeaseCell &L = Leases[I];
    int32_t St = L.State.load(std::memory_order_acquire);
    if (leaseFinal(St))
      continue;
    if (NetServer && NetServer->ownsLease(I)) {
      // Remotely owned by a live agent: not ours to settle. (The busy()
      // gate in aggregate() keeps the normal path from ever reaching
      // this; it guards early-teardown callers.)
      ++RemoteOwned;
      continue;
    }
    bool Expired = DeadlinePassed && I >= W0 && I < W0 + Table->BatchN;
    if (Expired || !BudgetLeft) {
      // No more re-running: retire in place. Never-attempted leases are
      // ForkFailed (no process ever existed to run them) unless the
      // clock, not the pool, is what ran out.
      int32_t Final =
          Expired
              ? LsTimedOut
              : (L.Attempts.load(std::memory_order_relaxed) == 0
                     ? LsForkFailed
                     : LsCrashed);
      retireLease(I, St, Final, /*Signal=*/0);
      continue;
    }
    // A claimed lease's owner is dead (nothing is live); a pending one
    // the counter already passed lost its claimant inside the claim
    // window. Both are orphans. A second-time orphan retires as Crashed.
    if ((St == LsClaimed || (St == LsPending && I < CounterNext)) &&
        !returnOrRetireLease(I, St, /*Timed=*/false, /*Signal=*/0))
      continue;
    ++Open;
  }
  if (Open == 0)
    return RemoteOwned == 0;
  // Fork one replacement worker into a worker slot, which is free: with
  // nothing live, every slot's worker is reaped or was never forked. If
  // its fork fails the budget still shrinks, so this loop terminates.
  int SlotIdx = RespawnsUsed++ % Table->NumSlots;
  ChildSlot &S = slotsOf(Table)[SlotIdx];
  S.Pid.store(0, std::memory_order_relaxed);
  S.Exiting.store(0, std::memory_order_relaxed);
  S.CurrentLease.store(-1, std::memory_order_relaxed);
  Reaped[SlotIdx] = 0;
  Ctl->noteRetry();
  traceEmit(obs::EventKind::Respawn, static_cast<uint64_t>(SlotIdx));
  forkPoolWorker(SlotIdx);
  return false;
}

/// Region deadline: retires the unclaimed leases of the delivering
/// window — Pending ones (the claim's CAS then skips them) and Returned
/// ones — as TimedOut; none of them can run inside the budget. Claimed
/// ones follow when killStragglers() kills their holders. Later regions'
/// leases are untouched: their own deadlines start when they are
/// delivered. Returns how many it retired.
int Runtime::markLeasesTimedOut() {
  int Retired = 0;
  for (int64_t I = windowBegin(), E = I + Table->BatchN; I != E; ++I)
    Retired += retireLease(I, LsPending, LsTimedOut, /*Signal=*/0) ||
               retireLease(I, LsReturned, LsTimedOut, /*Signal=*/0);
  return Retired;
}

/// Maps the child table and flat lease table of a batch and forks its
/// \p W workers: one slot per worker, then the lease cells. (A respawn
/// after every worker died reuses a reaped worker's slot.) Forked
/// children enter workerLoop() inside forkPoolWorker() and never return,
/// so past this call we are always the tuning process. \p ClaimInit
/// seeds the pipeline's claim limit.
void Runtime::openLeaseTable(uint64_t Base, int Regions, int N, int W,
                             int64_t ClaimInit) {
  mapRegionTable(Base, Regions, N, W);
  Table->PoolMode = 1;
  Table->ClaimLimit.store(ClaimInit, std::memory_order_release);
  // Workers run their leases at different times, so a pool region has no
  // @sync barrier: its Barrier stays uninitialised, and no worker owes it
  // a leave.
  for (int I = 0; I != W; ++I)
    forkPoolWorker(I);
}

/// Raises the pipeline's claim limit and wakes workers parked on it.
/// Shares ParkLock with spare parking — both are rare, coarse wakeups.
void Runtime::advanceClaimLimit(int64_t NewLimit) {
  if (!Table || Table->ClaimLimit.load(std::memory_order_acquire) >= NewLimit)
    return;
  pthread_mutex_lock(&Table->ParkLock.Mutex);
  Table->ClaimLimit.store(NewLimit, std::memory_order_release);
  pthread_cond_broadcast(&Table->ParkLock.Cond);
  pthread_mutex_unlock(&Table->ParkLock.Mutex);
}

/// Epoch-based slab recycling: between regions, when this is the sole
/// live tuning process (no @split siblings, no sampling children — so
/// structurally nobody can be mid-commit or mid-scan) and the slab is
/// at least half full, retire every published record and reset the bump
/// allocators. Long runs then reuse the same slab instead of degrading
/// to Exhausted file fallbacks once the cumulative commit volume passes
/// the slab's capacity.
bool Runtime::maybeRecycleSlab() {
  if (Opts.Backend != StoreBackend::Shm || !IsRoot || RegionActive)
    return false;
  if (Ctl->liveTuningProcesses() != 1 || !Ctl->slabNeedsRecycle())
    return false;
  uint64_t Retired = Ctl->slabAllocated();
  Ctl->slabRecycle();
  traceEmit(obs::EventKind::SlabRecycle, Ctl->slabEpoch(), Retired);
  return true;
}

void Runtime::regionBatch(int Regions, int N, const RegionOptions &Ro,
                          const std::function<void()> &Body) {
  assert(Inited && "regionBatch() before init()");
  assert(Regions > 0 && N > 0 && "batch needs regions and samples");
  assert(Body && "regionBatch() needs a body callback");
  // Rule [SAMPLING] only applies in a tuning process; a sampling process
  // (fork-mode child or pool worker) must not open nested regions.
  if (isSampling())
    return;
  assert(!RegionActive && "nested @sampling regions are not supported");
  maybeRecycleSlab();

  int64_t Total = static_cast<int64_t>(Regions) * N;
  uint64_t Base = RegionCounter + 1;
  // One slab watermark for every delivery: by the time region R is
  // delivered, commits of regions > R may already be published; each
  // delivery rescans the batch window and folds only its own region's
  // records (the E.Region filter).
  RegionSlabStart = Ctl->slabAllocated();
  // A lone region traces as a plain region; only a real batch gets a
  // span around its regions.
  if (Regions > 1)
    traceEmit(obs::EventKind::BatchBegin, Base,
              static_cast<uint64_t>(Regions));
  // The first region opens before its workers do, so its store-counter
  // window and its latency cover their whole run.
  beginRegion(Base, N, Ro);
  NumSpares = 0; // lease retry replaces spare-based retry
  NextSpare = 0;
  RegionBody = Body;
  RespawnsUsed = 0;

  // The tuning process holds a pool slot of its own, so W == maxPool
  // would deadlock the spawn loop.
  int MaxWorkers = std::max(1, static_cast<int>(Ctl->maxPool()) - 1);
  int W = Ro.Workers > 0 ? Ro.Workers : MaxWorkers;
  W = static_cast<int>(
      std::max<int64_t>(1, std::min<int64_t>({W, MaxWorkers, Total})));
  // Workers may claim leases up to K regions ahead of the oldest
  // undelivered one; each completed delivery slides the window forward.
  int64_t K = std::max(1, std::min(Ro.Pipeline, Regions));

  // Distributed agents fork here, lazily, at the first pool region: the
  // region body must already be part of their image.
  if (NetServer)
    spawnNetAgents();
  openLeaseTable(Base, Regions, N, W, std::min(Total, K * N));
  // One lease window spans the whole batch, mirroring the local claim
  // counter: agents roll across regions without a round-trip per region.
  netOpenRegion();

  // Deliver each region in submission order. The body runs with exactly
  // the region identity sequential regions would give it; its
  // aggregate() call waits only for this region's lease window, except
  // the last delivery's, which also waits for the workers to exit.
  uint64_t Opener = TpId;
  for (int R = 0; R != Regions; ++R) {
    if (R)
      beginRegion(Base + static_cast<uint64_t>(R), N, Ro);
    RegionActive = true;
    Body();
    assert(!RegionActive && "regionBatch() body must call aggregate()");
    if (TpId != Opener) {
      // A @split child forked inside this delivery's callback. The
      // table, workers and slots stay with the parent (split() dropped
      // them); like a split child of sequential regions, it runs the
      // remaining regions itself.
      if (R + 1 != Regions)
        regionBatch(Regions - R - 1, N, Ro, Body);
      return;
    }
    // With one region in flight, every worker waits at the gate until
    // the limit below rises and no commit is in progress, so the slab
    // may recycle here just as between separate regions.
    if (K == 1 && R + 1 != Regions && maybeRecycleSlab())
      RegionSlabStart = Ctl->slabAllocated();
    advanceClaimLimit(std::min(Total, (R + 1 + K) * N));
  }
  if (Regions > 1)
    traceEmit(obs::EventKind::BatchEnd, Base, static_cast<uint64_t>(Regions));

  destroyRegionTable();
  RegionBody = nullptr;
}

//===----------------------------------------------------------------------===//
// Distributed sampling agents
//===----------------------------------------------------------------------===//

/// Forked children must not keep dup'd copies of the server's sockets:
/// a connection the server closes would otherwise never read as EOF to
/// its agent. closeAll() runs no lease-state callbacks, so this is safe
/// in any child.
void Runtime::closeInheritedNetFds() {
  if (NetServer) {
    NetServer->closeAll();
    NetServer.reset();
  }
  // Same for the scrape endpoint: only the root answers scrapes; a child
  // holding a dup of the listen fd would keep the port alive after the
  // root is gone.
  if (MetricsEp) {
    MetricsEp->closeAll();
    MetricsEp.reset();
  }
}

/// Forks the agent processes, once, at the first pool region, so the
/// region body is part of their image: they run that closure for every
/// lease they are granted, and netOpenRegion() grants them none of a
/// region whose body differs. Agents take no pool slot (they stand in
/// for remote machines, which would not share this host's pool either).
void Runtime::spawnNetAgents() {
  if (NetSpawned || !NetServer)
    return;
  NetSpawned = true;
  AgentBodyType = &RegionBody.target_type();
  void (*const *Fn)() = RegionBody.target<void (*)()>();
  AgentBodyFn = Fn ? *Fn : nullptr;
  AgentBodyWarned = false;
  uint16_t Port = NetServer->port();
  for (unsigned I = 0; I != Opts.NetAgents; ++I) {
    std::fflush(nullptr);
    pid_t Pid = sys::forkProcess();
    if (Pid < 0) {
      Ctl->noteForkFailure();
      std::fprintf(stderr,
                   "wbtuner: fork failed for sampling agent %u: %s; "
                   "continuing with fewer agents\n",
                   I + 1, std::strerror(errno));
      continue;
    }
    if (Pid == 0)
      netAgentLoop(I + 1, Port); // never returns
    NetAgentPids.push_back(Pid);
  }
}

/// Root finish(): best-effort Shutdown broadcast (an idle agent exits
/// cleanly), then SIGKILL + reap — an agent mid-lease runs no cleanup
/// worth waiting for, and it never holds a process-shared lock.
void Runtime::shutdownNetAgents() {
  if (NetServer) {
    NetServer->broadcastShutdown();
    // Up to two short pump rounds give in-flight TraceFrame batches a
    // bounded window to land before the kill, and stop as soon as every
    // agent's EOF has closed its connection; a half-sent frame from a
    // killed agent is discarded by the frame buffer as usual.
    for (int Round = 0; Round != 2 && NetServer->connections() != 0; ++Round)
      NetServer->pump(10);
  }
  for (pid_t Pid : NetAgentPids) {
    kill(Pid, SIGKILL);
    int St = 0;
    sys::waitPid(Pid, &St, 0);
  }
  NetAgentPids.clear();
  NetSpawned = false;
  NetServer.reset();
}

/// Opens the server's lease window over the batch's whole flat lease
/// space, so idle agents are granted leases from the next pump on. Each
/// grant carries everything an agent needs to impersonate a local
/// worker: batch geometry for the lease→region mapping and the sampling
/// kind for stratified draws. A region whose body is not the one the
/// agents were forked with opens no window: its leases run on the local
/// workers, since the agents would run their own body on them.
void Runtime::netOpenRegion() {
  if (!NetServer || !Table || !Table->PoolMode)
    return;
  void (*const *Fn)() = RegionBody.target<void (*)()>();
  if (RegionBody.target_type() != *AgentBodyType ||
      (Fn && *Fn != AgentBodyFn)) {
    if (!AgentBodyWarned)
      std::fprintf(stderr,
                   "wbtuner: region %llu passes a body other than the one "
                   "the sampling agents were forked with; its leases, and "
                   "those of every such region, run on local workers only\n",
                   static_cast<unsigned long long>(Table->BatchBase));
    AgentBodyWarned = true;
    return;
  }
  NetServer->openRegion(TpId, Table->BatchBase,
                        static_cast<uint32_t>(Table->BatchN),
                        static_cast<uint32_t>(RegionKind));
}

void Runtime::netCloseRegion() {
  if (NetServer)
    NetServer->closeRegion();
}

/// Server callback: claim one lease for an idle agent, so agents and
/// local workers self-schedule lease by lease and no one sits on a chunk
/// while the others go idle. It is the local workers' claim
/// (tryClaimLease: returned leases first, then the bounded shared
/// counter), marked LsClaimed here, in the tuning process. A grant is a
/// reservation, not a run: it charges no attempt, because a disconnect
/// hands the lease back whether or not it ran, and the server cannot
/// tell. So a lease lost in transit is re-run however often its agents
/// drop; the retry limit guards against samples that kill their local
/// workers.
int64_t Runtime::netClaimLease() {
  if (!Table || !Table->PoolMode)
    return -1;
  return tryClaimLease(/*Worker=*/false);
}

/// Server callback: apply one remotely run lease's result. The state CAS
/// comes FIRST: a lease the supervisor already retired (deadline settle)
/// must not land its payload — exactly-once means a late result is
/// dropped whole, leaving no trace in the store.
void Runtime::netApplyCommit(const net::LeaseResult &R) {
  if (!Table || !Table->PoolMode || R.Lease < 0 ||
      R.Lease >= Table->NumLeases)
    return;
  LeaseCell &L = leasesOf(Table)[R.Lease];
  bool Committed = R.Outcome == net::LeaseOutcome::Committed;
  int32_t Expect = LsClaimed;
  if (!L.State.compare_exchange_strong(Expect,
                                       Committed ? LsCommitted : LsPruned,
                                       std::memory_order_acq_rel))
    return;
  if (!Committed)
    return;
  // Lease → (region, local sample index), same mapping the folding
  // sweep uses.
  uint64_t Reg = Table->BatchBase + static_cast<uint64_t>(R.Lease) /
                                        static_cast<uint64_t>(Table->BatchN);
  int Child = static_cast<int>(R.Lease % Table->BatchN);
  // The sampling side's routing, so a remote commit's stored bytes are
  // identical to a local one's.
  for (const net::CommitVar &V : R.Vars)
    storeCommit(Reg, Child, V.Name, V.Bytes);
}

/// Server callback: a disconnected agent's still-owned lease goes
/// through the same retry rule that covers crashed local workers, timed
/// out if it belongs to the delivering window past its region deadline.
bool Runtime::netReturnLease(int64_t Lease) {
  if (!Table || !Table->PoolMode || Lease < 0 || Lease >= Table->NumLeases)
    return false;
  int64_t W0 = windowBegin();
  bool Timed = regionDeadlinePassed() && Lease >= W0 &&
               Lease < W0 + Table->BatchN;
  return returnOrRetireLease(static_cast<int>(Lease), LsClaimed, Timed,
                             /*Signal=*/0);
}

/// An agent's whole life: connect, Hello, then answer the server's
/// frames until Shutdown. It never asks for work: on a Grant it runs the
/// lease and sends its Commit, which tells the server it is idle again;
/// on a RegionClose it acks with a TraceFrame, empty or not, since the
/// server's close harvest waits for one per live agent. The agent never
/// touches the lease table, the slab, or the pool gate — and it does not
/// even use the inherited trace ring: a real remote agent would have no
/// shared mapping at all, so its events buffer locally (traceEmitSlow)
/// and travel as TraceFrame batches on the lease connection. Any socket
/// failure (injected partitions and torn frames included) resets to a
/// clean reconnect; the lease it had been granted has already been
/// handed back by the server's disconnect path.
void Runtime::netAgentLoop(uint32_t AgentId, uint16_t Port) {
  Mode = ModeKind::Sampling;
  NetAgentMode = true;
  PoolWorker = false;
  WorkerIndex = -1;
  SplitChildren.clear();
  // The region tables belong to the tuning process.
  Table = nullptr;
  TableBytes = 0;
  closeInheritedNetFds();
  NetAgentPids.clear();
  if (inject::armed())
    inject::tagProcess(mixSeed(TpId, 0xA6E47ULL + AgentId));
  net::AgentChannel Chan(Opts.NetListenAddress, Port, AgentId);
  std::vector<uint8_t> Payload;
  // ensureConnected() is a no-op while connected, and false once the
  // server is gone for good.
  while (Chan.ensureConnected()) {
    if (!Chan.recvFrame(Payload))
      continue; // disconnected: reconnect
    net::FrameType Type = net::frameType(Payload);
    if (Type == net::FrameType::Shutdown)
      break;
    if (Type == net::FrameType::RegionClose) {
      agentFlushTrace(Chan, /*Ack=*/true);
      continue;
    }
    if (Type != net::FrameType::Grant)
      continue;
    net::GrantMsg G;
    if (!net::decodeGrant(Payload, G)) {
      // A grant we cannot run still counts as ours on the server; the
      // disconnect hands it back.
      Chan.closeConn();
      continue;
    }
    net::CommitMsg C;
    C.Gen = G.Gen;
    C.Result = netRunLease(G);
    // The frame tracepoint fires BEFORE the send: a `tp.net.frame:kill`
    // plan kills the agent with the result computed but the commit frame
    // unsent — exactly the lease loss the reclaim machinery must eat.
    traceEmit(obs::EventKind::NetCommitFrame, 1, G.Gen);
    if (Chan.sendFrame(net::encodeCommit(C)))
      // Piggy-back the buffered trace records on the same connection
      // while it is known-good; the server rebases their timestamps by
      // this connection's Hello clock offset.
      agentFlushTrace(Chan, /*Ack=*/false);
  }
  // Last-chance flush (Shutdown or server gone): best effort — if the
  // connection is already dead the backlog dies with this process, like
  // any other buffered telemetry of a killed host.
  if (Chan.connected())
    agentFlushTrace(Chan, /*Ack=*/false);
  // No child-event notify: an agent is in no child table (the server
  // sees its exit as EOF), and it takes no process-shared lock, so
  // shutdownNetAgents() can SIGKILL it at any point.
  std::fflush(nullptr);
  _exit(0);
}

/// Runs one granted lease, impersonating the local worker that would
/// have run it: same region identity, same region-local child index,
/// same per-lease RNG reseed — so remote draws are bitwise-identical to
/// local ones and mixed regions aggregate equivalently.
net::LeaseResult Runtime::netRunLease(const net::GrantMsg &G) {
  net::LeaseResult Out;
  int64_t Idx = G.Lease;
  Out.Lease = Idx;
  uint64_t Reg = G.Base + static_cast<uint64_t>(Idx) / G.N;
  int Local = static_cast<int>(static_cast<uint64_t>(Idx) % G.N);
  RegionCounter = Reg;
  RegionDirPath.clear(); // agents never touch the file store
  RegionN = static_cast<int>(G.N);
  RegionKind = static_cast<SamplingKind>(G.Kind);
  ChildIndex = Local;
  LeaseIndex = static_cast<int>(Idx);
  RegionActive = true;
  AgentVars.clear();
  AgentCommitted = false;
  traceEmit(obs::EventKind::LeaseBegin, RegionCounter,
            static_cast<uint64_t>(Idx));
  TheRng = sampleRng(Opts.Seed, G.TpId, RegionCounter, Local);
  try {
    RegionBody();
    // Falling out of the body without aggregate() is a voluntary prune,
    // exactly as for local workers.
  } catch (const LeaseEnd &) {
  }
  traceEmit(obs::EventKind::LeaseEnd, RegionCounter,
            static_cast<uint64_t>(Idx),
            static_cast<uint16_t>(AgentCommitted ? LsCommitted : LsPruned));
  RegionActive = false;
  Out.Outcome = AgentCommitted ? net::LeaseOutcome::Committed
                               : net::LeaseOutcome::Pruned;
  Out.Vars = std::move(AgentVars);
  AgentVars.clear();
  ChildIndex = -1;
  LeaseIndex = -1;
  return Out;
}

double Runtime::sample(const std::string &Name, const Distribution &D) {
  assert(Inited && "sample() before init()");
  // Rule [SAMPLE] applies only in sampling processes; the tuning process
  // proceeds with the distribution's representative value.
  if (!isSampling())
    return D.defaultValue();
  if (RegionKind == SamplingKind::Random)
    return D.sample(TheRng);
  // Stratified: the run owning sample index I deterministically lands in
  // stratum perm(I) — stratifiedStratum()'s name-keyed affine
  // permutation. Retry spares (index >= N) fold back into the stratum
  // space; pool workers key on the claimed lease index, so coverage is
  // independent of which worker runs which sample.
  uint64_t N = static_cast<uint64_t>(RegionN);
  uint64_t Stratum =
      stratifiedStratum(Name, static_cast<uint64_t>(ChildIndex), N);
  double U = (static_cast<double>(Stratum) + 0.5) / static_cast<double>(N);
  return D.quantile(U);
}

void Runtime::check(bool Ok) {
  assert(Inited && "check() before init()");
  // Rule [CHECK] applies only in sampling processes.
  if (!isSampling() || Ok)
    return;
  if (NetAgentMode) {
    // Prune only the current remote lease; the agent survives to run
    // the next one it is granted. AgentCommitted stays false, which is
    // what the Commit frame reports as Pruned.
    throw LeaseEnd();
  }
  leasesOf(Table)[LeaseIndex].State.store(LsPruned, std::memory_order_relaxed);
  // A pool worker survives to claim the next sample index.
  if (PoolWorker)
    throw LeaseEnd();
  exitChild();
}

void Runtime::sync(const std::function<void()> &BarrierCb) {
  assert(Inited && RegionActive && "sync() outside a sampling region");
  // A pool worker runs its leases one after another, so there is no
  // moment when all samples exist to meet at a barrier.
  assert(!(Table && Table->PoolMode) && !NetAgentMode &&
         "sync() is not supported in worker-pool regions");
  if (isSampling()) {
    // Rule [SYNC-S]: notify the tuning process, wait to be released. The
    // InBarrier flag lets the supervisor repair the counts if we die here.
    // The wait is on the barrier's process-shared condvar, where no kill
    // may land, so the lease mark is given up for it and taken back once
    // released: the deadline kills only samples that have not arrived.
    ChildSlot &S = slotsOf(Table)[ChildIndex];
    dropLeaseMark(ChildIndex);
    Table->Barrier.arriveAndWait(&S.InBarrier);
    S.CurrentLease.store(ChildIndex, std::memory_order_release);
    return;
  }
  // Rule [SYNC-T]: wait for every live child — in bounded slices, reaping
  // dead children between them so a crashed child cannot deadlock the
  // barrier — then run the callback and release. Retry spares are never
  // activated once a region synced (a replacement cannot replay the
  // barriers it missed).
  RegionUsedSync = true;
  while (!Table->Barrier.waitAllTimed(50)) {
    sweepChildren();
    enforceDeadline();
  }
  if (BarrierCb)
    BarrierCb();
  Table->Barrier.release();
}

/// Routes one commit per the configured backend: slab first under Shm,
/// file store for the Files backend and for payloads the slab will not
/// take (oversized, directory/arena overflow, over-long name). Either way
/// the commit is torn-proof: the slab publishes with a release-store
/// after the payload, the file path writes to a temp file and renames.
int Runtime::storeCommit(uint64_t Region, int Child, const std::string &Var,
                         const std::vector<uint8_t> &Bytes) {
  int FileArg = 0; // the Files backend: no fallback reason
  if (Opts.Backend == StoreBackend::Shm) {
    obs::FallbackReason Why = obs::FallbackReason::Oversized;
    if (Bytes.size() > Opts.ShmRecordThreshold) {
      // Oversized payloads are routed around the slab without touching
      // it, so the per-reason counter is bumped here, not in slabCommit.
      Ctl->noteSlabFallback(Why);
    } else if (Ctl->slabCommit(TpId, Region, Var, Child, Bytes.data(),
                               Bytes.size())) {
      return -1;
    } else {
      // slabCommit counted the refusal; reconstruct the reason for the
      // trace record (same classification order as slabCommit).
      Why = Var.size() > SlabVarNameMax ? obs::FallbackReason::LongName
                                        : obs::FallbackReason::Exhausted;
    }
    FileArg = static_cast<int>(Why) + 1;
  }
  // Lazy region directory: pure-shm regions never create it; the first
  // file-fallback commit pays the mkdir (idempotent — EEXIST from a
  // sibling's earlier fallback is success) right before the write.
  std::string Dir = Region == RegionCounter ? RegionDirPath : regionDir(Region);
  makeDirOrWarn(Dir);
  writeFileBytes(sampleFilePath(Dir, Var, Child), Bytes);
  return FileArg;
}

/// Sampling side: storeCommit() of the current sample, timed into the
/// commit-latency histogram and traced as StoreCommit.
void Runtime::commitBytes(const std::string &Var,
                          const std::vector<uint8_t> &Bytes) {
  // Remote agent: commits ride the Commit frame, not the store —
  // the server applies them tuning-side through the same routing.
  if (NetAgentMode) {
    AgentVars.push_back({Var, Bytes});
    return;
  }
  double T0 = monoNow();
  int FileArg = storeCommit(RegionCounter, ChildIndex, Var, Bytes);
  uint64_t Ns = static_cast<uint64_t>((monoNow() - T0) * 1e9);
  Ctl->recordCommitLatency(Ns);
  traceEmit(obs::EventKind::StoreCommit, /*Backend=*/FileArg >= 0, Ns,
            static_cast<uint16_t>(std::max(FileArg, 0)));
}

void Runtime::commitExtra(const std::string &Var,
                          const std::vector<uint8_t> &Bytes) {
  assert(Inited && "commitExtra() before init()");
  if (!isSampling())
    return;
  assert(RegionActive && "commit outside a sampling region");
  commitBytes(Var, Bytes);
}

void Runtime::aggregate(const std::string &Var,
                        const std::vector<uint8_t> &Bytes,
                        const std::function<void(AggregationView &)> &Cb) {
  assert(Inited && RegionActive && "aggregate() outside a sampling region");
  if (isSampling()) {
    // Rule [AGGR-S] on a remote agent: the commit is captured for the
    // lease's Commit frame instead of the store, and the lease body
    // unwinds back into the agent loop. The tuning-side server routes
    // the payload through the same slab/file machinery a local child
    // would have used, so the stored bytes are identical.
    if (NetAgentMode) {
      commitBytes(Var, Bytes);
      AgentCommitted = true;
      throw LeaseEnd();
    }
    // Rule [AGGR-S]: commit this run's outcome and terminate. The commit
    // is atomic under either backend (slab publish word / temp file +
    // rename), so dying mid-write can never leave a torn record that
    // committed() would count. The payload lands before the Committed
    // lease store, so the tuning-side folding sweep never sees a
    // Committed sample whose aggregate() variable is missing.
    commitBytes(Var, Bytes);
    leasesOf(Table)[LeaseIndex].State.store(LsCommitted,
                                            std::memory_order_release);
    // The lease is done, not a pool worker: unwind back into
    // workerLoop() for the next sample index.
    if (PoolWorker)
      throw LeaseEnd();
    exitChild();
  }
  // Rule [AGGR-T]: supervise the children until all have terminated —
  // bounded waits punctuated by WNOHANG reaps, the region deadline, and
  // retry-spare activation — then aggregate. A child that exits without
  // committing (pruned by @check, or crashed) simply has no record in
  // the store. Registered fold accumulators were filled incrementally
  // during the sweeps; foldRemaining() below tops them up with whatever
  // went through the file path.
  //
  // A pool region is one delivery of regionBatch(): it waits only for
  // its own region's lease window to settle — workers are meanwhile
  // already sampling the next regions, which is the whole point. The
  // batch's last delivery (a fork-mode region's only one) also waits
  // for the children to exit; in a pool region it then requires every
  // lease to be terminal: all workers exiting with leases still open (a
  // wipe-out) makes settlePoolLeases() return the orphans and fork a
  // replacement worker.
  bool Pool = Table->PoolMode != 0;
  size_t WindowN = static_cast<size_t>(Table->BatchN);
  size_t W0 = static_cast<size_t>(windowBegin());
  bool LastDelivery =
      RegionCounter + 1 ==
      Table->BatchBase + static_cast<uint64_t>(Table->BatchCount);
  LeaseCell *Window = leasesOf(Table) + W0;
  auto windowSettled = [&] {
    return std::all_of(Window, Window + WindowN, [](const LeaseCell &L) {
      return leaseFinal(L.State.load(std::memory_order_acquire));
    });
  };
  for (;;) {
    // An exit event posted while we are sweeping stays readable on the
    // eventfd until the wait below drains it, so it is not lost (with a
    // small worker pool that stall would be the last worker's exit, a
    // full 50 ms of dead time per region).
    int Live = sweepChildren();
    if (!LastDelivery && windowSettled())
      break;
    // Remote agents hold no worker slot, so Live == 0 says nothing about
    // them: while the server still has owned leases, keep pumping — the
    // plain settle path would busy-spin without ever reading the wire.
    bool NetBusy = NetServer && NetServer->busy();
    if (Live == 0 && !NetBusy) {
      if (!Pool || settlePoolLeases())
        break;
      continue;
    }
    // Once nothing is left to retire or kill, the rest of the window is
    // settling (or, in a pool region, the other workers are outside it),
    // so wait for events instead of spinning.
    if (enforceDeadline())
      continue;
    if (NetServer && NetServer->regionOpen()) {
      // One poll covers agent frames, new connections, AND this tuning
      // process' child-event fd, so local wakeups keep their sub-50ms
      // latency.
      NetServer->pump(50, Ctl->eventFd());
      Ctl->eventFdDrain();
    } else {
      Ctl->childEventWait(50);
    }
  }
  discardSpares();

  // Per-sample records come from this region's window of the lease
  // table; the child slots are an execution detail.
  std::vector<AggregationView::SampleRecord> Records(WindowN);
  for (size_t I = 0; I != WindowN; ++I) {
    Records[I].Status =
        leaseSampleStatus(Window[I].State.load(std::memory_order_acquire));
    Records[I].Signal = Window[I].Signal.load(std::memory_order_relaxed);
  }
  // Final folding pass with every lease of this window terminal (their
  // publishing stores ordered before our acquire loads above): first the
  // slab, then the file-path stragglers through the reader.
  foldSlabCommits();
  std::shared_ptr<const RegionReader> Reader = makeRegionReader();
  foldRemaining(*Reader, Records);
  if (!LastDelivery) {
    // Slide the fold sweep's low-water mark past everything this
    // delivery (and earlier ones) fully consumed, so the next delivery
    // rescans only the pipeline's in-flight window instead of the whole
    // batch prefix (O(K*N) per delivery instead of O(R*N)). Stop at the
    // first record we cannot prove consumed: unpublished (its writer may
    // be mid-commit for a future region) or belonging to an undelivered
    // region.
    SlabEntryView E;
    for (size_t End = Ctl->slabAllocated(); RegionSlabStart != End;
         ++RegionSlabStart) {
      if (!Ctl->slabEntry(RegionSlabStart, E))
        break;
      if (E.Tp == TpId && E.Region > RegionCounter)
        break;
    }
  }
  if (!Pool) {
    // A pool region's table, workers and slots belong to regionBatch(),
    // which tears them down after its last delivery.
    destroyRegionTable();
  } else if (LastDelivery) {
    // The agents' lease window closes here rather than at teardown: the
    // close harvests every live agent's trace records, which must land
    // inside this region's span.
    netCloseRegion();
  }
  AggregationView::StoreCounters SC;
  SC.ShmCommits = Ctl->slabPublishedTotal() - RegionShmStart;
  for (int R = 0; R != obs::NumFallbackReasons; ++R)
    SC.Fallbacks[R] = Ctl->slabFallbacks(static_cast<obs::FallbackReason>(R)) -
                      RegionFallbackStart[R];
  Ctl->noteRegionResolved();
  // Wall-clock latency of the whole region — open to resolution — next
  // to the per-operation fork/commit histograms.
  if (RegionT0 > 0) {
    Ctl->recordRegionLatency(
        static_cast<uint64_t>((monoNow() - RegionT0) * 1e9));
    RegionT0 = 0;
  }
  traceEmit(obs::EventKind::RegionEnd, RegionCounter);
  publishTelemetry();
  // Every child of this region is reaped, so an unpublished cell can only
  // be a torn writer (or a concurrent tuning process, whose claim the
  // ring recovers from) — skip instead of stalling the ring. Mid-batch
  // deliveries still have live writers, so they must NOT skip: a cell a
  // live worker is about to publish would be counted as a drop and the
  // ring's tail would run past it.
  drainTraceEvents(/*Final=*/LastDelivery);
  AggregationView View(std::move(Reader), std::move(Records), SC);
  RegionActive = false;
  if (Cb)
    Cb(View);
}

bool Runtime::split() {
  assert(Inited && "split() before init()");
  assert(isTuning() && "rule [SPLIT] applies to tuning processes only");
  Ctl->tuningProcessForked();
  // Alg. 1: a tuning spawn waits for the 75% gate, in bounded slices.
  // Between them it reaps split children that died without finish(),
  // whose slots only come back through their parent, and — when called
  // from a pool delivery — the batch's dead workers, whose slots only
  // this supervisor reclaims.
  while (!Ctl->acquireSlotTimed(/*IsTuning=*/true, 50)) {
    reapSplitChildren(/*Block=*/false);
    if (Table)
      sweepChildren();
  }
  traceEmit(obs::EventKind::SchedAdmit, /*Tuning=*/1);
  // The child's slot and live count, held for it until it or we give
  // them back.
  void *Mem = sys::mmapShared(sizeof(SplitCell));
  if (Mem == MAP_FAILED)
    sys::fatal("mmap of split cell failed: %s", std::strerror(errno));
  auto *Cell = static_cast<SplitCell *>(Mem);
  Cell->SlotHeld.store(1, std::memory_order_relaxed);
  Cell->Live.store(1, std::memory_order_relaxed);
  std::fflush(nullptr); // keep buffered stdio out of the child
  double ForkT0 = monoNow();
  pid_t Pid = sys::forkProcess();
  if (Pid < 0) {
    // Undo the reservation: the child tuning process never existed.
    munmap(Cell, sizeof(SplitCell));
    Ctl->releaseSlot();
    Ctl->tuningProcessExited();
    Ctl->noteForkFailure();
    std::fprintf(stderr,
                 "wbtuner: fork failed for split of tuning process %llu; "
                 "continuing without the child\n",
                 static_cast<unsigned long long>(TpId));
    return false;
  }
  if (Pid != 0) {
    uint64_t ForkNs = static_cast<uint64_t>((monoNow() - ForkT0) * 1e9);
    Ctl->recordForkLatency(ForkNs);
    traceEmit(obs::EventKind::Fork, static_cast<uint64_t>(Pid), ForkNs,
              /*Split=*/1);
    SplitChildren.emplace_back(Pid, Cell);
    return false;
  }
  // Child tuning process: fresh aggregation store and region bookkeeping;
  // the regular store (address space) is inherited, the sample store is
  // not, per rule [SPLIT]. Its children wake it on an eventfd of its own.
  IsRoot = false;
  SplitSelf = Cell;
  Ctl->reopenEventFd();
  TpId = Ctl->nextTpId();
  TpDir = Opts.RunDir + "/tp" + std::to_string(TpId);
  makeDirOrWarn(TpDir);
  if (inject::armed())
    inject::tagProcess(mixSeed(TpId, 0x5B117));
  // The parent's live region (we are usually forked from inside its
  // aggregation callback) is not ours to supervise: drop our view of its
  // table, barrier and claim counter. Drained events belong to the
  // parent; ours start fresh (the parent merges our fragment at root
  // finish()).
  destroyRegionTable();
  resetTuningState();
  // The lease server and its agents belong to the root: drop the
  // inherited fds without running any lease-state callbacks.
  closeInheritedNetFds();
  TheRng = Rng(mixSeed(Opts.Seed, 0x5117 + TpId));
  return true;
}

void Runtime::expose(const std::string &Name,
                     const std::vector<uint8_t> &Bytes) {
  assert(Inited && "expose() before init()");
  // Rule [EXPOSE] applies to tuning processes; we accept it from sampling
  // processes too (their exposed values are visible run-wide).
  writeFileBytes(Opts.RunDir + "/exposed/" + Name, Bytes);
}

bool Runtime::load(const std::string &Name, std::vector<uint8_t> &Out) const {
  assert(Inited && "load() before init()");
  return readFileBytes(Opts.RunDir + "/exposed/" + Name, Out);
}

int Runtime::freeSlots() const { return Ctl->freeSlots(); }
unsigned Runtime::maxPool() const { return Ctl->maxPool(); }
uint64_t Runtime::crashedSamples() const { return Ctl->crashedTotal(); }
uint64_t Runtime::timedOutSamples() const { return Ctl->timedOutTotal(); }
uint64_t Runtime::forkFailures() const { return Ctl->forkFailedTotal(); }
uint64_t Runtime::leaseReclaims() const { return Ctl->leaseReclaimsTotal(); }
uint64_t Runtime::shmCommits() const { return Ctl->slabPublishedTotal(); }
uint64_t Runtime::storeFallbacks() const { return Ctl->slabFallbackTotal(); }

obs::RuntimeMetrics Runtime::metrics() const {
  obs::RuntimeMetrics M;
  M.RegionsResolved = Ctl->regionsResolvedTotal();
  M.ElapsedSec = monoNow() - InitTime;
  M.ShmCommits = Ctl->slabPublishedTotal();
  M.FileFallbacks = Ctl->slabFallbackTotal();
  for (int R = 0; R != obs::NumFallbackReasons; ++R)
    M.Fallbacks[R] = Ctl->slabFallbacks(static_cast<obs::FallbackReason>(R));
  M.CrashedSamples = Ctl->crashedTotal();
  M.TimedOutSamples = Ctl->timedOutTotal();
  M.ForkFailures = Ctl->forkFailedTotal();
  M.LeaseReclaims = Ctl->leaseReclaimsTotal();
  M.Retries = Ctl->retriesTotal();
  M.SlabRecordsHighWater = Ctl->slabRecordsHighWater();
  M.SlabBytesHighWater = Ctl->slabBytesHighWater();
  M.SlabRecycles = Ctl->slabRecyclesTotal();
  M.SlabEpochHighWater = Ctl->slabEpochRecordsHighWater();
  M.RemoveFailures = removeTreeFailures();
  M.TraceEvents = Ctl->traceEmittedTotal();
  M.TraceDrops = Ctl->traceDropsTotal();
  M.ForkLatency = Ctl->forkLatencySnapshot();
  M.CommitLatency = Ctl->commitLatencySnapshot();
  M.RegionLatency = Ctl->regionLatencySnapshot();
  M.ScoresNoted = Ctl->scoresNotedTotal();
  M.ScoreLast = Ctl->scoreLast();
  M.ScoreMin = Ctl->scoreMin();
  M.ScoreMax = Ctl->scoreMax();
  M.NetAgents = NetAgentPids.size();
  if (NetServer) {
    const net::NetStats &NS = NetServer->stats();
    M.NetReconnects = NS.Reconnects;
    M.NetRemoteLeases = NS.RemoteLeases;
    M.NetLeasesReturned = NS.LeasesReturned;
    M.NetFrames = NS.Frames;
    M.NetBytesIn = NS.BytesIn;
    M.NetBytesOut = NS.BytesOut;
    M.NetRecvHello = NS.RecvByType[static_cast<int>(net::FrameType::Hello)];
    M.NetRecvCommit = NS.RecvByType[static_cast<int>(net::FrameType::Commit)];
    M.NetRecvTrace =
        NS.RecvByType[static_cast<int>(net::FrameType::TraceFrame)];
    // Agent records never touch the shared ring; fold the harvested
    // count in so TraceEvents stays the run-wide total.
    M.TraceEvents += NS.TraceEvents;
  }
  return M;
}

uint16_t Runtime::metricsPort() const {
  return MetricsEp ? MetricsEp->port() : 0;
}

void Runtime::publishTelemetry() {
  // Single seqlock writer: only the root tuning process publishes (a
  // @split tuning process sweeping its own children must not interleave
  // with the root's write side).
  if (!Inited || !IsRoot || !isTuning())
    return;
  Ctl->publishMetricsSnapshot(metrics());
  if (MetricsEp)
    MetricsEp->pump(0);
}

void Runtime::noteScore(double Score, uint32_t Samples) {
  // Loud in every build type: under NDEBUG the old assert compiled out
  // and the next line dereferenced a null Ctl.
  if (!Inited)
    sys::fatal("noteScore() before init()");
  Ctl->noteScore(Score);
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(Score));
  std::memcpy(&Bits, &Score, sizeof(Bits));
  traceEmit(obs::EventKind::Progress, RegionCounter, Bits,
            static_cast<uint16_t>(Samples > 0xffff ? 0xffff : Samples));
  publishTelemetry();
}

void Runtime::traceEmitSlow(obs::EventKind Kind, uint64_t A, uint64_t B,
                            uint16_t Arg) {
  if (NetAgentMode) {
    // A remote agent has no shared ring with the tuning host; buffer the
    // event for the next TraceFrame flush. Bounded: a stalled connection
    // drops the oldest half rather than growing without limit.
    constexpr size_t MaxAgentBacklog = 65536;
    if (AgentTraceBuf.size() >= MaxAgentBacklog)
      AgentTraceBuf.erase(AgentTraceBuf.begin(),
                          AgentTraceBuf.begin() + MaxAgentBacklog / 2);
    AgentTraceBuf.push_back(obs::makeEvent(Kind, A, B, Arg));
    return;
  }
  Ctl->traceEmit(obs::makeEvent(Kind, A, B, Arg));
}

void Runtime::agentFlushTrace(net::AgentChannel &Chan, bool Ack) {
  if (AgentTraceBuf.empty() && !Ack)
    return;
  // Best effort: on send failure keep the backlog for the reconnect path
  // (the channel re-Hellos, re-establishing the clock offset the server
  // applies to these timestamps).
  if (Chan.sendFrame(net::encodeTraceFrame(AgentTraceBuf)))
    AgentTraceBuf.clear();
}

void Runtime::drainTraceEvents(bool Final) {
  // Only tuning processes consume the ring; children are producers only.
  if (!TraceOn || !isTuning())
    return;
  Ctl->traceDrain(TraceBuf, /*SkipUnpublished=*/Final);
}

void Runtime::writeTraceFragmentFile() {
  std::string Path = Opts.RunDir + "/obs-frag." + std::to_string(TpId) + ".bin";
  if (!obs::writeTraceFragment(Path, TraceBuf))
    std::fprintf(stderr, "wbtuner: failed to write trace fragment %s\n",
                 Path.c_str());
  TraceBuf.clear();
}

namespace {

/// True for exactly "obs-frag.<digits>.bin" — the names
/// writeTraceFragmentFile produces. A leftover ".tmp" of a killed
/// writer, or any stray file, must not reach the fragment parser.
bool isTraceFragmentName(const char *Name) {
  std::string_view V(Name);
  if (V.size() < 14 || V.substr(0, 9) != "obs-frag." ||
      V.substr(V.size() - 4) != ".bin")
    return false;
  std::string_view Id = V.substr(9, V.size() - 13);
  for (char C : Id)
    if (C < '0' || C > '9')
      return false;
  return true;
}

} // namespace

void Runtime::exportTrace() {
  // Merge the fragments @split tuning processes left in the run dir; the
  // exporter re-sorts by timestamp, so order does not matter here. A
  // run dir we cannot list, or a fragment that fails to parse, loses
  // those events but must not lose the export of everything else.
  DIR *D = sys::openDir(Opts.RunDir.c_str());
  if (!D) {
    std::fprintf(stderr,
                 "wbtuner: cannot list run dir %s for trace fragments: %s\n",
                 Opts.RunDir.c_str(), std::strerror(errno));
  } else {
    while (dirent *E = readdir(D)) {
      if (!isTraceFragmentName(E->d_name))
        continue;
      std::string Path = Opts.RunDir + "/" + E->d_name;
      if (!obs::readTraceFragment(Path, TraceBuf))
        std::fprintf(stderr,
                     "wbtuner: trace fragment %s is corrupt or truncated; "
                     "merged what was readable\n",
                     Path.c_str());
    }
    closedir(D);
  }
  if (!obs::writeChromeTrace(TracePathEff, std::move(TraceBuf)))
    std::fprintf(stderr, "wbtuner: failed to write trace file %s\n",
                 TracePathEff.c_str());
  TraceBuf.clear();
}
