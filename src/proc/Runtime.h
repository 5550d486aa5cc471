//===- proc/Runtime.h - Fork-based WBTuner runtime --------------*- C++ -*-===//
//
// Part of the WBTuner reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's runtime, faithfully multi-process: tuning primitives are
/// plain library calls inserted into an existing program (paper Fig. 3/4),
/// and sampling is realized by fork(2) so that every sampling process
/// inherits the full program state reached so far — the "reused full
/// execution" that gives white-box tuning its asymptotic edge (paper
/// Sec. I-C).
///
/// Primitive mapping (paper -> here):
///   @sampling(n, cbStrgy)  -> Runtime::sampling(n, kind)
///   @sample(x, cbDist)     -> x = Runtime::sample("x", dist)
///   @aggregate(x, cbAggr)  -> Runtime::aggregate("x", bytes, cb)
///   @split()               -> Runtime::split()
///   @sync(cbBarrier)       -> Runtime::sync(cb)
///   @check(cbChk)          -> Runtime::check(ok)
///   @expose(x)             -> Runtime::expose("x", bytes)
///   y = @load(x)           -> Runtime::load("x", out)
///   y = @loadS(x, i)       -> AggregationView::loadBytes("x", i, out)
///
/// Semantics follow paper Fig. 8: after sampling() both the tuning process
/// and the children execute the region body; @sample is a no-op in the
/// tuning process (it observes each distribution's default value), and the
/// sampling children terminate inside aggregate() after committing. Guard
/// expensive region code with isSampling() if the tuning process should
/// not duplicate it.
///
/// Failure semantics: sampling processes are disposable, and the tuning
/// process supervises them. A child that crashes (signal, nonzero exit),
/// is killed by the optional per-region wall-clock timeout, or whose
/// fork(2) failed outright is reaped by the supervisor in every wait of
/// its region (the spawn loop, sync() and aggregate()): its pool slot is
/// reclaimed, the region barrier's expected count is repaired, and the
/// terminal SampleStatus of its sample lease is surfaced through
/// AggregationView. An opt-in retry policy (RegionOptions::MaxRetries)
/// pre-forks spare sampling processes that park before the region body and
/// replace crashed/timed-out samples with fresh RNG streams. One bad
/// sample can therefore never wedge a run — see DESIGN.md, "Failure
/// semantics".
///
/// Runtime::regionBatch() is the worker-pool variant of sampling regions
/// (Runtime::samplingRegion() is its one-region case): min(N, pool)
/// long-lived workers claim sample indices from a shared lease counter
/// instead of paying one fork(2) per sample, with per-index RNG
/// reseeding keeping every draw bitwise-identical to the fork-per-sample
/// mode — see DESIGN.md, "Worker-pool sampling".
///
/// The aggregation store has two backends (RuntimeOptions::Backend).
/// StoreBackend::Files is the paper's Sec. III-B1 design: each sampling
/// process commits its result variables into per-index files inside a
/// directory owned by its tuning process; commits are atomic
/// (write-to-temp + rename), so a child killed mid-commit leaves no torn
/// file behind. StoreBackend::Shm (the default) commits through a
/// MAP_SHARED slab in the control block instead: payload first, then a
/// release-store publication word, giving the same torn-commit defense
/// without the write+rename syscall pair; oversized payloads and slab
/// overflow transparently fall back to the file path. On top of either
/// backend, foldScalar()/foldVote()/foldMeanVector() register tuning-side
/// incremental aggregation (paper Sec. IV-B): under Shm, commits are
/// folded into the accumulators as the supervisor observes them during
/// its WNOHANG sweeps, so aggregate() is O(1) per sample instead of an
/// O(N * vars) file-read storm at the barrier. The process pool and the
/// 75% tuning-spawn gate (Alg. 1) live in shared memory
/// (proc/SharedControl.h). Limitations vs. the in-process engine
/// (core/Pipeline.h): feedback-driven strategies (MCMC) are not
/// available across processes, and the caller must be single-threaded
/// when invoking sampling()/split() (standard fork discipline).
///
//===----------------------------------------------------------------------===//

#ifndef WBT_PROC_RUNTIME_H
#define WBT_PROC_RUNTIME_H

#include "aggregate/Aggregators.h"
#include "inject/Inject.h"
#include "net/Wire.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "param/Distribution.h"
#include "support/ByteBuffer.h"

#include <sys/types.h>

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

namespace wbt {
namespace net {
class AgentChannel;
class LeaseServer;
class MetricsEndpoint;
} // namespace net

namespace proc {

class SharedControl;
struct RegionTable;
struct SplitCell;

/// Sampling strategies available across processes.
enum class SamplingKind {
  /// Independent draws from each variable's distribution.
  Random,
  /// Deterministic stratification: child i lands in stratum
  /// perm(i) of each variable's quantile space.
  Stratified,
};

/// Terminal state of one sampling child, as observed by the supervisor.
enum class SampleStatus : int32_t {
  /// Still running (only visible while the region is live).
  Running = 0,
  /// Committed its result through aggregate()/commitExtra().
  Committed,
  /// Exited voluntarily without committing (@check pruned it, or the body
  /// returned or exited 0 before aggregate()).
  Pruned,
  /// Died abnormally (signal or nonzero exit); see crashSignal().
  Crashed,
  /// Killed by the supervisor after the region wall-clock timeout, or
  /// never started before it passed.
  TimedOut,
  /// fork(2) failed; the sample never existed.
  ForkFailed,
  /// A retry spare that was never activated (no failures to replace).
  Unused,
};

/// Backend of the per-region aggregation store.
enum class StoreBackend {
  /// Paper Sec. III-B1: one file per (variable, child), atomic via
  /// temp-file + rename(2).
  Files,
  /// Shared-memory commit slab in the control block; release-store
  /// publication replaces rename as the torn-commit defense. Oversized
  /// payloads and slab overflow fall back to Files transparently.
  Shm,
};

struct RuntimeOptions {
  /// Root directory for the run's stores; empty = fresh mkdtemp(3) dir.
  std::string RunDir;
  /// MAX_POOL_SIZE of paper Alg. 1; 0 = hardware concurrency.
  unsigned MaxPool = 0;
  /// Apply the Alg. 1 pool rules; false = unbounded spawning (Fig. 10).
  bool UseScheduler = true;
  uint64_t Seed = 1;
  /// Keep the run directory on finish() (debugging).
  bool KeepFiles = false;
  /// Per-region wall-clock budget in seconds; stragglers are SIGKILLed
  /// and reported as SampleStatus::TimedOut, like samples still waiting
  /// for a pool slot when it passes (they are never forked). 0 disables
  /// the timeout. Overridable per region via RegionOptions::TimeoutSec.
  double SampleTimeoutSec = 0.0;
  /// Where commits land; see StoreBackend.
  StoreBackend Backend = StoreBackend::Shm;
  /// Commit-slab directory entries (Shm backend). Every commit consumes
  /// one; overflow falls back to files.
  size_t ShmSlabRecords = 4096;
  /// Commit-slab payload arena bytes (Shm backend).
  size_t ShmSlabBytes = 1u << 20;
  /// Payloads larger than this bypass the slab and go to a file even
  /// under the Shm backend (keeps the arena for small hot commits).
  size_t ShmRecordThreshold = 16u << 10;
  /// Chrome trace-event JSON output path. Non-empty enables event
  /// tracing: every process writes fixed-size records into a shared
  /// lock-free ring, the tuning process drains them during supervisor
  /// sweeps, and the root writes the merged trace here at finish().
  /// Empty consults the WBT_TRACE environment variable; tracing stays
  /// off (and the ring unmapped) when both are unset.
  std::string TracePath;
  /// Capacity of the shared trace-event ring, in records (rounded up to
  /// a power of two). A full ring drops events and counts them in
  /// RuntimeMetrics::TraceDrops rather than ever blocking a child.
  size_t TraceRingRecords = 8192;
  /// Fault-injection plan armed at init() (see inject/Inject.h for the
  /// grammar): deterministic syscall failures, EINTR storms, short
  /// writes, and SIGKILLs at named trace points, all replayable from
  /// the plan text. Empty consults the WBT_INJECT environment variable;
  /// injection stays disarmed (every hook one predicted branch) when
  /// both are unset. A malformed plan aborts init loudly.
  std::string InjectPlan;
  /// Remote sampling agents (distributed lease protocol, src/net): the
  /// root tuning process opens a TCP lease server and forks this many
  /// agent processes — stand-ins for agents on other hosts — at the
  /// first worker-pool region. The server pushes each idle agent one
  /// lease at a time over the wire; the agent runs the region body
  /// locally and sends its commits back in a frame that folds exactly
  /// like local shm-slab records, so mixed local/remote regions
  /// aggregate bitwise-identically. Root tuning process only;
  /// worker-pool regions (samplingRegion / regionBatch) only. 0 disables
  /// the net path entirely.
  ///
  /// Agents can only run the body closure they were forked with (the
  /// first pool region's). A later pool region whose body has another
  /// callable type (or, for a plain function pointer, another function)
  /// is granted to no agent: its leases run on the local workers, and
  /// the first such region says so on stderr. A run that wants agents in
  /// every region gives all its pool regions one body that branches on
  /// regionOrdinal(); the check cannot see captured state, so that body
  /// must not capture per-region values either. DESIGN.md, "Distributed
  /// sampling agents", says why agents are not forked per batch.
  unsigned NetAgents = 0;
  /// Listen address of the lease server (localhost simulation by
  /// default; the protocol itself does not care where agents run).
  std::string NetListenAddress = "127.0.0.1";
  /// "ip:port" of the live metrics scrape endpoint (Prometheus text
  /// exposition, served threadless from the supervisor sweep; port 0 =
  /// kernel-picked, read back via Runtime::metricsPort()). Empty
  /// consults the WBT_METRICS environment variable; the endpoint stays
  /// off when both are unset. Root tuning process only.
  std::string MetricsAddress;
};

/// Per-region overrides for sampling().
struct RegionOptions {
  SamplingKind Kind = SamplingKind::Random;
  /// Region wall-clock budget; < 0 inherits RuntimeOptions::SampleTimeoutSec.
  double TimeoutSec = -1.0;
  /// Spare sampling processes pre-forked for this region by
  /// fork-per-sample sampling(); each crashed or timed-out sample is
  /// replaced by one spare (fresh RNG stream) until they run out. 0
  /// disables retries. Regions that use sync() never activate spares (a
  /// replacement cannot replay missed barriers). Worker-pool regions
  /// retry by returning the lease instead and ignore it.
  int MaxRetries = 0;
  /// Workers forked per regionBatch() / samplingRegion(); the actual
  /// count is min(Regions * N, Workers, MaxPool - 1), and <= 0 means
  /// MaxPool - 1. Ignored by fork-per-sample sampling().
  int Workers = 0;
  /// Sampling regions kept in flight by regionBatch(): workers may claim
  /// leases of regions R .. R+Pipeline-1 while the tuning process folds
  /// and delivers region R. <= 1 claims one region at a time (the same
  /// workers still serve every region of the batch). Ignored outside
  /// regionBatch().
  int Pipeline = 1;
};

/// Backend-neutral read access to one region's committed results. The
/// Runtime builds the concrete reader (file directory scan or slab scan)
/// when the region's aggregate() barrier resolves.
class RegionReader {
public:
  virtual ~RegionReader() = default;
  /// Whether child \p I committed \p Var.
  virtual bool has(const std::string &Var, int I) const = 0;
  /// Reads child \p I's committed bytes of \p Var. \returns false if
  /// absent.
  virtual bool load(const std::string &Var, int I,
                    std::vector<uint8_t> &Out) const = 0;
};

/// Read access to one region's committed sample results (the aggregation
/// store of the owning tuning process), passed to aggregation callbacks.
class AggregationView {
public:
  /// One per-child supervision record.
  struct SampleRecord {
    SampleStatus Status = SampleStatus::Running;
    /// Terminating signal for Crashed children (0 if it exited nonzero).
    int Signal = 0;
  };

  /// Region-lifetime deltas of the run-wide store counters, attributed
  /// to this region's open->resolve window. Concurrent @split regions
  /// share the underlying counters, so under concurrent tuning processes
  /// read these as attribution of the window, not a sealed ledger.
  struct StoreCounters {
    uint64_t ShmCommits = 0;
    uint64_t Fallbacks[obs::NumFallbackReasons] = {};
  };

  AggregationView(std::shared_ptr<const RegionReader> Store,
                  std::vector<SampleRecord> Records)
      : Store(std::move(Store)), Records(std::move(Records)) {}

  AggregationView(std::shared_ptr<const RegionReader> Store,
                  std::vector<SampleRecord> Records, StoreCounters Counters)
      : Store(std::move(Store)), Records(std::move(Records)),
        Counters(Counters) {}

  /// Number of sample slots in the region: the requested samples plus any
  /// retry spares (activated or not).
  int spawned() const { return static_cast<int>(Records.size()); }

  /// Terminal status of child \p I.
  SampleStatus status(int I) const { return Records[I].Status; }
  /// Terminating signal of a Crashed child (0 otherwise).
  int crashSignal(int I) const { return Records[I].Signal; }
  /// Number of children whose terminal status is \p S.
  int countStatus(SampleStatus S) const;

  /// Indices of children that committed variable \p Var (ascending),
  /// read from the supervisor's per-child status table plus a store
  /// presence check — no per-sample access(2) scan. Children pruned by
  /// @check or crashed do not appear; in particular a crashed child's
  /// partial commitExtra() results are not surfaced here (the paper's
  /// "a crashed sample has no file in the store"), though loadBytes()
  /// still reads them raw.
  std::vector<int> committed(const std::string &Var) const;

  /// @loadS(x, i): raw committed bytes of \p Var from child \p I.
  bool loadBytes(const std::string &Var, int I,
                 std::vector<uint8_t> &Out) const;

  /// Typed helpers over loadBytes().
  double loadDouble(const std::string &Var, int I, double Default = 0) const;
  std::vector<double> loadDoubles(const std::string &Var, int I) const;
  std::vector<uint8_t> loadMask(const std::string &Var, int I) const;

  /// Store-path accounting for this region: commits that landed in the
  /// shm slab, and commits routed to the file store, by reason. Counted
  /// whether or not tracing is enabled.
  uint64_t shmCommits() const { return Counters.ShmCommits; }
  uint64_t fileFallbacks(obs::FallbackReason R) const {
    return Counters.Fallbacks[int(R)];
  }

private:
  std::shared_ptr<const RegionReader> Store;
  std::vector<SampleRecord> Records;
  StoreCounters Counters;
};

/// The per-process runtime singleton.
class Runtime {
public:
  /// The calling process' runtime handle.
  static Runtime &get();

  /// Initializes the root tuning process. Call once, before any primitive.
  void init(const RuntimeOptions &Opts = RuntimeOptions());

  /// Ends this tuning process. The root waits for every @split descendant
  /// first and then removes the run directory; split children must call
  /// finishAndExit() instead.
  void finish();

  /// finish() + _exit(0); for @split children whose work is done.
  [[noreturn]] void finishAndExit();

  //===--------------------------------------------------------------------===
  // Primitives
  //===--------------------------------------------------------------------===

  /// @sampling(n, cbStrgy): forks \p N sampling children (through the
  /// pool gate). Both the parent (tuning mode) and the children (sampling
  /// mode) return and execute the region body.
  void sampling(int N, SamplingKind Kind = SamplingKind::Random) {
    RegionOptions Ro;
    Ro.Kind = Kind;
    sampling(N, Ro);
  }

  /// sampling() with per-region timeout/retry overrides.
  void sampling(int N, const RegionOptions &Ro);

  /// Worker-pool variant of a sampling region, exactly regionBatch(1, N,
  /// Ro, Body): forks only
  /// min(N, RegionOptions::Workers, MaxPool - 1) long-lived sampling
  /// workers instead of one process per sample. Each worker claims sample
  /// indices from a lock-free lease counter and runs \p Body once per
  /// claimed index; commits flow through the regular store, so the
  /// tuning side's incremental folding overlaps with still-running
  /// workers. \p Body must therefore be re-entrant: it runs many times in
  /// one worker process, and writes it makes to process-local state leak
  /// into the worker's later leases (keep per-sample state inside the
  /// body; derive everything varying from sample()/sampleIndex()).
  ///
  /// Observable behavior matches sampling() exactly: the worker reseeds
  /// its RNG per claimed index with the same stream a fork-per-sample
  /// child of that index would get, so Random and Stratified draws are
  /// bitwise-identical; sampleIndex() reports the claimed index; check()
  /// prunes just the current lease (the worker moves on); a worker that
  /// dies has its unfinished lease returned to the pool and re-claimed
  /// (once) by a survivor. sync() is not supported — workers run their
  /// leases at different times, so there is no cross-sample barrier.
  ///
  /// The tuning process also runs \p Body once (sampling primitives
  /// no-op as usual), and the body must reach aggregate(), which is
  /// where the supervision happens; samplingRegion() returns after the
  /// aggregation callback.
  void samplingRegion(int N, const RegionOptions &Ro,
                      const std::function<void()> &Body) {
    regionBatch(1, N, Ro, Body);
  }

  void samplingRegion(int N, const std::function<void()> &Body) {
    samplingRegion(N, RegionOptions(), Body);
  }

  /// Pipelined batch of \p Regions identical sampling regions of \p N
  /// samples each, every one running \p Body: the batch maps one lease
  /// table and forks one worker set, whose workers claim leases from a
  /// single counter spanning all Regions * N samples, rolling from
  /// region R's last lease straight into region R+1, while the tuning
  /// process folds and delivers finished regions behind them. Up to
  /// RegionOptions::Pipeline regions run ahead of the delivery point;
  /// results are delivered in submission order, and \p Body observes
  /// exactly what Regions sequential samplingRegion() calls would show it
  /// — same region ordinals, same sample indices, bitwise-identical draws
  /// via the per-lease RNG reseed. Workers live for one batch: they
  /// inherit the program state reached when it opened, so a caller that
  /// wants workers to outlive a region passes its regions to one
  /// regionBatch() (Pipeline = 1 keeps one region in flight), and a body
  /// that branches per region derives that from regionOrdinal(), not
  /// from captured per-region state. Every worker-pool region runs here:
  /// samplingRegion() is the one-region case. See DESIGN.md, "Pipelined
  /// region batches".
  void regionBatch(int Regions, int N, const RegionOptions &Ro,
                   const std::function<void()> &Body);

  void regionBatch(int Regions, int N, const std::function<void()> &Body) {
    RegionOptions Ro;
    Ro.Pipeline = Regions;
    regionBatch(Regions, N, Ro, Body);
  }

  /// @sample(x, cbDist): draws this run's value of \p Name; the tuning
  /// process observes D.defaultValue() (the rule is a no-op in T mode).
  double sample(const std::string &Name, const Distribution &D);

  /// @check(cbChk): in a sampling process, terminates it when \p Ok is
  /// false (the run is pruned); no-op in a tuning process.
  void check(bool Ok);

  /// @sync(cbBarrier): all live sampling children of the current region
  /// block; once every one arrived, \p BarrierCb runs in the tuning
  /// process, then everyone proceeds. Children that died before arriving
  /// are reaped and removed from the barrier, so a crash cannot deadlock
  /// the sync.
  ///
  /// A region that uses sync() needs all its children alive at once, so
  /// its sample count must not exceed MaxPool - 1 or the pool gate
  /// deadlocks against the barrier.
  void sync(const std::function<void()> &BarrierCb);

  /// @aggregate(x, cbAggr): a sampling process commits \p Bytes as \p Var
  /// into the aggregation store and terminates. The tuning process
  /// supervises the children — reaping crashes, enforcing the region
  /// timeout, activating retry spares — then runs \p Cb over the
  /// committed results and continues.
  void aggregate(const std::string &Var, const std::vector<uint8_t> &Bytes,
                 const std::function<void(AggregationView &)> &Cb);

  /// Commits an additional result variable before aggregate() (the paper
  /// supports multiple sample-result variables per region). No-op in T
  /// mode.
  void commitExtra(const std::string &Var, const std::vector<uint8_t> &Bytes);

  /// @split(): forks a new tuning process (through the 75% gate).
  /// \returns true in the child, false in the parent (also false when
  /// fork(2) fails, after logging and releasing the reserved slot). The
  /// child inherits the regular store (the entire address space) but owns
  /// a fresh aggregation store, per rule [SPLIT].
  bool split();

  /// @expose(x): publishes \p Bytes under \p Name in the run-global
  /// exposed store (file-backed, available to every process and scope).
  void expose(const std::string &Name, const std::vector<uint8_t> &Bytes);

  /// @load(x): reads an exposed value. \returns false if absent.
  bool load(const std::string &Name, std::vector<uint8_t> &Out) const;

  //===--------------------------------------------------------------------===
  // Mode and identity
  //===--------------------------------------------------------------------===

  bool isSampling() const { return Mode == ModeKind::Sampling; }
  bool isTuning() const { return Mode == ModeKind::Tuning; }
  /// Child index within the current region, or -1 in a tuning process.
  /// Retry spares observe indices >= the region's requested sample count.
  /// In a worker-pool region this is the currently claimed sample index,
  /// not the worker's slot.
  int sampleIndex() const { return isSampling() ? ChildIndex : -1; }
  /// Attempt number (1-based) of the current sample. A pool lease being
  /// re-run after its previous holder died observes 2, 3, ...; fork-mode
  /// samples and tuning processes always observe 1. Lets a body act on
  /// exactly one attempt of a given index regardless of which worker
  /// claims it (the re-runner's own increment orders after the dead
  /// holder's in the cell's modification order).
  int sampleAttempt() const;
  /// Ordinal of the current (most recently opened) sampling region.
  /// A regionBatch() body branches on this instead of capturing
  /// per-region state: its workers run one closure for every region of
  /// the batch.
  uint64_t regionOrdinal() const { return RegionCounter; }
  uint64_t tuningProcessId() const { return TpId; }
  /// Deterministic per-process random stream.
  Rng &rng() { return TheRng; }

  //===--------------------------------------------------------------------===
  // Supervisor diagnostics
  //===--------------------------------------------------------------------===

  /// Free pool slots right now (slot-reclaim accounting checks).
  int freeSlots() const;
  unsigned maxPool() const;
  /// Run-wide counts of abnormal sample outcomes.
  uint64_t crashedSamples() const;
  uint64_t timedOutSamples() const;
  uint64_t forkFailures() const;
  /// Leases of dead workers returned for re-claiming (worker-pool mode).
  uint64_t leaseReclaims() const;

  //===--------------------------------------------------------------------===
  // Tuning-side incremental folding (paper Sec. IV-B over the store)
  //===--------------------------------------------------------------------===

  /// Registers variable \p Var for incremental aggregation and returns
  /// its accumulator. Call in the tuning process between sampling() and
  /// aggregate(); under the Shm backend each commit of \p Var is folded
  /// into the accumulator as the supervisor observes it (O(1) per
  /// sample), and any file-fallback commits are folded before the
  /// aggregation callback runs, so the accumulator is complete —
  /// covering exactly the Committed children — by the time \p Cb sees
  /// the AggregationView. The reference is valid until the next
  /// sampling(). foldScalar expects encodeDouble() payloads, foldVote
  /// encodeVector<uint8_t>() masks, foldMeanVector
  /// encodeVector<double>().
  ScalarAccumulator &foldScalar(const std::string &Var);
  VoteAccumulator &foldVote(const std::string &Var);
  MeanVectorAccumulator &foldMeanVector(const std::string &Var);

  /// Run-wide store diagnostics: commits published through the slab, and
  /// commits that fell back to the file path (oversized payload, slab
  /// overflow, or over-long variable name).
  uint64_t shmCommits() const;
  uint64_t storeFallbacks() const;

  //===--------------------------------------------------------------------===
  // Observability (src/obs)
  //===--------------------------------------------------------------------===

  /// One coherent snapshot of the run's counters and latency histograms
  /// (always collected; valid while the runtime is initialized).
  obs::RuntimeMetrics metrics() const;
  /// Records one per-region aggregate outcome: updates the shared score
  /// cells (last/min/max, surfaced as RuntimeMetrics::Score*), emits an
  /// EventKind::Progress trace record, and republishes the metrics
  /// snapshot page — the tuning-progress signal drift detectors and
  /// meta-tuners consume. Call from the aggregation callback (or right
  /// after aggregate()) with whatever scalar the caller optimizes.
  /// \p Samples is the committed sample count behind the score (0 ok).
  void noteScore(double Score, uint32_t Samples = 0);
  /// Port of the live metrics endpoint, 0 when it is off. With
  /// MetricsAddress port 0, this is the kernel-picked port.
  uint16_t metricsPort() const;
  /// Whether event tracing is active (TracePath / WBT_TRACE was set).
  bool traceEnabled() const { return TraceOn; }
  /// Effective trace output path ("" when tracing is off).
  const std::string &tracePath() const { return TracePathEff; }

  const std::string &runDir() const { return Opts.RunDir; }

private:
  Runtime() = default;

  enum class ModeKind { Tuning, Sampling };

  std::string regionDir(uint64_t Region) const;
  /// Sampling side: storeCommit() of the current sample, timed and
  /// traced.
  void commitBytes(const std::string &Var, const std::vector<uint8_t> &Bytes);
  /// Routes one commit, \p Var of sample \p Child of region \p Region, to
  /// the slab or the file store per Backend / threshold / capacity; local
  /// and remote commits share it. Returns -1 when the slab took it, else
  /// the StoreCommit trace argument of its file commit.
  int storeCommit(uint64_t Region, int Child, const std::string &Var,
                  const std::vector<uint8_t> &Bytes);
  /// Builds the region's RegionReader once its barrier resolved.
  std::shared_ptr<const RegionReader> makeRegionReader() const;
  /// Folds newly published slab commits of the live region into the
  /// registered accumulators (called from supervisor sweeps).
  void foldSlabCommits();
  /// Folds whatever registered (Var, child) pairs the slab sweep missed
  /// — file-fallback commits and the whole Files backend.
  void foldRemaining(const RegionReader &Store,
                     const std::vector<AggregationView::SampleRecord> &Records);
  void foldEntryBytes(const std::string &Var, int Child, const uint8_t *Data,
                      size_t Size);
  /// Emits one trace event into the shared ring; single-branch no-op
  /// when tracing is off (the <1% disabled-path budget). Trace points
  /// double as fault-injection kill points — the armed() check runs
  /// even with tracing off, so `tp.<name>@...:kill` clauses work
  /// without paying for the ring.
  void traceEmit(obs::EventKind Kind, uint64_t A = 0, uint64_t B = 0,
                 uint16_t Arg = 0) {
    if (inject::armed())
      inject::onTracePoint(obs::eventPointName(Kind));
    if (TraceOn)
      traceEmitSlow(Kind, A, B, Arg);
  }
  void traceEmitSlow(obs::EventKind Kind, uint64_t A, uint64_t B,
                     uint16_t Arg);
  /// Drains the ring into TraceBuf (tuning side, supervisor sweeps).
  /// \p Final skips cells left unpublished by dead writers.
  void drainTraceEvents(bool Final);
  /// Root: merges @split fragments and writes the Chrome trace JSON.
  /// Non-root tuning processes persist their TraceBuf as a fragment.
  void exportTrace();
  void writeTraceFragmentFile();
  /// Root supervisor: republishes the seqlock metrics page and pumps the
  /// scrape endpoint (zero timeout). Called from every sweep.
  void publishTelemetry();
  /// Agent side: sends the buffered trace backlog as one TraceFrame; an
  /// \p Ack (the answer to RegionClose) goes out even when it is empty.
  void agentFlushTrace(net::AgentChannel &Chan, bool Ack);
  [[noreturn]] void exitChild();
  /// Spare child: blocks until activated (returns, to run the region body
  /// on its claimed lease) or discarded (_exits, never returns).
  void parkAsSpare(int Idx);
  /// Takes a sampling slot outside user code, polling; gives up (false)
  /// once lease \p WhilePending (-1: none) is no longer Pending.
  bool pollForSlot(int WhilePending);
  /// Reaps exited @split children (all of them, waiting, when \p Block),
  /// reclaiming the accounting of any that died before finish().
  void reapSplitChildren(bool Block);
  /// Resets the region, pool, fold and agent state a fresh tuning process
  /// starts without: the root's init() and a @split child's both call it.
  void resetTuningState();

  // Supervisor internals (tuning side of a live region).
  bool reapOne(int Idx, bool Block);
  int sweepChildren();
  /// Region deadline: SIGKILLs the processes holding a claimed lease of
  /// the delivering window, each claimed through a kill mark first.
  /// Returns how many it killed.
  int killStragglers();
  bool regionDeadlinePassed() const;
  /// The deadline step of every tuning-side wait: markLeasesTimedOut()
  /// plus killStragglers() plus dropping remote holders, once the
  /// deadline has passed. Returns how much it acted on.
  int enforceDeadline();
  bool activateSpare();
  void discardSpares();
  void destroyRegionTable();
  /// Maps a region's shared table: \p Slots child slots, then the lease
  /// cells of \p Regions regions of \p N samples from ordinal \p Base.
  void mapRegionTable(uint64_t Base, int Regions, int N, int Slots);
  /// Supervised wait for child slot \p SlotIdx's pool slot; with
  /// \p UntilDeadline, gives up (false) once the region deadline passed.
  bool admitSampler(int SlotIdx, bool UntilDeadline);
  void settleUnforked(int Idx);
  /// Forks the process of child slot \p SlotIdx: 0 in the child, its pid
  /// in the parent, -1 (accounted) when fork(2) fails.
  pid_t forkIntoSlot(int SlotIdx);
  /// Opens region \p Ordinal on the tuning side: store path, fresh fold
  /// state, store-counter watermarks, latency clock, deadline, and the
  /// RegionBegin trace point. Shared by sampling() and every delivery of
  /// regionBatch().
  void beginRegion(uint64_t Ordinal, int N, const RegionOptions &Ro);

  // Worker-pool internals (regionBatch).
  [[noreturn]] void workerLoop();
  void runOneLease(int Idx);
  /// \p Worker: the claimant is this pool worker, which publishes the
  /// claim in its CurrentLease; false for the lease server's remote
  /// claims.
  int tryClaimLease(bool Worker);
  int claimLeaseGated();
  /// Worker side: gives up the CurrentLease mark of lease \p Idx.
  void dropLeaseMark(int Idx);
  /// First lease of the delivering region's window in a pool table.
  int64_t windowBegin() const;
  void forkPoolWorker(int SlotIdx);
  bool returnOrRetireLease(int Idx, int32_t From, bool Timed,
                           int32_t Signal);
  bool retireLease(int64_t Idx, int32_t From, int32_t Final, int32_t Signal);
  bool settlePoolLeases();
  /// Retires the delivering window's unclaimed leases as TimedOut.
  /// Returns how many it retired.
  int markLeasesTimedOut();
  /// Maps the flat lease table of \p Regions regions of \p N samples,
  /// starting at ordinal \p Base, and forks \p W workers into it.
  void openLeaseTable(uint64_t Base, int Regions, int N, int W,
                      int64_t ClaimInit);
  /// Raises the pipeline gate to \p NewLimit and wakes gate-blocked
  /// workers.
  void advanceClaimLimit(int64_t NewLimit);
  /// Recycles the commit slab between regions when it is safe (root
  /// tuning process, sole live tuning process, no open region) and the
  /// current epoch has consumed at least half the slab. Returns true if
  /// it recycled.
  bool maybeRecycleSlab();

  // Distributed sampling agents (src/net; root tuning side except
  // netAgentLoop, which is an agent's whole life).
  void spawnNetAgents();
  void shutdownNetAgents();
  /// Opens/closes the server's lease window over the current pool table.
  void netOpenRegion();
  void netCloseRegion();
  /// Server callbacks (run in the root tuning process, from pump()).
  int64_t netClaimLease();
  void netApplyCommit(const net::LeaseResult &R);
  bool netReturnLease(int64_t Lease);
  /// Forked children must not hold the server's descriptors: a dup of a
  /// connection fd would keep the socket alive past the server's close,
  /// so a dropped agent never sees EOF.
  void closeInheritedNetFds();
  [[noreturn]] void netAgentLoop(uint32_t AgentId, uint16_t Port);
  net::LeaseResult netRunLease(const net::GrantMsg &G);

  RuntimeOptions Opts;
  std::unique_ptr<SharedControl> Ctl;
  bool Inited = false;
  bool IsRoot = false;
  bool TraceOn = false;
  std::string TracePathEff;
  std::vector<obs::TraceEvent> TraceBuf; // drained events (tuning side)
  double InitTime = 0; // monotonic seconds at init() (metrics elapsed)
  ModeKind Mode = ModeKind::Tuning;
  uint64_t TpId = 0;
  std::string TpDir;
  uint64_t RegionCounter = 0;
  Rng TheRng;

  // Current region state.
  bool RegionActive = false;
  int RegionN = 0;
  SamplingKind RegionKind = SamplingKind::Random;
  int ChildIndex = -1;
  RegionTable *Table = nullptr; // per-region shared child table
  size_t TableBytes = 0;
  int NumSpares = 0;
  int NextSpare = 0;           // next unactivated spare (tuning side)
  bool RegionUsedSync = false; // disables spare activation
  bool RegionHasDeadline = false;
  double RegionDeadline = 0;      // CLOCK_MONOTONIC seconds
  std::vector<char> Reaped;       // per-child, tuning side
  // @split children with their shared cells, and this process' own cell
  // (null in the root).
  std::vector<std::pair<pid_t, SplitCell *>> SplitChildren;
  SplitCell *SplitSelf = nullptr;

  // Worker-pool region state (regionBatch).
  int RespawnsUsed = 0;  // replacement workers forked after a wipe-out
  std::function<void()> RegionBody; // re-run by workers and respawns
  bool PoolWorker = false;          // this process is a pool worker
  int WorkerIndex = -1;             // its slot in the region table
  int LeaseIndex = -1; // claimed cell of the batch's flat lease table;
                       // ChildIndex is the within-region sample index
  // kmeans-batch is sensitive to where members sit: an int once declared
  // among the worker-pool ints above, which moved every later member by
  // 8 bytes against the earlier ones, cost it ~8% of its samples/s
  // (cause not understood). The padding word after LeaseIndex keeps
  // NetServer and every later member where they were.

  // Distributed-agent state. The server lives in the root tuning
  // process only; NetAgentMode marks a forked agent process, whose
  // commits are captured into AgentVars and shipped over the wire
  // instead of touching the store.
  std::unique_ptr<net::LeaseServer> NetServer;
  std::vector<pid_t> NetAgentPids;
  bool NetSpawned = false;   // agents forked (first eligible region)
  bool NetAgentMode = false; // this process is a remote sampling agent
  std::vector<net::CommitVar> AgentVars; // current lease's commits
  bool AgentCommitted = false; // current lease reached aggregate()
  /// Agent-side trace backlog: an agent's process has no shared ring
  /// with the root, so its traceEmitSlow() buffers here and the loop
  /// flushes as TraceFrame batches (after each Commit and, as the close
  /// ack, on RegionClose). Bounded; overflow drops the oldest half.
  std::vector<obs::TraceEvent> AgentTraceBuf;

  // Live telemetry plane (root tuning side).
  std::unique_ptr<net::MetricsEndpoint> MetricsEp;
  double RegionT0 = 0; // monotonic seconds at region open (RegionLatency)

  // Aggregation-store state of the current region.
  std::string RegionDirPath; // cached regionDir(RegionCounter)
  size_t RegionSlabStart = 0; // slab watermark at sampling(); earlier
                              // entries cannot belong to this region
  // Store-counter watermarks at region open (AggregationView deltas).
  uint64_t RegionShmStart = 0;
  uint64_t RegionFallbackStart[obs::NumFallbackReasons] = {};
  std::map<std::string, ScalarAccumulator> FoldScalars;
  std::map<std::string, VoteAccumulator> FoldVotes;
  std::map<std::string, MeanVectorAccumulator> FoldMeanVecs;
  std::set<std::pair<std::string, int>> FoldedPairs;

  // The body the agents were forked with (spawnNetAgents): its callable
  // type and, for a plain function pointer, the function. A pool region
  // whose body differs opens no lease window to them; the first one
  // warns. Last, so no earlier member moves.
  const std::type_info *AgentBodyType = nullptr;
  void (*AgentBodyFn)() = nullptr;
  bool AgentBodyWarned = false;
};

/// Process-local count of entries removeTree() failed to remove (warned
/// on stderr, surfaced as RuntimeMetrics::RemoveFailures).
uint64_t removeTreeFailures();

//===----------------------------------------------------------------------===//
// Typed commit/expose helpers
//===----------------------------------------------------------------------===//

/// Encodes a double for aggregate()/expose().
inline std::vector<uint8_t> encodeDouble(double X) {
  ByteWriter W;
  W.write(X);
  return W.take();
}

inline double decodeDouble(const std::vector<uint8_t> &Bytes,
                           double Default = 0) {
  ByteReader R(Bytes);
  double X = R.read<double>();
  return R.ok() ? X : Default;
}

/// Encodes a vector of trivially copyable elements.
template <typename T>
std::vector<uint8_t> encodeVector(const std::vector<T> &V) {
  ByteWriter W;
  W.writeVector(V);
  return W.take();
}

template <typename T>
std::vector<T> decodeVector(const std::vector<uint8_t> &Bytes) {
  ByteReader R(Bytes);
  return R.readVector<T>();
}

} // namespace proc
} // namespace wbt

#endif // WBT_PROC_RUNTIME_H
