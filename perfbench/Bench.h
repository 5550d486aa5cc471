//===- perfbench/Bench.h - Shared state of the proc benchmark ---*- C++ -*-===//
//
// Part of the WBTuner reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// State the benchmark driver shares with every process of a tuning job.
/// The driver maps it (MAP_SHARED) before it forks the job, so the root
/// tuning process and everything the runtime forks from it — sampling
/// children, pool workers, zygotes, agents, @split tuning processes —
/// write into the same pages:
///
///   - JobArea: per-region timestamps (always on), per-region run counts,
///     run-wide counters, and the verification records that the driver
///     checks against its own recomputation once the job has exited;
///   - SpanBuffer: the traced run's spans (name, start, end, parent, job,
///     region, run, pid), recorded around the calls this benchmark makes
///     into each layer. Unmapped in untraced runs.
///
//===----------------------------------------------------------------------===//

#ifndef WBT_PERFBENCH_BENCH_H
#define WBT_PERFBENCH_BENCH_H

#include "proc/Runtime.h"

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

/// CLOCK_MONOTONIC nanoseconds (one clock for every process of a job).
int64_t nowNs();

//===----------------------------------------------------------------------===//
// Workloads and their inputs
//===----------------------------------------------------------------------===//

enum class Workload { CannySplit, KmeansBatch, KmeansLongBatch, SvmAgents };

/// Workload by its command-line name; false if unknown.
bool parseWorkload(const std::string &Name, Workload &Out);
const char *workloadName(Workload W);

/// Per-workload shape, fixed by the benchmark (not by the seed).
struct Shape {
  int Regions = 0;        ///< regions per job (canny: root + splits)
  int PlannedRuns = 0;    ///< sampling runs a complete job attempts
  double JobBoundSec = 0; ///< a job past this is killed with its group
};
Shape shapeOf(Workload W);

/// Everything a job reads, generated from the workload seed before any
/// job starts (so before Runtime::init()).
struct Inputs;
Inputs *makeInputs(Workload W, uint64_t Seed);

//===----------------------------------------------------------------------===//
// Shared job state
//===----------------------------------------------------------------------===//

constexpr int MaxRegions = 1024;
constexpr int MaxRecords = 1 << 15;

/// One region of a job, numbered by the benchmark (canny: 0 is the sigma
/// region, 1 + s the region of split s; kmeans: the shard; svm: the
/// dataset).
struct RegionSlot {
  std::atomic<int64_t> FirstStart; ///< earliest run start, 0 = none
  std::atomic<int64_t> LastEnd;    ///< latest run end
  int64_t Open;     ///< tuning side: region (or batch) call entry
  int64_t Callback; ///< tuning side: aggregation callback entry
  int32_t Spawned, Committed, Pruned, Crashed, TimedOut, ForkFailed;
  int32_t Used; ///< the tuning side reached the callback
};

/// Run-wide runtime counters, merged as element-wise maxima of every
/// tuning process's last Runtime::metrics() snapshot (the counters are
/// monotonic and shared, so the latest snapshot wins).
enum Counter {
  CtRestores,
  CtReclaims,
  CtCrashed,
  CtTimedOut,
  CtForkFailures,
  CtShmCommits,
  CtOversized,
  CtLongName,
  CtExhausted,
  CtRemoteLeases,
  CtFrames,
  CtBytes,
  NumCounters
};

/// A value the program observed through AggregationView, for the driver
/// to recompute independently. Kinds are per workload (Programs.cpp).
struct VRecord {
  int32_t Kind;
  int32_t Region;
  int32_t Run;
  int32_t Aux;
  uint64_t Hash;
  double A, B, C;
};

struct JobArea {
  int64_t InitBegin, InitEnd, FinishBegin, FinishEnd;
  int64_t MaxRssKb; ///< root tuning process, at exit
  int32_t Done;     ///< the root tuning process returned from finish()
  std::atomic<uint64_t> Counters[NumCounters];
  std::atomic<int32_t> NumRecords;
  std::atomic<int32_t> RecordOverflow;
  RegionSlot Regions[MaxRegions];
  VRecord Records[MaxRecords];
};

/// The job area mapped by the driver (null outside a job).
extern JobArea *Job;

/// Appends one verification record (any process of the job).
void addRecord(const VRecord &R);

/// Merges \p Rt's counters into the job area (call once per tuning
/// process, after its last region).
void noteMetrics(const wbt::proc::Runtime &Rt);

//===----------------------------------------------------------------------===//
// Spans (traced run only)
//===----------------------------------------------------------------------===//

enum SpanName : uint16_t {
  SpInit,       ///< Runtime::init()
  SpSampling,   ///< tuning side: fork-per-sample sampling() call
  SpAggregate,  ///< tuning side: aggregate() call (supervision + callback)
  SpRegion,     ///< tuning side: samplingRegion() call
  SpBatch,      ///< tuning side: regionBatch() call
  SpCallback,   ///< aggregation callback
  SpLoad,       ///< tuning side: AggregationView::loadBytes() by the program
  SpVerifyRead, ///< tuning side: loadBytes() made only for verification
  SpSplit,      ///< split(), including the gate wait
  SpFinish,     ///< root finish()
  SpRun,        ///< one sampling run's body
  SpCommit,     ///< child-side commitExtra() / pool-lease aggregate()
  SpSmooth,     ///< img::gaussianSmooth
  SpHysteresis, ///< img::hysteresis
  SpKmeans,     ///< clus::kmeans
  SpSvmCv,      ///< k-fold cross-validated SVM training
  NumSpanNames
};

struct Span {
  int64_t Start, End;
  int32_t Parent; ///< index of the enclosing span in the same process
  int32_t JobId;
  int32_t Region;
  int32_t Run;
  int32_t Pid;
  uint16_t Name;
  uint16_t Pad;
};

struct SpanBuffer {
  std::atomic<uint64_t> Count; ///< slots handed out (may exceed Capacity)
  uint64_t Capacity;
  Span Spans[1];
};

/// Mapped by the driver for the traced run; null otherwise.
extern SpanBuffer *Spans;
/// Job id stamped on new spans (set by the driver before each fork).
extern int32_t CurJob;

/// Scoped span. Forked children inherit the open scope of the process
/// that forked them; only the opening process ever closes it, so a child
/// returning through a tuning-side scope (sampling(), split()) leaves the
/// parent's span alone.
class Scope {
public:
  explicit Scope(SpanName N, int Region = -1, int Run = -1);
  ~Scope() { close(); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  void close();

private:
  int64_t Idx = -1;
  int64_t Saved = -1;
  pid_t Owner = 0;
};

/// One sampling run: always records the region's first-start and
/// last-end timestamps; in the traced run also an SpRun span.
class RunScope {
public:
  RunScope(int Region, int Run);
  /// Ends the body (before the commit calls).
  void end();

private:
  int Region;
  Scope S;
  bool Ended = false;
};

//===----------------------------------------------------------------------===//
// Engine options
//===----------------------------------------------------------------------===//

/// Sets field \p Field of \p Obj to \p Value when the field exists, so
/// the benchmark keeps compiling while engine options are renamed or
/// deleted. Evaluates to whether it was set.
#define PB_SET_OPTION(Obj, Field, Value)                                      \
  ([&](auto &O) {                                                             \
    if constexpr (requires { O.Field = (Value); }) {                          \
      O.Field = (Value);                                                      \
      return true;                                                            \
    } else {                                                                  \
      return false;                                                           \
    }                                                                         \
  }(Obj))

/// Options every job of \p W uses: MaxPool = \p Cores, the workload's
/// engine knobs, the per-job seed, and an optional inject plan. Appends
/// "name=value" for every knob it set, or "name=missing".
wbt::proc::RuntimeOptions jobOptions(Workload W, unsigned Cores,
                                     uint64_t Seed, const std::string &Plan,
                                     std::vector<std::string> *Applied);
/// Per-region options of \p W.
wbt::proc::RegionOptions regionOptions(Workload W, unsigned Cores);

//===----------------------------------------------------------------------===//
// Programs and verification
//===----------------------------------------------------------------------===//

/// Runs job \p JobIdx of \p W in the calling (root tuning) process:
/// init(), the program's regions, finish().
void runJob(Workload W, const Inputs &In, int JobIdx,
            const wbt::proc::RuntimeOptions &Opts, unsigned Cores);

struct Verdict {
  int Checked = 0;    ///< values recomputed and compared
  int Mismatches = 0; ///< of those, values that differ
  uint64_t Digest = 0;
  std::string FirstMismatch;
};

/// Recomputes job \p JobIdx's results from the job area's records,
/// using \p Threads threads. \p Perturb flips one reference value (to
/// prove the check can fail).
Verdict verifyJob(Workload W, const Inputs &In, int JobIdx, unsigned Threads,
                  bool Perturb);

} // namespace pb

#endif // WBT_PERFBENCH_BENCH_H
