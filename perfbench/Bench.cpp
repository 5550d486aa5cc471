//===- perfbench/Bench.cpp - Shared state, spans, engine options ----------===//
//
// Part of the WBTuner reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <unistd.h>

#include <algorithm>
#include <ctime>

using namespace wbt;

namespace pb {

JobArea *Job = nullptr;
SpanBuffer *Spans = nullptr;
int32_t CurJob = -1;

namespace {
/// Innermost open span of this process (inherited across fork).
int64_t Top = -1;

void storeMax(std::atomic<uint64_t> &Cell, uint64_t V) {
  uint64_t Cur = Cell.load(std::memory_order_relaxed);
  while (Cur < V &&
         !Cell.compare_exchange_weak(Cur, V, std::memory_order_relaxed)) {
  }
}

/// Reads a RuntimeMetrics field that may not exist in every version of
/// the runtime; missing fields read as 0.
#define PB_METRIC(M, Field)                                                   \
  ([&](const auto &X) -> uint64_t {                                           \
    if constexpr (requires { X.Field; })                                      \
      return static_cast<uint64_t>(X.Field);                                  \
    else                                                                      \
      return 0;                                                               \
  }(M))
} // namespace

int64_t nowNs() {
  timespec T;
  clock_gettime(CLOCK_MONOTONIC, &T);
  return static_cast<int64_t>(T.tv_sec) * 1000000000 + T.tv_nsec;
}

bool parseWorkload(const std::string &Name, Workload &Out) {
  for (Workload W : {Workload::CannySplit, Workload::KmeansBatch,
                     Workload::KmeansLongBatch, Workload::SvmAgents})
    if (Name == workloadName(W)) {
      Out = W;
      return true;
    }
  return false;
}

const char *workloadName(Workload W) {
  switch (W) {
  case Workload::CannySplit:
    return "canny-split";
  case Workload::KmeansBatch:
    return "kmeans-batch";
  case Workload::KmeansLongBatch:
    return "kmeans-longbatch";
  case Workload::SvmAgents:
    return "svm-agents";
  }
  return "?";
}

void addRecord(const VRecord &R) {
  int32_t I = Job->NumRecords.fetch_add(1, std::memory_order_relaxed);
  if (I >= MaxRecords) {
    Job->RecordOverflow.store(1, std::memory_order_relaxed);
    return;
  }
  Job->Records[I] = R;
}

void noteMetrics(const proc::Runtime &Rt) {
  obs::RuntimeMetrics M = Rt.metrics();
  uint64_t V[NumCounters] = {};
  V[CtRestores] = PB_METRIC(M, ZygoteRestores);
  V[CtReclaims] = PB_METRIC(M, LeaseReclaims);
  V[CtCrashed] = PB_METRIC(M, CrashedSamples);
  V[CtTimedOut] = PB_METRIC(M, TimedOutSamples);
  V[CtForkFailures] = PB_METRIC(M, ForkFailures);
  V[CtShmCommits] = PB_METRIC(M, ShmCommits);
  V[CtOversized] = M.Fallbacks[int(obs::FallbackReason::Oversized)];
  V[CtLongName] = M.Fallbacks[int(obs::FallbackReason::LongName)];
  V[CtExhausted] = M.Fallbacks[int(obs::FallbackReason::Exhausted)];
  V[CtRemoteLeases] = PB_METRIC(M, NetRemoteLeases);
  V[CtFrames] = PB_METRIC(M, NetFrames);
  V[CtBytes] = PB_METRIC(M, NetBytesIn) + PB_METRIC(M, NetBytesOut);
  for (int I = 0; I != NumCounters; ++I)
    storeMax(Job->Counters[I], V[I]);
}

Scope::Scope(SpanName N, int Region, int Run) {
  if (!Spans)
    return;
  uint64_t I = Spans->Count.fetch_add(1, std::memory_order_relaxed);
  if (I >= Spans->Capacity)
    return; // full: the driver reports the drop count
  Span &S = Spans->Spans[I];
  S.End = 0;
  S.Parent = static_cast<int32_t>(Top);
  S.JobId = CurJob;
  S.Region = Region;
  S.Run = Run;
  S.Pid = static_cast<int32_t>(getpid());
  S.Name = N;
  Idx = static_cast<int64_t>(I);
  Saved = Top;
  Owner = S.Pid;
  Top = Idx;
  S.Start = nowNs();
}

void Scope::close() {
  if (Idx < 0)
    return;
  if (getpid() == Owner)
    Spans->Spans[Idx].End = nowNs();
  Top = Saved;
  Idx = -1;
}

RunScope::RunScope(int Region, int Run)
    : Region(Region), S(SpRun, Region, Run) {
  int64_t T = nowNs();
  std::atomic<int64_t> &First = Job->Regions[Region].FirstStart;
  int64_t Cur = First.load(std::memory_order_relaxed);
  while ((Cur == 0 || T < Cur) &&
         !First.compare_exchange_weak(Cur, T, std::memory_order_relaxed)) {
  }
}

void RunScope::end() {
  if (Ended)
    return;
  Ended = true;
  int64_t T = nowNs();
  std::atomic<int64_t> &Last = Job->Regions[Region].LastEnd;
  int64_t Cur = Last.load(std::memory_order_relaxed);
  while (Cur < T &&
         !Last.compare_exchange_weak(Cur, T, std::memory_order_relaxed)) {
  }
  S.close();
}

namespace {
/// Agents over localhost TCP and local workers share the cores with the
/// root tuning process.
unsigned svmAgents(unsigned Cores) {
  return std::min(2u, std::max(1u, Cores > 2 ? Cores - 2 : 1u));
}
unsigned svmLocalWorkers(unsigned Cores) {
  unsigned Agents = svmAgents(Cores);
  return Cores > Agents + 1 ? Cores - 1 - Agents : 1;
}
} // namespace

proc::RuntimeOptions jobOptions(Workload W, unsigned Cores, uint64_t Seed,
                                const std::string &Plan,
                                std::vector<std::string> *Applied) {
  proc::RuntimeOptions O;
  auto Note = [&](const char *Name, long Value, bool Set) {
    if (Applied)
      Applied->push_back(std::string(Name) + "=" +
                         (Set ? std::to_string(Value) : "missing"));
  };
  Note("MaxPool", Cores, PB_SET_OPTION(O, MaxPool, Cores));
  PB_SET_OPTION(O, Seed, Seed);
  if (!Plan.empty())
    PB_SET_OPTION(O, InjectPlan, Plan);
  switch (W) {
  case Workload::CannySplit:
    break;
  case Workload::KmeansBatch:
  case Workload::KmeansLongBatch:
    Note("Zygotes", Cores - 1, PB_SET_OPTION(O, Zygotes, Cores - 1));
    Note("WorkerPool", Cores - 1, PB_SET_OPTION(O, WorkerPool, Cores - 1));
    break;
  case Workload::SvmAgents:
    Note("NetAgents", svmAgents(Cores),
         PB_SET_OPTION(O, NetAgents, svmAgents(Cores)));
    Note("WorkerPool", svmLocalWorkers(Cores),
         PB_SET_OPTION(O, WorkerPool, svmLocalWorkers(Cores)));
    break;
  }
  return O;
}

proc::RegionOptions regionOptions(Workload W, unsigned Cores) {
  proc::RegionOptions Ro;
  switch (W) {
  case Workload::CannySplit:
    break;
  case Workload::KmeansBatch:
  case Workload::KmeansLongBatch:
    PB_SET_OPTION(Ro, Pipeline, 4);
    PB_SET_OPTION(Ro, Workers, static_cast<int>(Cores - 1));
    break;
  case Workload::SvmAgents:
    PB_SET_OPTION(Ro, Workers, static_cast<int>(svmLocalWorkers(Cores)));
    break;
  }
  return Ro;
}

} // namespace pb
