//===- tests/StressRuntime.cpp - seeded fault-injection soak --------------===//
//
// Part of the WBTuner reproduction, MIT license.
//
// Randomized soak driver for the fork runtime: each seed expands into a
// complete region schedule — backend, fork-per-sample or worker pool,
// sample count, retries, timeouts, an optional @split (sometimes nested
// one level deeper), and a fault plan drawn from the recoverable set
// (EINTR storms, child kill points, fork failures, short writes) — and
// the run must end with every invariant intact:
//
//   * no zombie children (waitpid(-1) says ECHILD),
//   * no leaked file descriptors,
//   * the run directory removed,
//   * pool-slot accounting conserved (freeSlots back to MaxPool - 1),
//   * per-region status conservation (statuses sum to spawned, nothing
//     still Running at resolve).
//
// Every schedule is a pure function of its seed, so any failure line
// (`seed 42 FAILED (exit 5)`) replays exactly with `--seed 42`.
//
// Usage:
//   stress_runtime --batch 200 --seed-base 1   # CI soak
//   stress_runtime --seed 42 [--verbose]       # replay one schedule
//
//===----------------------------------------------------------------------===//

#include "proc/Runtime.h"

#include <dirent.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

using namespace wbt;
using namespace wbt::proc;

namespace {

uint64_t splitmix(uint64_t Z) {
  Z += 0x9e3779b97f4a7c15ULL;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// Tiny deterministic stream over a seed (schedule expansion only).
struct Stream {
  uint64_t S;
  uint64_t next() { return S = splitmix(S); }
  /// Uniform in [0, N).
  uint64_t pick(uint64_t N) { return next() % N; }
  bool chance(int Percent) { return pick(100) < uint64_t(Percent); }
};

/// One seed's expansion. Everything the run does derives from this.
struct Schedule {
  uint64_t Seed = 0;
  StoreBackend Backend = StoreBackend::Shm;
  bool Pool = false;      // samplingRegion instead of fork-per-sample
  int N = 4;              // samples per region
  int Workers = 0;        // pool mode worker override
  int Pipeline = 1;       // > 1: regions run as one pipelined batch
  bool Batch = false;     // pool regions run as one regionBatch() call
  int NetAgents = 0;      // pool mode: remote sampling agents over TCP
  int MaxPool = 6;
  int Retries = 0;        // fork-mode spares
  double TimeoutSec = 0;  // region deadline; 0 = none
  int Regions = 1;
  bool Split = false;     // run one region in a @split child too
  bool SplitTwice = false; // ... and in a @split child of that child
  bool Trace = false;
  int CrashIdx = -1;      // sample index that _exit(3)s
  int SlowIdx = -1;       // sample index that sleeps into the deadline
  std::string Plan;       // fault-injection plan ("" = disarmed)
};

Schedule expand(uint64_t Seed) {
  Stream R{splitmix(Seed ^ 0x57E55ULL)};
  Schedule S;
  S.Seed = Seed;
  S.Backend = R.chance(50) ? StoreBackend::Shm : StoreBackend::Files;
  S.Pool = R.chance(40);
  S.N = 2 + int(R.pick(7)); // 2..8
  S.MaxPool = 4 + int(R.pick(5));
  S.Workers = S.Pool ? 1 + int(R.pick(4)) : 0;
  // Half the pool schedules draw this coin; they run their regions as
  // one regionBatch(), so the workers outlive each region. (It once drew
  // a nursery size too, and still draws it, so no later draw moves.)
  bool OneBatch = S.Pool && R.chance(50);
  if (OneBatch)
    R.pick(4);
  // Half the pool schedules run their regions as one pipelined
  // batch, so the soak hits the shared lease table, the claim-limit
  // gate, and mid-batch rolls with every fault below.
  S.Pipeline = S.Pool && R.chance(50) ? 2 + int(R.pick(3)) : 1;
  S.Regions = S.Pipeline > 1 ? 2 + int(R.pick(2)) : 1 + int(R.pick(2));
  // A slice of the pool schedules add remote sampling agents, so the
  // soak runs mixed local/remote lease windows against every fault
  // below (deadlines dropping connections, crashes inside agents,
  // batch composition).
  S.NetAgents = S.Pool && R.chance(40) ? 1 + int(R.pick(3)) : 0;
  S.Split = R.chance(25);
  S.Trace = R.chance(30);
  if (!S.Pool && R.chance(30))
    S.Retries = 1 + int(R.pick(2));
  if (R.chance(25)) {
    S.TimeoutSec = 0.15;
    S.SlowIdx = int(R.pick(S.N));
  }
  if (R.chance(35))
    S.CrashIdx = int(R.pick(S.N));

  // Fault plan: recoverable faults and child-side kill points only. The
  // fatal sites (mkdtemp/mkdir/mmap at init) abort by design and the
  // unlink site would leave the run directory behind — those have their
  // own directed tests in InjectTest.cpp.
  char Buf[128];
  switch (R.pick(7)) {
  case 0:
    break; // disarmed run
  case 1:
    std::snprintf(Buf, sizeof(Buf), "seed=%" PRIu64 ";waitpid@p0.5:EINTR*0",
                  Seed & 0xffff);
    S.Plan = Buf;
    break;
  case 2:
    S.Plan = "waitpid@n1:EINTR*32";
    break;
  case 3:
    S.Plan = S.Pool ? "tp.lease.begin@n2:kill" : "tp.sample.begin@n1:kill";
    break;
  case 4:
    std::snprintf(Buf, sizeof(Buf), "seed=%" PRIu64 ";write@p0.3:short*2",
                  Seed & 0xffff);
    S.Plan = Buf;
    break;
  case 5:
    std::snprintf(Buf, sizeof(Buf), "fork@n%d:EAGAIN",
                  2 + int(R.pick(3)));
    S.Plan = Buf;
    break;
  case 6:
    // Worker dies rolling from one batch region into the next: its
    // claimed lease must come back and re-run. A no-op for schedules
    // that never emit batch.roll (non-batched, or single-worker luck).
    S.Plan = "tp.batch.roll@n1:kill";
    break;
  }
  // Post-commit kill point, stacked on top sometimes: dying between the
  // commit and the exit must not unbalance any ledger.
  if (R.chance(15))
    S.Plan += std::string(S.Plan.empty() ? "" : ";") + "tp.commit@n1:kill";
  // Distributed runs stack one wire fault: partitions mid-region (the
  // reconnect path), refused connects, frames torn mid-send, and agents
  // SIGKILLed between running their leases and committing them. Every
  // one must resolve to the same invariants through lease reclamation.
  if (S.NetAgents) {
    const char *NetPlan = nullptr;
    switch (R.pick(5)) {
    case 0:
      break; // agents run fault-free
    case 1:
      NetPlan = "recv@n6:ECONNRESET*2"; // partition: both sides drop
      break;
    case 2:
      NetPlan = "connect@n1:ECONNREFUSED"; // first dial refused
      break;
    case 3:
      NetPlan = "send@n3:short"; // frame torn mid-wire
      break;
    case 4:
      NetPlan = "tp.net.frame@n1:kill"; // agent dies pre-commit
      break;
    }
    if (NetPlan)
      S.Plan += std::string(S.Plan.empty() ? "" : ";") + NetPlan;
  }
  // Pipelined schedules always batch; so do the schedules that drew
  // OneBatch, and odd seeds' Pipeline-1 multi-region schedules, which run
  // as one batch with one region in flight, so the claim gate between
  // deliveries (and a deadline in a region the others outlive) meets
  // every fault above. The odd-seed rule is derived, not drawn, so every
  // seed's other draws stay as they were.
  S.Batch = S.Pool && (S.Pipeline > 1 || OneBatch ||
                       (S.Regions > 1 && (Seed & 1)));
  // Half the split schedules nest a second split level, by seed bit 1,
  // which no draw reads (derived like Batch, so no other draw moves). At
  // MaxPool 4 the child's second split() passes the 75% gate only once
  // the root gives its pool slot back in finish().
  S.SplitTwice = S.Split && (Seed & 2);
  return S;
}

std::string describe(const Schedule &S) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "seed %" PRIu64 ": %s %s N=%d pool=%d/%d pipeline=%d "
                "batch=%d regions=%d agents=%d retries=%d timeout=%.2f "
                "split=%d trace=%d crash=%d slow=%d plan='%s'",
                S.Seed, S.Backend == StoreBackend::Shm ? "shm" : "files",
                S.Pool ? "workers" : "fork", S.N, S.Workers, S.MaxPool,
                S.Pipeline, int(S.Batch), S.Regions, S.NetAgents, S.Retries,
                S.TimeoutSec, int(S.Split) + int(S.SplitTwice), int(S.Trace),
                S.CrashIdx, S.SlowIdx, S.Plan.c_str());
  return Buf;
}

int countOpenFds() {
  DIR *D = opendir("/proc/self/fd");
  if (!D)
    return -1;
  int N = 0;
  while (readdir(D))
    ++N;
  closedir(D);
  return N - 1; // exclude the dirfd enumerating itself
}

//===----------------------------------------------------------------------===//
// Harness child: runs one schedule and checks its invariants
//===----------------------------------------------------------------------===//

// Exit codes of the harness child (replay with --seed to debug).
enum : int {
  OkExit = 0,
  BadStatusSum = 10,     // statuses never added up to spawned()
  StillRunning = 11,     // a sample was Running at region resolve
  SlotLeak = 12,         // freeSlots not conserved after the regions
  ZombieLeft = 13,       // waitpid(-1) found an unreaped child
  RunDirLeft = 14,       // finish() did not remove the run directory
  FdLeak = 15,           // open fd count changed across the run
  TraceMissing = 16,     // tracing was on but no trace file appeared
};

/// Runs \p Regions sampling regions (fork mode, worker pool, or one
/// pipelined batch when \p Batch). Returns 0 or a failure exit code.
int runRegions(Runtime &Rt, const Schedule &S, bool Batch, int Regions) {
  RegionOptions Ro;
  Ro.TimeoutSec = S.TimeoutSec > 0 ? S.TimeoutSec : -1.0;
  Ro.MaxRetries = S.Retries;
  Ro.Workers = S.Workers;
  Ro.Pipeline = S.Pipeline;

  int Failure = 0;
  auto Check = [&](AggregationView &V) {
    int Sum = 0;
    for (SampleStatus St :
         {SampleStatus::Running, SampleStatus::Committed,
          SampleStatus::Pruned, SampleStatus::Crashed,
          SampleStatus::TimedOut, SampleStatus::ForkFailed,
          SampleStatus::Unused})
      Sum += V.countStatus(St);
    if (Sum != V.spawned())
      Failure = BadStatusSum;
    else if (V.countStatus(SampleStatus::Running) != 0)
      Failure = StillRunning;
  };

  auto Body = [&] {
    double X = Rt.sample("x", Distribution::uniform(0.0, 1.0));
    if (Rt.isSampling()) {
      if (Rt.sampleIndex() == S.CrashIdx)
        _exit(3);
      if (Rt.sampleIndex() == S.SlowIdx)
        sleep(2); // SIGKILLed by the region deadline long before this
      Rt.check(X < 0.95); // a sliver of organic pruning
    }
    Rt.aggregate("x", encodeDouble(X), Check);
  };

  if (Batch) {
    Rt.regionBatch(Regions, S.N, Ro, Body);
  } else if (S.Pool) {
    for (int R = 0; R != Regions; ++R)
      Rt.samplingRegion(S.N, Ro, Body);
  } else {
    for (int R = 0; R != Regions; ++R) {
      Rt.sampling(S.N, Ro);
      Body();
    }
  }
  return Failure;
}

int runSchedule(const Schedule &S) {
  int FdsBefore = countOpenFds();
  std::string TracePath;
  if (S.Trace)
    TracePath = "/tmp/wbt-stress-trace." + std::to_string(getpid()) +
                "." + std::to_string(S.Seed) + ".json";

  Runtime &Rt = Runtime::get();
  RuntimeOptions Opts;
  Opts.MaxPool = unsigned(S.MaxPool);
  Opts.Seed = S.Seed;
  Opts.Backend = S.Backend;
  Opts.InjectPlan = S.Plan;
  Opts.TracePath = TracePath;
  Opts.NetAgents = unsigned(S.NetAgents);
  Rt.init(Opts);
  std::string RunDir = Rt.runDir();

  if (S.Split && Rt.split()) {
    // Split child: one region of its own, then a clean exit. Its exit
    // code folds into its parent's reap; invariant failures surface as an
    // abnormal split-child death the parent logs (and ZombieLeft below).
    // With SplitTwice it splits first, and its child does the same.
    if (S.SplitTwice)
      Rt.split();
    int Code = runRegions(Rt, S, /*Batch=*/false, 1);
    if (Code)
      _exit(Code);
    Rt.finishAndExit();
  }

  if (int Code = runRegions(Rt, S, S.Batch, S.Regions))
    return Code;

  // Slot conservation: every sampling child and split descendant gone,
  // only this root still holds its slot. Without a split child the pool
  // must read exactly MaxPool - 1 free right now; with one, finish()
  // below still has to tear down cleanly (checked via run dir + ECHILD).
  if (!S.Split && Rt.freeSlots() != S.MaxPool - 1)
    return SlotLeak;

  Rt.finish();

  errno = 0;
  if (waitpid(-1, nullptr, WNOHANG) != -1 || errno != ECHILD)
    return ZombieLeft;
  if (access(RunDir.c_str(), F_OK) == 0)
    return RunDirLeft;
  if (S.Trace) {
    if (access(TracePath.c_str(), F_OK) != 0)
      return TraceMissing;
    std::remove(TracePath.c_str());
  }
  if (countOpenFds() != FdsBefore)
    return FdLeak;
  return OkExit;
}

//===----------------------------------------------------------------------===//
// Parent driver: one harness process per seed, with a hang deadline
//===----------------------------------------------------------------------===//

double monoNow() {
  timespec T;
  clock_gettime(CLOCK_MONOTONIC, &T);
  return double(T.tv_sec) + double(T.tv_nsec) * 1e-9;
}

/// Forks a harness child for \p S and reaps it under \p DeadlineSec.
/// Returns the child's exit code, or -Signal for abnormal deaths, or
/// -1000 for a hang (killed at the deadline).
int superviseSchedule(const Schedule &S, double DeadlineSec) {
  std::fflush(nullptr);
  pid_t Pid = fork();
  if (Pid == 0) {
    // Own process group: a hang is cleaned up with one kill(-pgid),
    // sweeping any runtime children the harness leaves behind.
    setpgid(0, 0);
    _exit(runSchedule(S));
  }
  if (Pid < 0)
    return -1001;
  setpgid(Pid, Pid); // both sides set it: no startup race
  double Deadline = monoNow() + DeadlineSec;
  int St = 0;
  for (;;) {
    pid_t R = waitpid(Pid, &St, WNOHANG);
    if (R == Pid)
      break;
    if (monoNow() > Deadline) {
      kill(-Pid, SIGKILL);
      waitpid(Pid, &St, 0);
      kill(-Pid, SIGKILL); // orphans that joined the group after the reap
      return -1000;
    }
    usleep(2000);
  }
  // Sweep stragglers the schedule may have orphaned (ESRCH when clean).
  kill(-Pid, SIGKILL);
  if (WIFEXITED(St))
    return WEXITSTATUS(St);
  return WIFSIGNALED(St) ? -WTERMSIG(St) : -999;
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t SeedBase = 1;
  int Batch = 0;
  int64_t OneSeed = -1;
  bool Verbose = false;
  double DeadlineSec = 30.0;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : "";
    };
    if (A == "--seed")
      OneSeed = std::strtoll(Next(), nullptr, 10);
    else if (A == "--batch")
      Batch = int(std::strtol(Next(), nullptr, 10));
    else if (A == "--seed-base")
      SeedBase = std::strtoull(Next(), nullptr, 10);
    else if (A == "--deadline")
      DeadlineSec = std::strtod(Next(), nullptr);
    else if (A == "--verbose")
      Verbose = true;
    else {
      std::fprintf(stderr,
                   "usage: %s [--seed N | --batch N [--seed-base B]] "
                   "[--deadline SEC] [--verbose]\n",
                   Argv[0]);
      return 2;
    }
  }
  if (OneSeed >= 0) {
    Schedule S = expand(uint64_t(OneSeed));
    std::fprintf(stderr, "%s\n", describe(S).c_str());
    int Code = superviseSchedule(S, DeadlineSec);
    std::fprintf(stderr, "seed %lld -> exit %d\n",
                 static_cast<long long>(OneSeed), Code);
    return Code == 0 ? 0 : 1;
  }
  if (Batch <= 0) {
    std::fprintf(stderr, "%s: need --seed N or --batch N\n", Argv[0]);
    return 2;
  }

  int Failures = 0;
  double T0 = monoNow();
  for (int I = 0; I != Batch; ++I) {
    uint64_t Seed = SeedBase + uint64_t(I);
    Schedule S = expand(Seed);
    if (Verbose)
      std::fprintf(stderr, "%s\n", describe(S).c_str());
    int Code = superviseSchedule(S, DeadlineSec);
    if (Code != 0) {
      ++Failures;
      std::fprintf(stderr,
                   "stress_runtime: seed %" PRIu64 " FAILED (%s %d); "
                   "replay: stress_runtime --seed %" PRIu64 " --verbose\n",
                   Seed,
                   Code == -1000  ? "HANG, killed after deadline; code"
                   : Code < 0     ? "signal"
                                  : "exit",
                   Code < 0 ? -Code : Code, Seed);
      std::fprintf(stderr, "  schedule: %s\n", describe(S).c_str());
    }
  }
  std::fprintf(stderr,
               "stress_runtime: %d schedules (seeds %" PRIu64 "..%" PRIu64
               "), %d failure%s, %.1fs\n",
               Batch, SeedBase, SeedBase + uint64_t(Batch) - 1, Failures,
               Failures == 1 ? "" : "s", monoNow() - T0);
  return Failures ? 1 : 0;
}
