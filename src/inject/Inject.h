//===- inject/Inject.h - Deterministic fault injection ----------*- C++ -*-===//
//
// Part of the WBTuner reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded, deterministic fault injection for the fork runtime. The
/// runtime's hazardous syscalls go through thin `wbt::sys::*` wrappers
/// (inject/Sys.h) which consult an armed *plan* before touching the
/// kernel; trace points double as kill points. A plan is a compact
/// string — from `RuntimeOptions::InjectPlan` or the `WBT_INJECT`
/// environment variable — so any failing run is replayable from the
/// plan text plus its seed.
///
/// Plan grammar (clauses separated by ';'):
///
///   plan   := item (';' item)*
///   item   := 'seed=' N | clause
///   clause := site '@' sel ':' act
///   site   := fork | mmap | mkdtemp | mkdir | waitpid | write | read
///           | unlink | opendir | socket | connect | accept | send
///           | recv | 'tp.' point-name
///   sel    := 'n' N        -- eligible from the Nth call on (1-based,
///                             per process; children inherit counters)
///           | 'p' FLOAT    -- each eligible call fires with probability
///                             FLOAT (seeded hash; deterministic)
///   act    := ERRNO ['*' count]  -- fail with that errno; the clause
///                                   fires at most `count` times
///                                   (default 1 for 'n', unlimited for
///                                   'p'; '*0' = unlimited)
///           | 'short' ['*' count] -- write site: truncate the write
///                                    halfway, then fail with ENOSPC;
///                                    send site: push half the frame
///                                    onto the wire, then fail with
///                                    EPIPE (a genuinely torn frame)
///           | 'kill' ['*' count]  -- SIGKILL the calling process
///                                    (trace-point sites)
///
/// Examples:
///   waitpid@n1:EINTR*8           first 8 waitpid calls are interrupted
///   fork@n2:EAGAIN               the 2nd fork of each process fails once
///   mkdtemp@n1:EACCES            init's run-directory creation fails
///   write@p0.1:short             10% of file-store writes truncate
///   connect@n1:ECONNREFUSED      an agent's first connect is refused
///   send@n3:short                the 3rd send tears a frame mid-wire
///   tp.sample.begin@n1:kill      SIGKILL at the first sample trace point
///   seed=7;fork@p0.05:EAGAIN*3   seeded probabilistic fork failures
///
/// Determinism: every decision is a pure function of (plan seed, site,
/// per-process call counter, process tag). Counters are process-local
/// and inherited across fork(2); the runtime tags each forked sampling
/// child / pool worker / split child with its deterministic identity
/// (tagProcess), so probabilistic clauses land on the same child
/// identities across replays of the same schedule. Interleaving-
/// dependent call orders (pool workers racing on leases) can shift
/// which *call* fires, never whether the run as a whole is replayable
/// from the plan.
///
/// When no plan is armed every hook is a single relaxed load of one
/// global flag and a predicted-not-taken branch — nothing measurable on
/// paths that are about to enter the kernel anyway (the
/// `shm+fold+workerpool+inject` ablation row pins this).
///
//===----------------------------------------------------------------------===//

#ifndef WBT_INJECT_INJECT_H
#define WBT_INJECT_INJECT_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace wbt {
namespace inject {

/// Wrapper points a plan clause can target. TracePoint clauses match on
/// the point's name instead (Clause::Point).
enum class Site : int {
  Fork = 0,
  Mmap,
  Mkdtemp,
  Mkdir,
  Waitpid,
  Write,
  Read,
  Unlink,
  Opendir,
  Socket,
  Connect,
  Accept,
  Send,
  Recv,
  TracePoint,
};
constexpr int NumSites = static_cast<int>(Site::TracePoint) + 1;

/// One parsed plan clause. See the file header for the grammar.
struct Clause {
  Site S = Site::Fork;
  std::string Point;    ///< trace-point name (Site::TracePoint only)
  uint64_t FromNth = 1; ///< eligible from this call ordinal (1-based)
  double P = -1.0;      ///< >= 0: per-call firing probability
  int64_t Budget = 1;   ///< remaining firings; < 0 = unlimited
  int Err = 0;          ///< errno delivered when the clause fires
  bool Short = false;   ///< truncate the write halfway (write site)
  bool Kill = false;    ///< SIGKILL the calling process
};

struct Plan {
  uint64_t Seed = 1;
  std::vector<Clause> Clauses;
};

/// Parses \p Text into \p Out. On failure returns false and describes
/// the offending clause in \p Err.
bool parsePlan(const std::string &Text, Plan &Out, std::string &Err);

/// Arms \p P process-wide and resets all call counters. Forked children
/// inherit the armed state and the counters at their fork point.
void arm(const Plan &P);
/// Convenience: parse + arm. Returns false (leaving injection disarmed)
/// on a parse error.
bool armText(const std::string &Text, std::string &Err);
void disarm();

namespace detail {
extern std::atomic<bool> GArmed;
/// Slow paths; only reached while a plan is armed.
int onCallSlow(Site S);
int onWriteSlow(size_t Size, size_t &Allowed);
int onSendSlow(size_t Size, size_t &Allowed);
void onTracePointSlow(const char *Name);
} // namespace detail

/// Whether a plan is armed. The disarmed fast path of every hook.
inline bool armed() {
  return detail::GArmed.load(std::memory_order_relaxed);
}

/// Consults the plan for one call at \p S. Returns 0 to proceed with
/// the real call, or an errno the wrapper must fail with.
inline int onCall(Site S) {
  if (!armed())
    return 0;
  return detail::onCallSlow(S);
}

/// Write-site variant: on failure \p Allowed is how many of \p Size
/// bytes the wrapper should still write before failing (short writes).
inline int onWrite(size_t Size, size_t &Allowed) {
  if (!armed())
    return 0;
  return detail::onWriteSlow(Size, Allowed);
}

/// Send-site variant: on failure \p Allowed is how many of \p Size
/// bytes the wrapper should still push onto the wire before failing
/// (torn frames — the peer reads a half-written length-prefixed frame).
inline int onSend(size_t Size, size_t &Allowed) {
  if (!armed())
    return 0;
  return detail::onSendSlow(Size, Allowed);
}

/// Kill-point hook, called from the runtime's trace points with the
/// point's name. May not return (SIGKILL).
inline void onTracePoint(const char *Name) {
  if (armed())
    detail::onTracePointSlow(Name);
}

/// Mixes a deterministic per-process identity (e.g. region << 20 |
/// child index) into this process' probabilistic decisions, so 'p'
/// clauses select the same child identities across replays instead of
/// all-or-none of a region's children.
void tagProcess(uint64_t Tag);

/// Calls observed at \p S in this process so far (tests/diagnostics).
uint64_t callCount(Site S);

const char *siteName(Site S);

} // namespace inject
} // namespace wbt

#endif // WBT_INJECT_INJECT_H
