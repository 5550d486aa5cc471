//===- inject/Inject.cpp - Deterministic fault injection ------------------===//
//
// Part of the WBTuner reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "inject/Inject.h"

#include <signal.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

using namespace wbt;
using namespace wbt::inject;

namespace {

/// The armed plan plus per-process execution state. Plain process
/// memory: forked children inherit a snapshot of the counters, which is
/// exactly what makes per-child decisions deterministic.
struct State {
  Plan ThePlan;
  std::atomic<uint64_t> Counters[NumSites];
  uint64_t ProcessTag = 0;
};

State GState;

uint64_t splitmix(uint64_t Z) {
  Z += 0x9e3779b97f4a7c15ULL;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// Deterministic per-call coin for 'p' clauses: a pure function of the
/// plan seed, the process tag, the site, and the call ordinal.
bool coin(Site S, uint64_t Nth, double P) {
  uint64_t H = splitmix(GState.ThePlan.Seed ^
                        splitmix(GState.ProcessTag ^
                                 (static_cast<uint64_t>(S) << 32) ^ Nth));
  return static_cast<double>(H >> 11) * (1.0 / 9007199254740992.0) < P;
}

/// Whether \p C fires for call ordinal \p Nth, consuming budget.
bool clauseFires(Clause &C, uint64_t Nth) {
  if (Nth < C.FromNth || C.Budget == 0)
    return false;
  if (C.P >= 0 && !coin(C.S, Nth, C.P))
    return false;
  if (C.Budget > 0)
    --C.Budget;
  return true;
}

struct ErrnoName {
  const char *Name;
  int Value;
};

constexpr ErrnoName ErrnoNames[] = {
    {"EINTR", EINTR},   {"EAGAIN", EAGAIN},
    {"ENOMEM", ENOMEM}, {"ENOSPC", ENOSPC},
    {"EACCES", EACCES}, {"EIO", EIO},
    {"EMFILE", EMFILE}, {"ENFILE", ENFILE},
    {"ENOENT", ENOENT}, {"ECHILD", ECHILD},
    {"EBADF", EBADF},   {"EROFS", EROFS},
    {"ECONNREFUSED", ECONNREFUSED},
    {"ECONNRESET", ECONNRESET},
    {"EPIPE", EPIPE},   {"ETIMEDOUT", ETIMEDOUT},
};

int errnoFromName(const std::string &Name) {
  for (const ErrnoName &E : ErrnoNames)
    if (Name == E.Name)
      return E.Value;
  // Raw numbers are accepted for anything not in the table.
  char *End = nullptr;
  long V = std::strtol(Name.c_str(), &End, 10);
  if (End && *End == '\0' && V > 0)
    return static_cast<int>(V);
  return -1;
}

struct SiteToken {
  const char *Name;
  Site S;
};

constexpr SiteToken SiteTokens[] = {
    {"fork", Site::Fork},       {"mmap", Site::Mmap},
    {"mkdtemp", Site::Mkdtemp}, {"mkdir", Site::Mkdir},
    {"waitpid", Site::Waitpid}, {"write", Site::Write},
    {"read", Site::Read},       {"unlink", Site::Unlink},
    {"opendir", Site::Opendir}, {"socket", Site::Socket},
    {"connect", Site::Connect}, {"accept", Site::Accept},
    {"send", Site::Send},       {"recv", Site::Recv},
    {"tp", Site::TracePoint},
};

bool parseUint(const std::string &S, uint64_t &Out) {
  if (S.empty())
    return false;
  char *End = nullptr;
  unsigned long long V = std::strtoull(S.c_str(), &End, 10);
  if (!End || *End != '\0')
    return false;
  Out = V;
  return true;
}

/// Parses one `site@sel:act` clause.
bool parseClause(const std::string &Item, Clause &C, std::string &Err) {
  size_t At = Item.find('@');
  size_t Colon = At == std::string::npos ? std::string::npos
                                         : Item.find(':', At + 1);
  if (At == std::string::npos || Colon == std::string::npos) {
    Err = "clause '" + Item + "' is not site@sel:act";
    return false;
  }
  std::string SiteStr = Item.substr(0, At);
  std::string Sel = Item.substr(At + 1, Colon - At - 1);
  std::string Act = Item.substr(Colon + 1);

  // Site, with the `tp.<name>` form carrying the trace-point name.
  std::string PointName;
  if (SiteStr.compare(0, 3, "tp.") == 0) {
    PointName = SiteStr.substr(3);
    SiteStr = "tp";
  }
  bool SiteOk = false;
  for (const SiteToken &T : SiteTokens)
    if (SiteStr == T.Name) {
      C.S = T.S;
      SiteOk = true;
      break;
    }
  if (!SiteOk || (C.S == Site::TracePoint && PointName.empty())) {
    Err = "unknown site '" + SiteStr + "' in '" + Item + "'";
    return false;
  }
  C.Point = PointName;

  // Selector: nN (ordinal) or pF (probability).
  bool Probabilistic = false;
  if (Sel.size() > 1 && Sel[0] == 'n') {
    if (!parseUint(Sel.substr(1), C.FromNth) || C.FromNth == 0) {
      Err = "bad ordinal selector '" + Sel + "' in '" + Item + "'";
      return false;
    }
  } else if (Sel.size() > 1 && Sel[0] == 'p') {
    char *End = nullptr;
    C.P = std::strtod(Sel.c_str() + 1, &End);
    if (!End || *End != '\0' || C.P < 0.0 || C.P > 1.0) {
      Err = "bad probability selector '" + Sel + "' in '" + Item + "'";
      return false;
    }
    Probabilistic = true;
  } else {
    Err = "bad selector '" + Sel + "' in '" + Item + "'";
    return false;
  }

  // Action, with an optional '*count' firing budget.
  C.Budget = Probabilistic ? -1 : 1;
  size_t Star = Act.find('*');
  if (Star != std::string::npos) {
    uint64_t N = 0;
    if (!parseUint(Act.substr(Star + 1), N)) {
      Err = "bad count in '" + Item + "'";
      return false;
    }
    C.Budget = N == 0 ? -1 : static_cast<int64_t>(N);
    Act = Act.substr(0, Star);
  }
  if (Act == "kill") {
    if (C.S != Site::TracePoint) {
      Err = "'kill' is only valid at tp.* sites ('" + Item + "')";
      return false;
    }
    C.Kill = true;
    return true;
  }
  if (Act == "short") {
    if (C.S != Site::Write && C.S != Site::Send) {
      Err = "'short' is only valid at the write/send sites ('" + Item + "')";
      return false;
    }
    C.Short = true;
    C.Err = C.S == Site::Send ? EPIPE : ENOSPC;
    return true;
  }
  C.Err = errnoFromName(Act);
  if (C.Err <= 0) {
    Err = "unknown errno '" + Act + "' in '" + Item + "'";
    return false;
  }
  if (C.S == Site::TracePoint) {
    Err = "tp.* sites only support 'kill' ('" + Item + "')";
    return false;
  }
  return true;
}

/// First clause of \p S (matching \p Point at trace points) that fires
/// for this call, or null.
Clause *decide(Site S, const char *Point = nullptr) {
  uint64_t Nth = GState.Counters[static_cast<int>(S)].fetch_add(
                     1, std::memory_order_relaxed) +
                 1;
  for (Clause &C : GState.ThePlan.Clauses) {
    if (C.S != S)
      continue;
    if (S == Site::TracePoint && (!Point || C.Point != Point))
      continue;
    if (clauseFires(C, Nth))
      return &C;
  }
  return nullptr;
}

} // namespace

namespace wbt {
namespace inject {
namespace detail {

std::atomic<bool> GArmed{false};

int onCallSlow(Site S) {
  Clause *C = decide(S);
  return C ? C->Err : 0;
}

int onWriteSlow(size_t Size, size_t &Allowed) {
  Clause *C = decide(Site::Write);
  if (!C)
    return 0;
  Allowed = C->Short ? Size / 2 : 0;
  return C->Err;
}

int onSendSlow(size_t Size, size_t &Allowed) {
  Clause *C = decide(Site::Send);
  if (!C)
    return 0;
  Allowed = C->Short ? Size / 2 : 0;
  return C->Err;
}

void onTracePointSlow(const char *Name) {
  Clause *C = decide(Site::TracePoint, Name);
  if (C && C->Kill)
    raise(SIGKILL);
}

} // namespace detail

bool parsePlan(const std::string &Text, Plan &Out, std::string &Err) {
  Out = Plan();
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t Semi = Text.find(';', Pos);
    std::string Item = Text.substr(
        Pos, Semi == std::string::npos ? std::string::npos : Semi - Pos);
    Pos = Semi == std::string::npos ? Text.size() + 1 : Semi + 1;
    if (Item.empty())
      continue;
    if (Item.compare(0, 5, "seed=") == 0) {
      if (!parseUint(Item.substr(5), Out.Seed)) {
        Err = "bad seed in '" + Item + "'";
        return false;
      }
      continue;
    }
    Clause C;
    if (!parseClause(Item, C, Err))
      return false;
    Out.Clauses.push_back(std::move(C));
  }
  return true;
}

void arm(const Plan &P) {
  GState.ThePlan = P;
  for (std::atomic<uint64_t> &C : GState.Counters)
    C.store(0, std::memory_order_relaxed);
  GState.ProcessTag = 0;
  detail::GArmed.store(!P.Clauses.empty(), std::memory_order_relaxed);
}

bool armText(const std::string &Text, std::string &Err) {
  Plan P;
  if (!parsePlan(Text, P, Err))
    return false;
  arm(P);
  return true;
}

void disarm() {
  detail::GArmed.store(false, std::memory_order_relaxed);
  GState.ThePlan = Plan();
}

void tagProcess(uint64_t Tag) { GState.ProcessTag = Tag; }

uint64_t callCount(Site S) {
  return GState.Counters[static_cast<int>(S)].load(std::memory_order_relaxed);
}

const char *siteName(Site S) {
  for (const SiteToken &T : SiteTokens)
    if (T.S == S)
      return T.Name;
  return "unknown";
}

} // namespace inject
} // namespace wbt
