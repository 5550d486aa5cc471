//===- daemon/Daemon.cpp - The multi-tenant tuning daemon -----------------===//
//
// Part of the WBTuner reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "daemon/Daemon.h"

#include "daemon/FairShare.h"
#include "daemon/JobRunner.h"
#include "inject/Sys.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>

using namespace wbt;
using namespace wbt::daemon;

namespace {

/// More simultaneous control connections than this is abuse, not
/// tenancy (same reasoning as MetricsEndpoint::MaxScrapeConns).
constexpr size_t MaxCtlClients = 64;

void setNonBlocking(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  if (Flags >= 0)
    ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
}

void closeIf(int &Fd) {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

} // namespace

Daemon::~Daemon() {
  for (auto &E : Jobs) {
    closeIf(E.second.CapFd);
    closeIf(E.second.StatusFd);
  }
  for (const std::unique_ptr<Client> &C : Clients)
    ::close(C->Fd);
  Clients.clear();
  closeIf(ListenFd);
  if (SocketBound)
    ::unlink(Opts.SocketPath.c_str());
}

bool Daemon::bindControlSocket() {
  sockaddr_un Sa{};
  Sa.sun_family = AF_UNIX;
  if (Opts.SocketPath.empty() ||
      Opts.SocketPath.size() >= sizeof(Sa.sun_path)) {
    std::fprintf(stderr, "wbtuned: bad socket path '%s'\n",
                 Opts.SocketPath.c_str());
    return false;
  }
  std::memcpy(Sa.sun_path, Opts.SocketPath.c_str(),
              Opts.SocketPath.size() + 1);
  for (int Attempt = 0; Attempt != 2; ++Attempt) {
    int Fd = sys::socketUnix();
    if (Fd < 0)
      return false;
    if (::bind(Fd, reinterpret_cast<sockaddr *>(&Sa), sizeof(Sa)) == 0) {
      if (::listen(Fd, 16) != 0) {
        ::close(Fd);
        return false;
      }
      setNonBlocking(Fd);
      ListenFd = Fd;
      SocketBound = true;
      return true;
    }
    ::close(Fd);
    if (errno != EADDRINUSE || Attempt == 1)
      return false;
    // A path can be in use because a daemon is alive, or because one
    // was SIGKILLed and left the inode behind. Probe: a live daemon
    // accepts; a stale socket refuses.
    int Probe = sys::socketUnix();
    if (Probe < 0)
      return false;
    bool Alive =
        ::connect(Probe, reinterpret_cast<sockaddr *>(&Sa), sizeof(Sa)) == 0;
    ::close(Probe);
    if (Alive) {
      errno = EADDRINUSE;
      std::fprintf(stderr, "wbtuned: %s: daemon already running\n",
                   Opts.SocketPath.c_str());
      return false;
    }
    ::unlink(Opts.SocketPath.c_str());
  }
  return false;
}

bool Daemon::start() {
  // Cap updates go to runners over pipes, where MSG_NOSIGNAL cannot
  // help: a runner that exits between finishing its last region and
  // being reaped leaves a widowed read end, and the default SIGPIPE
  // disposition would kill the whole daemon on the next rebalance.
  // Ignore it so those writes surface as EPIPE (already best-effort).
  std::signal(SIGPIPE, SIG_IGN);
  if (Opts.Budget == 0) {
    long N = ::sysconf(_SC_NPROCESSORS_ONLN);
    Opts.Budget = N > 3 ? static_cast<uint32_t>(N - 1) : 2;
  }
  if (Opts.MaxJobs == 0)
    Opts.MaxJobs = 1;
  if (!bindControlSocket())
    return false;
  void *Mem = sys::mmapShared(Opts.MaxJobs * sizeof(obs::MetricsSnapshotPage));
  if (Mem == MAP_FAILED) {
    std::fprintf(stderr, "wbtuned: metrics mapping failed: %s\n",
                 std::strerror(errno));
    return false;
  }
  Pages = static_cast<obs::MetricsSnapshotPage *>(Mem);
  for (int I = static_cast<int>(Opts.MaxJobs); I-- != 0;)
    FreePages.push_back(I);
  if (!Opts.MetricsAddress.empty()) {
    MetricsEp = std::make_unique<net::MetricsEndpoint>(
        [this] { return renderExposition(); });
    if (!MetricsEp->listen(Opts.MetricsAddress)) {
      std::fprintf(stderr, "wbtuned: cannot listen on %s: %s\n",
                   Opts.MetricsAddress.c_str(), std::strerror(errno));
      return false;
    }
  }
  return true;
}

bool Daemon::draining() const {
  return DrainRequested || (Opts.DrainSignal && *Opts.DrainSignal);
}

size_t Daemon::liveJobs() const {
  size_t N = 0;
  for (const auto &E : Jobs)
    if (E.second.State == JobState::Queued ||
        E.second.State == JobState::Running)
      ++N;
  return N;
}

int Daemon::run() {
  // A drained daemon lingers, still serving and still refusing work,
  // while a client that submitted a job has not been sent its JobDone:
  // that client's WaitReq may still be on the way (wbtctl submit --wait
  // racing a drain). Bounded, for a client that never asks.
  constexpr auto Linger = std::chrono::seconds(2);
  std::chrono::steady_clock::time_point DrainedAt{};
  bool Drained = false;
  for (;;) {
    pumpOnce(50);
    // Drain exits once every admitted job has been *reaped* — exiting
    // between a runner's death and its waitpid would leak a zombie.
    if (!draining() || liveJobs() != 0)
      continue;
    bool Unreaped = false;
    for (const auto &E : Jobs)
      if (E.second.Pid != 0)
        Unreaped = true;
    if (Unreaped)
      continue;
    auto Now = std::chrono::steady_clock::now();
    if (!Drained) {
      Drained = true;
      DrainedAt = Now;
    }
    if (!owesClients() || Now - DrainedAt > Linger)
      break;
  }
  for (const std::unique_ptr<Client> &C : Clients)
    ::close(C->Fd);
  Clients.clear();
  closeIf(ListenFd);
  if (MetricsEp)
    MetricsEp->closeAll();
  if (SocketBound) {
    ::unlink(Opts.SocketPath.c_str());
    SocketBound = false;
  }
  return 0;
}

void Daemon::pumpOnce(int TimeoutMs) {
  reapRunners();
  admitQueued();

  std::vector<pollfd> Pfds;
  Pfds.push_back({ListenFd, POLLIN, 0});
  for (const std::unique_ptr<Client> &C : Clients)
    Pfds.push_back({C->Fd,
                    static_cast<short>(C->OutOff < C->Out.size()
                                           ? POLLIN | POLLOUT
                                           : POLLIN),
                    0});
  std::vector<uint64_t> PipeJobs;
  for (auto &E : Jobs)
    if (E.second.StatusFd >= 0) {
      PipeJobs.push_back(E.first);
      Pfds.push_back({E.second.StatusFd, POLLIN, 0});
    }

  int R = ::poll(Pfds.data(), Pfds.size(), TimeoutMs);
  if (R > 0) {
    if (Pfds[0].revents & POLLIN)
      acceptClients();
    // Back to front: swap-and-pop removal never disturbs an index we
    // have yet to visit (new accepts sit past the polled range).
    size_t NClients = Pfds.size() - 1 - PipeJobs.size();
    for (size_t I = NClients; I-- != 0;) {
      short Ev = Pfds[I + 1].revents;
      if (!Ev)
        continue;
      if (!serviceClient(*Clients[I], Ev)) {
        int Fd = Clients[I]->Fd;
        ::close(Fd);
        for (size_t W = Waits.size(); W-- != 0;)
          if (Waits[W].second == Fd) {
            Waits[W] = Waits.back();
            Waits.pop_back();
          }
        Clients[I] = std::move(Clients.back());
        Clients.pop_back();
      }
    }
    for (size_t I = 0; I != PipeJobs.size(); ++I) {
      short Ev = Pfds[NClients + 1 + I].revents;
      if (Ev & (POLLIN | POLLHUP | POLLERR)) {
        auto It = Jobs.find(PipeJobs[I]);
        if (It != Jobs.end())
          drainStatusPipe(It->second);
      }
    }
  }
  if (MetricsEp)
    MetricsEp->pump(0);
}

void Daemon::acceptClients() {
  for (;;) {
    int Fd = sys::acceptConn(ListenFd);
    if (Fd < 0)
      return; // EAGAIN: drained
    if (Clients.size() >= MaxCtlClients) {
      ::close(Fd);
      continue;
    }
    setNonBlocking(Fd);
    auto C = std::make_unique<Client>();
    C->Fd = Fd;
    Clients.push_back(std::move(C));
  }
}

bool Daemon::serviceClient(Client &C, short Revents) {
  if (Revents & (POLLERR | POLLNVAL))
    return false;
  if (Revents & (POLLIN | POLLHUP)) {
    uint8_t Buf[4096];
    ssize_t R = sys::recvOnce(C.Fd, Buf, sizeof(Buf));
    if (R == 0)
      return false; // orderly shutdown; a half-sent frame dies with it
    if (R < 0) {
      if (errno != EAGAIN && errno != EINTR)
        return false;
    } else {
      C.In.append(Buf, static_cast<size_t>(R));
      if (C.In.corrupt())
        return false;
      std::vector<uint8_t> Payload;
      while (C.In.next(Payload))
        handleFrame(C, Payload);
    }
  }
  flushOut(C);
  return true;
}

void Daemon::queueOut(Client &C, const std::vector<uint8_t> &Frame) {
  C.Out.append(reinterpret_cast<const char *>(Frame.data()), Frame.size());
}

void Daemon::flushOut(Client &C) {
  while (C.OutOff < C.Out.size()) {
    ssize_t W = sys::sendOnce(C.Fd, C.Out.data() + C.OutOff,
                              C.Out.size() - C.OutOff);
    if (W <= 0)
      return; // EAGAIN/EINTR: finish on a later pump
    C.OutOff += static_cast<size_t>(W);
  }
  if (C.OutOff == C.Out.size() && C.OutOff) {
    C.Out.clear();
    C.OutOff = 0;
  }
}

void Daemon::handleFrame(Client &C, const std::vector<uint8_t> &Payload) {
  switch (ctlFrameType(Payload)) {
  case CtlFrame::JobSubmit: {
    JobSpec Spec;
    if (!decodeJobSubmit(Payload, Spec))
      return;
    if (draining()) {
      queueOut(C, encodeSubmitResp(0, false, "draining"));
      return;
    }
    if (!validJobName(Spec.Name)) {
      queueOut(C, encodeSubmitResp(0, false, "bad job name"));
      return;
    }
    if (Spec.Regions == 0 || Spec.Samples == 0) {
      queueOut(C, encodeSubmitResp(0, false, "empty job"));
      return;
    }
    for (const auto &E : Jobs)
      if (E.second.Spec.Name == Spec.Name &&
          (E.second.State == JobState::Queued ||
           E.second.State == JobState::Running)) {
        queueOut(C, encodeSubmitResp(0, false, "name in use"));
        return;
      }
    if (Spec.Priority == 0)
      Spec.Priority = 1;
    Job J;
    J.Id = NextJobId++;
    J.Spec = std::move(Spec);
    uint64_t Id = J.Id;
    Jobs.emplace(Id, std::move(J));
    C.Owed.push_back(Id);
    queueOut(C, encodeSubmitResp(Id, true, std::string()));
    admitQueued();
    return;
  }
  case CtlFrame::StatusReq:
    queueOut(C, encodeStatusResp(buildStatus()));
    return;
  case CtlFrame::CancelReq: {
    uint64_t Id = 0;
    if (!decodeCancelReq(Payload, Id))
      return;
    auto It = Jobs.find(Id);
    bool Found = It != Jobs.end() &&
                 (It->second.State == JobState::Queued ||
                  It->second.State == JobState::Running);
    queueOut(C, encodeCancelResp(Found));
    if (Found)
      cancelJob(It->second);
    return;
  }
  case CtlFrame::DrainReq:
    DrainRequested = true;
    queueOut(C, encodeDrainResp(static_cast<uint32_t>(liveJobs())));
    return;
  case CtlFrame::WaitReq: {
    uint64_t Id = 0;
    if (!decodeWaitReq(Payload, Id))
      return;
    auto It = Jobs.find(Id);
    if (It == Jobs.end()) {
      // Unknown id: answer now rather than strand the waiter.
      queueOut(C, encodeJobDone(Id, JobState::Crashed, JobResult()));
      return;
    }
    if (It->second.State == JobState::Queued ||
        It->second.State == JobState::Running) {
      Waits.emplace_back(Id, C.Fd);
      return;
    }
    sendJobDone(C, It->second);
    return;
  }
  default:
    return; // unknown frames are dropped, not fatal (forward compat)
  }
}

void Daemon::admitQueued() {
  size_t Running = 0;
  for (const auto &E : Jobs)
    if (E.second.State == JobState::Running)
      ++Running;
  for (auto &E : Jobs) {
    if (Running >= Opts.Budget)
      return; // every running job needs >= 1 worker
    Job &J = E.second;
    if (J.State != JobState::Queued)
      continue;
    if (FreePages.empty()) {
      // Steal the page of the oldest reaped terminal job; its labeled
      // series drop off the scrape when the slot is recycled.
      for (auto &T : Jobs)
        if (T.second.PageIdx >= 0 && T.second.Pid == 0 &&
            T.second.State != JobState::Queued &&
            T.second.State != JobState::Running) {
          FreePages.push_back(T.second.PageIdx);
          T.second.PageIdx = -1;
          break;
        }
      if (FreePages.empty())
        return; // every page busy with a live job
    }
    J.PageIdx = FreePages.back();
    FreePages.pop_back();
    J.State = JobState::Running;
    rebalance(); // assigns J.Cap before the fork
    spawnRunner(J);
    if (J.State == JobState::Running)
      ++Running;
  }
}

void Daemon::spawnRunner(Job &J) {
  int CapPipe[2] = {-1, -1}, StatusPipe[2] = {-1, -1};
  if (::pipe(CapPipe) != 0 || ::pipe(StatusPipe) != 0) {
    closeIf(CapPipe[0]);
    closeIf(CapPipe[1]);
    finishJob(J, JobState::Crashed);
    return;
  }
  pid_t Pid = sys::forkProcess();
  if (Pid < 0) {
    for (int Fd : {CapPipe[0], CapPipe[1], StatusPipe[0], StatusPipe[1]})
      ::close(Fd);
    finishJob(J, JobState::Crashed);
    return;
  }
  if (Pid == 0) {
    // The runner must not hold the daemon's sockets: a tenant that
    // outlives a crashed daemon would otherwise pin the control socket
    // and every client connection open.
    ::close(ListenFd);
    for (const std::unique_ptr<Client> &C : Clients)
      ::close(C->Fd);
    if (MetricsEp)
      MetricsEp->closeAll();
    for (auto &E : Jobs) {
      closeIf(E.second.CapFd);
      closeIf(E.second.StatusFd);
    }
    ::close(CapPipe[1]);
    ::close(StatusPipe[0]);
    runJob(J.Spec, Opts.Budget, J.Cap, CapPipe[0], StatusPipe[1],
           Pages + J.PageIdx);
  }
  ::close(CapPipe[0]);
  ::close(StatusPipe[1]);
  // Both sides race to setpgid; whichever runs first wins identically,
  // and the group must exist before any cancel sweep.
  ::setpgid(Pid, Pid);
  setNonBlocking(CapPipe[1]);
  setNonBlocking(StatusPipe[0]);
  J.Pid = Pid;
  J.CapFd = CapPipe[1];
  J.StatusFd = StatusPipe[0];
}

void Daemon::drainStatusPipe(Job &J) {
  if (J.StatusFd < 0)
    return;
  uint8_t Buf[4096];
  for (;;) {
    ssize_t R = ::read(J.StatusFd, Buf, sizeof(Buf));
    if (R > 0) {
      J.StatusBuf.append(Buf, static_cast<size_t>(R));
      continue;
    }
    if (R < 0 && errno == EINTR)
      continue;
    break; // EAGAIN (quiet) or EOF (runner gone; reap finalizes)
  }
  std::vector<uint8_t> Payload;
  bool Progressed = false;
  while (J.StatusBuf.next(Payload)) {
    JobResult Res;
    if (decodeRunnerProgress(Payload, Res)) {
      J.Result = Res;
      Progressed = true;
    } else if (decodeRunnerDone(Payload, Res)) {
      J.Result = Res;
      J.DoneReported = true;
    }
  }
  if (Progressed)
    rebalance(); // remaining-samples weights moved
}

void Daemon::reapRunners() {
  for (auto &E : Jobs) {
    Job &J = E.second;
    if (J.Pid == 0)
      continue;
    int Status = 0;
    pid_t R = sys::waitPid(J.Pid, &Status, WNOHANG);
    if (R <= 0)
      continue;
    drainStatusPipe(J); // frames that raced the exit
    // Sweep stragglers (workers mid-sample when the runner died).
    ::kill(-J.Pid, SIGKILL);
    J.Pid = 0;
    closeIf(J.StatusFd);
    if (J.State == JobState::Running)
      finishJob(J, J.DoneReported && WIFEXITED(Status) &&
                           WEXITSTATUS(Status) == 0
                       ? JobState::Done
                       : JobState::Crashed);
    else
      closeIf(J.CapFd); // canceled: already terminal, just tidy up
  }
}

void Daemon::finishJob(Job &J, JobState Terminal) {
  J.State = Terminal;
  closeIf(J.CapFd);
  for (size_t W = Waits.size(); W-- != 0;) {
    if (Waits[W].first != J.Id)
      continue;
    int Fd = Waits[W].second;
    Waits[W] = Waits.back();
    Waits.pop_back();
    for (const std::unique_ptr<Client> &C : Clients)
      if (C->Fd == Fd) {
        sendJobDone(*C, J);
        flushOut(*C);
        break;
      }
  }
  rebalance();
}

void Daemon::sendJobDone(Client &C, const Job &J) {
  queueOut(C, encodeJobDone(J.Id, J.State, J.Result));
  C.Owed.erase(std::remove(C.Owed.begin(), C.Owed.end(), J.Id),
               C.Owed.end());
}

bool Daemon::owesClients() const {
  for (const std::unique_ptr<Client> &C : Clients) {
    if (C->OutOff < C->Out.size())
      return true;
    for (uint64_t Id : C->Owed) {
      auto It = Jobs.find(Id);
      if (It != Jobs.end() && It->second.State != JobState::Canceled)
        return true;
    }
  }
  return false;
}

void Daemon::cancelJob(Job &J) {
  if (J.State == JobState::Queued) {
    if (J.PageIdx >= 0) {
      FreePages.push_back(J.PageIdx);
      J.PageIdx = -1;
    }
    finishJob(J, JobState::Canceled);
    return;
  }
  // Running: SIGKILL the whole runner group; reapRunners collects the
  // corpse. Terminal state is immediate — cancel is not negotiable.
  ::kill(-J.Pid, SIGKILL);
  finishJob(J, JobState::Canceled);
}

void Daemon::rebalance() {
  std::vector<Job *> Running;
  std::vector<ShareInput> In;
  for (auto &E : Jobs)
    if (E.second.State == JobState::Running) {
      Job &J = E.second;
      uint32_t RegionsLeft = J.Spec.Regions > J.Result.RegionsDone
                                 ? J.Spec.Regions - J.Result.RegionsDone
                                 : 0;
      Running.push_back(&J);
      In.push_back({double(J.Spec.Priority) * double(RegionsLeft) *
                    double(J.Spec.Samples)});
    }
  std::vector<uint32_t> Caps = fairShareCaps(Opts.Budget, In);
  for (size_t I = 0; I != Running.size(); ++I) {
    if (Running[I]->Cap == Caps[I])
      continue;
    Running[I]->Cap = Caps[I];
    if (Running[I]->CapFd >= 0) {
      int32_t Cap = static_cast<int32_t>(Caps[I]);
      // Best effort: a full pipe means undrained older updates; the
      // newest lands on a later rebalance.
      ssize_t Ignored = ::write(Running[I]->CapFd, &Cap, sizeof(Cap));
      (void)Ignored;
    }
  }
}

StatusMsg Daemon::buildStatus() const {
  StatusMsg M;
  M.Budget = Opts.Budget;
  M.Draining = draining() ? 1 : 0;
  M.MetricsPort = metricsPort();
  for (const auto &E : Jobs) {
    const Job &J = E.second;
    JobRow Row;
    Row.Id = J.Id;
    Row.Name = J.Spec.Name;
    Row.State = J.State;
    Row.Cap = J.State == JobState::Running ? J.Cap : 0;
    Row.RunnerPid = static_cast<int32_t>(J.Pid);
    Row.Result = J.Result;
    M.Jobs.push_back(std::move(Row));
  }
  return M;
}

std::string Daemon::renderExposition() {
  std::string Out;
  char Buf[256];
  size_t NRunning = 0, NQueued = 0;
  for (const auto &E : Jobs) {
    if (E.second.State == JobState::Running)
      ++NRunning;
    if (E.second.State == JobState::Queued)
      ++NQueued;
  }
  std::snprintf(Buf, sizeof(Buf),
                "# TYPE wbt_daemon_budget gauge\nwbt_daemon_budget %u\n"
                "# TYPE wbt_daemon_draining gauge\nwbt_daemon_draining %d\n"
                "# TYPE wbt_daemon_jobs_running gauge\n"
                "wbt_daemon_jobs_running %zu\n"
                "# TYPE wbt_daemon_jobs_queued gauge\n"
                "wbt_daemon_jobs_queued %zu\n",
                Opts.Budget, draining() ? 1 : 0, NRunning, NQueued);
  Out += Buf;
  // One labeled exposition block per job slot. Names are admission-
  // checked to the label-safe alphabet, so no escaping happens here.
  for (const auto &E : Jobs) {
    const Job &J = E.second;
    if (J.PageIdx < 0)
      continue;
    obs::RuntimeMetrics M;
    if (!Pages[J.PageIdx].read(M))
      continue; // nothing published yet
    obs::writeExpositionText(Out, M, "job=\"" + J.Spec.Name + "\"");
  }
  return Out;
}
