//===- daemon/Daemon.h - The multi-tenant tuning daemon ---------*- C++ -*-===//
//
// Part of the WBTuner reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// wbtuned's core: one poll(2) loop multiplexing the Unix control
/// socket (wbtctl clients), every job-runner's status pipe, and the
/// Prometheus scrape endpoint — threadless like LeaseServer and
/// MetricsEndpoint, because every subsystem here is a set of
/// non-blocking fds pumped from one place.
///
/// Job lifecycle: JobSubmit -> Queued -> (budget slot frees) -> fork
/// job-runner -> Running -> RunnerDone + exit(0) -> Done, or Crashed
/// (runner died without RunnerDone), or Canceled (CancelReq SIGKILLs
/// the runner's process group). Every arrival/departure/progress report
/// rebalances the global worker budget across running jobs
/// (daemon/FairShare.h) and pushes changed caps down the cap pipes.
///
/// Drain (SIGTERM, SIGINT, or a DrainReq frame): new submissions are
/// refused, already-admitted jobs (running *and* queued — admission was
/// acknowledged) finish normally, then the daemon unlinks its socket
/// and exits 0. A SIGKILLed daemon leaves a stale socket; the next
/// start detects it by a refused connect probe and rebinds.
///
//===----------------------------------------------------------------------===//

#ifndef WBT_DAEMON_DAEMON_H
#define WBT_DAEMON_DAEMON_H

#include "daemon/Protocol.h"
#include "net/MetricsEndpoint.h"
#include "net/Wire.h"
#include "obs/Metrics.h"

#include <csignal>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace wbt {
namespace daemon {

struct DaemonOptions {
  /// Unix control-socket path (required).
  std::string SocketPath;
  /// Global worker budget shared by every tenant job; 0 = hardware
  /// concurrency - 1, floored at 2.
  uint32_t Budget = 0;
  /// Per-job metrics page slots in the shared mapping (also the cap on
  /// simultaneously admitted-but-unreaped jobs the scrape can label).
  uint32_t MaxJobs = 64;
  /// "ip:port" scrape endpoint; empty = off.
  std::string MetricsAddress;
  /// Signal-handler flag: when it goes nonzero the daemon drains, as if
  /// a DrainReq had arrived (wbtuned points this at its sig_atomic_t).
  const volatile std::sig_atomic_t *DrainSignal = nullptr;
};

class Daemon {
public:
  explicit Daemon(const DaemonOptions &Opts) : Opts(Opts) {}
  ~Daemon();

  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Binds the control socket (reclaiming a stale one), maps the per-job
  /// metrics pages, and opens the scrape endpoint. False + a message on
  /// stderr when the socket cannot be ours.
  bool start();

  /// Serves until drained (signal or DrainReq). Returns the process
  /// exit code: 0 after a clean drain.
  int run();

  uint16_t metricsPort() const {
    return MetricsEp ? MetricsEp->port() : 0;
  }

private:
  struct Client {
    int Fd = -1;
    net::FrameBuffer In;
    std::string Out;
    size_t OutOff = 0;
    /// Jobs submitted on this connection that it has not been sent the
    /// JobDone of; a drained daemon waits for their WaitReqs (run()).
    std::vector<uint64_t> Owed;
  };

  struct Job {
    uint64_t Id = 0;
    JobSpec Spec;
    JobState State = JobState::Queued;
    uint32_t Cap = 0;
    pid_t Pid = 0;
    int CapFd = -1;    ///< write end of the runner's cap pipe
    int StatusFd = -1; ///< read end of the runner's status pipe
    net::FrameBuffer StatusBuf;
    bool DoneReported = false; ///< RunnerDone frame seen
    JobResult Result;
    int PageIdx = -1; ///< slot in the shared metrics mapping
  };

  bool bindControlSocket();
  void pumpOnce(int TimeoutMs);
  void acceptClients();
  /// False when the client is finished (EOF, error, or corrupt stream).
  bool serviceClient(Client &C, short Revents);
  void handleFrame(Client &C, const std::vector<uint8_t> &Payload);
  void queueOut(Client &C, const std::vector<uint8_t> &Frame);
  void flushOut(Client &C);
  void sendJobDone(Client &C, const Job &J);
  /// A client still has a JobDone coming (a finished job it submitted
  /// and did not cancel) or unsent output.
  bool owesClients() const;

  void admitQueued();
  void spawnRunner(Job &J);
  void drainStatusPipe(Job &J);
  void reapRunners();
  void finishJob(Job &J, JobState Terminal);
  void cancelJob(Job &J);
  void rebalance();
  bool draining() const;
  size_t liveJobs() const; ///< queued + running
  std::string renderExposition();
  StatusMsg buildStatus() const;

  DaemonOptions Opts;
  int ListenFd = -1;
  bool SocketBound = false;
  bool DrainRequested = false;
  uint64_t NextJobId = 1;
  std::vector<std::unique_ptr<Client>> Clients;
  std::map<uint64_t, Job> Jobs; ///< ordered: status rows in submit order
  std::vector<std::pair<uint64_t, int>> Waits; ///< (job id, client fd)
  obs::MetricsSnapshotPage *Pages = nullptr; ///< MaxJobs shared slots
  std::vector<int> FreePages;
  std::unique_ptr<net::MetricsEndpoint> MetricsEp;
};

} // namespace daemon
} // namespace wbt

#endif // WBT_DAEMON_DAEMON_H
