//===- net/Wire.h - Lease-protocol frame encoding ---------------*- C++ -*-===//
//
// Part of the WBTuner reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Frame layout of the distributed lease protocol. Every frame is a
/// 4-byte native-endian payload length followed by the payload, whose
/// first byte is the FrameType. Payloads are encoded with the same
/// ByteWriter/ByteReader pair the aggregation stores use, so remote
/// commit bytes are byte-for-byte what a local child would have written
/// into the shm slab — which is what keeps mixed local/remote regions
/// bitwise-compatible in aggregate results.
///
/// Conversation shape (one tuning process, N sampling agents):
///
///   agent  -> server   Hello{agent id, clock}    once per connection
///   server -> agent    Grant{gen, tp, base, N,   one lease, pushed to an
///                            kind, lease}        idle agent while a
///                                                region is open
///   agent  -> server   Commit{gen, result}       one per Grant; the agent
///                                                is idle again
///   agent  -> server   TraceFrame{events}        whenever the agent's
///                                                local ring has backlog
///   server -> agent    RegionClose{gen}          region settled
///   agent  -> server   TraceFrame{events}        close ack, always sent
///   server -> agent    Shutdown{}                teardown
///
/// Agents never ask for work: the server knows an agent is idle once it
/// has said Hello or sent the Commit of its lease, and grants it the
/// next one itself.
///
/// The Hello clock is the agent's CLOCK_MONOTONIC at send time; the
/// server subtracts it from its own clock on receipt to estimate the
/// per-connection offset it applies to TraceFrame timestamps (each
/// host's monotonic clock is island-local, see obs/Trace.h).
///
/// Every region-scoped frame carries the server's monotone *generation*;
/// a frame whose generation is not the current one is dropped, which is
/// what makes half-dead agents that wake up mid-teardown harmless.
///
//===----------------------------------------------------------------------===//

#ifndef WBT_NET_WIRE_H
#define WBT_NET_WIRE_H

#include "obs/Trace.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace wbt {
namespace net {

enum class FrameType : uint8_t {
  None = 0,
  Hello,
  Grant,
  Commit,
  RegionClose,
  Shutdown,
  TraceFrame,
};

/// One past the largest FrameType value — sizes per-type receive
/// counter arrays.
constexpr int NumFrameTypes =
    static_cast<int>(FrameType::TraceFrame) + 1;

/// A frame longer than this is a protocol error (a torn length prefix
/// read as garbage), not a big message — the peer is disconnected.
constexpr uint32_t MaxFrameBytes = 64u << 20;

/// How one remotely run lease ended (mirrors the terminal LeaseStates a
/// local worker can store).
enum class LeaseOutcome : uint8_t {
  Committed = 1, ///< the body reached @aggregate; Vars carry the commits
  Pruned = 2,    ///< the body was pruned (@check(false) or fell through)
};

/// One lease granted to an agent, with the region identity it needs to
/// rebuild the exact RNG seed and child index a local worker would use:
/// lease \p Lease of the flat lease table that starts at region ordinal
/// \p Base, \p N samples per region (plain pool regions and pipelined
/// batches alike).
struct GrantMsg {
  uint64_t Gen = 0;
  uint64_t TpId = 0;
  uint64_t Base = 0;  ///< first region ordinal of the window
  uint32_t N = 0;     ///< samples per region
  uint32_t Kind = 0;  ///< SamplingKind (stratified draws need it)
  int64_t Lease = -1; ///< flat lease index granted
};

/// One committed variable of one lease (name + encoded payload).
struct CommitVar {
  std::string Name;
  std::vector<uint8_t> Bytes;
};

/// Everything one lease produced.
struct LeaseResult {
  int64_t Lease = -1;
  LeaseOutcome Outcome = LeaseOutcome::Pruned;
  std::vector<CommitVar> Vars;
};

/// The result of the one lease a Grant handed out.
struct CommitMsg {
  uint64_t Gen = 0;
  LeaseResult Result;
};

//===----------------------------------------------------------------------===//
// Encoding. Each returns a complete frame (length prefix included).
//===----------------------------------------------------------------------===//

/// \p ClockNs is the sender's CLOCK_MONOTONIC at send time (clock-offset
/// estimation for trace correlation).
std::vector<uint8_t> encodeHello(uint32_t AgentId, uint64_t ClockNs);
std::vector<uint8_t> encodeGrant(const GrantMsg &M);
std::vector<uint8_t> encodeCommit(const CommitMsg &M);
std::vector<uint8_t> encodeRegionClose(uint64_t Gen);
std::vector<uint8_t> encodeShutdown();
/// Batches raw trace records from an agent's local ring. Timestamps are
/// the agent's clock; the server rebases them with the Hello offset.
std::vector<uint8_t> encodeTraceFrame(const std::vector<obs::TraceEvent> &Evs);

//===----------------------------------------------------------------------===//
// Decoding over one extracted payload (FrameBuffer::next output).
//===----------------------------------------------------------------------===//

/// First byte of \p Payload, or FrameType::None when empty/unknown.
FrameType frameType(const std::vector<uint8_t> &Payload);

bool decodeHello(const std::vector<uint8_t> &Payload, uint32_t &AgentId,
                 uint64_t &ClockNs);
bool decodeGrant(const std::vector<uint8_t> &Payload, GrantMsg &Out);
bool decodeCommit(const std::vector<uint8_t> &Payload, CommitMsg &Out);
bool decodeRegionClose(const std::vector<uint8_t> &Payload, uint64_t &Gen);
bool decodeTraceFrame(const std::vector<uint8_t> &Payload,
                      std::vector<obs::TraceEvent> &Out);

/// Incremental frame splitter over a byte stream. Append whatever recv
/// returned; next() hands out complete payloads in order. A partial
/// frame (torn send, mid-read disconnect) simply never completes and is
/// discarded with the buffer.
class FrameBuffer {
public:
  void append(const uint8_t *Data, size_t Size);
  /// Moves the next complete payload into \p Out. False when no
  /// complete frame is buffered.
  bool next(std::vector<uint8_t> &Out);
  /// A length prefix exceeded MaxFrameBytes — the stream is garbage and
  /// the connection must be dropped.
  bool corrupt() const { return Corrupt; }
  size_t buffered() const { return Buf.size() - Pos; }

private:
  std::vector<uint8_t> Buf;
  size_t Pos = 0;
  bool Corrupt = false;
};

} // namespace net
} // namespace wbt

#endif // WBT_NET_WIRE_H
