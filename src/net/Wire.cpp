//===- net/Wire.cpp - Lease-protocol frame encoding -----------------------===//
//
// Part of the WBTuner reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/Wire.h"

#include "support/ByteBuffer.h"

#include <cstring>

using namespace wbt;
using namespace wbt::net;

namespace {

/// Wraps a finished payload in the 4-byte length prefix.
std::vector<uint8_t> finishFrame(ByteWriter &Payload) {
  std::vector<uint8_t> Body = Payload.take();
  ByteWriter Frame;
  Frame.write<uint32_t>(static_cast<uint32_t>(Body.size()));
  std::vector<uint8_t> Out = Frame.take();
  Out.insert(Out.end(), Body.begin(), Body.end());
  return Out;
}

ByteWriter beginPayload(FrameType T) {
  ByteWriter W;
  W.write<uint8_t>(static_cast<uint8_t>(T));
  return W;
}

/// Positions \p Payload past the type byte, verifying it is \p T.
bool beginDecode(const std::vector<uint8_t> &Payload, FrameType T,
                 ByteReader &R) {
  if (frameType(Payload) != T)
    return false;
  R.read<uint8_t>(); // the type byte
  return R.ok();
}

} // namespace

std::vector<uint8_t> net::encodeHello(uint32_t AgentId, uint64_t ClockNs) {
  ByteWriter W = beginPayload(FrameType::Hello);
  W.write<uint32_t>(AgentId);
  W.write<uint64_t>(ClockNs);
  return finishFrame(W);
}

std::vector<uint8_t> net::encodeGrant(const GrantMsg &M) {
  ByteWriter W = beginPayload(FrameType::Grant);
  W.write<uint64_t>(M.Gen);
  W.write<uint64_t>(M.TpId);
  W.write<uint64_t>(M.Base);
  W.write<uint32_t>(M.N);
  W.write<uint32_t>(M.Kind);
  W.write<int64_t>(M.Lease);
  return finishFrame(W);
}

std::vector<uint8_t> net::encodeCommit(const CommitMsg &M) {
  ByteWriter W = beginPayload(FrameType::Commit);
  W.write<uint64_t>(M.Gen);
  const LeaseResult &L = M.Result;
  W.write<int64_t>(L.Lease);
  W.write<uint8_t>(static_cast<uint8_t>(L.Outcome));
  W.write<uint32_t>(static_cast<uint32_t>(L.Vars.size()));
  for (const CommitVar &V : L.Vars) {
    W.writeString(V.Name);
    W.writeVector<uint8_t>(V.Bytes);
  }
  return finishFrame(W);
}

std::vector<uint8_t> net::encodeRegionClose(uint64_t Gen) {
  ByteWriter W = beginPayload(FrameType::RegionClose);
  W.write<uint64_t>(Gen);
  return finishFrame(W);
}

std::vector<uint8_t> net::encodeShutdown() {
  ByteWriter W = beginPayload(FrameType::Shutdown);
  return finishFrame(W);
}

std::vector<uint8_t>
net::encodeTraceFrame(const std::vector<obs::TraceEvent> &Evs) {
  ByteWriter W = beginPayload(FrameType::TraceFrame);
  W.write<uint32_t>(static_cast<uint32_t>(Evs.size()));
  for (const obs::TraceEvent &Ev : Evs) {
    W.write<uint64_t>(Ev.TsNs);
    W.write<int32_t>(Ev.Pid);
    W.write<uint16_t>(Ev.Kind);
    W.write<uint16_t>(Ev.Arg);
    W.write<uint64_t>(Ev.A);
    W.write<uint64_t>(Ev.B);
  }
  return finishFrame(W);
}

FrameType net::frameType(const std::vector<uint8_t> &Payload) {
  if (Payload.empty())
    return FrameType::None;
  uint8_t T = Payload[0];
  if (T == 0 || T > static_cast<uint8_t>(FrameType::TraceFrame))
    return FrameType::None;
  return static_cast<FrameType>(T);
}

bool net::decodeHello(const std::vector<uint8_t> &Payload, uint32_t &AgentId,
                      uint64_t &ClockNs) {
  ByteReader R(Payload);
  if (!beginDecode(Payload, FrameType::Hello, R))
    return false;
  AgentId = R.read<uint32_t>();
  ClockNs = R.read<uint64_t>();
  return R.ok();
}

bool net::decodeGrant(const std::vector<uint8_t> &Payload, GrantMsg &Out) {
  ByteReader R(Payload);
  if (!beginDecode(Payload, FrameType::Grant, R))
    return false;
  Out.Gen = R.read<uint64_t>();
  Out.TpId = R.read<uint64_t>();
  Out.Base = R.read<uint64_t>();
  Out.N = R.read<uint32_t>();
  Out.Kind = R.read<uint32_t>();
  Out.Lease = R.read<int64_t>();
  return R.ok() && Out.N != 0 && Out.Lease >= 0;
}

bool net::decodeCommit(const std::vector<uint8_t> &Payload, CommitMsg &Out) {
  ByteReader R(Payload);
  if (!beginDecode(Payload, FrameType::Commit, R))
    return false;
  Out.Gen = R.read<uint64_t>();
  LeaseResult &L = Out.Result;
  L.Lease = R.read<int64_t>();
  uint8_t Outc = R.read<uint8_t>();
  if (Outc != static_cast<uint8_t>(LeaseOutcome::Committed) &&
      Outc != static_cast<uint8_t>(LeaseOutcome::Pruned))
    return false;
  L.Outcome = static_cast<LeaseOutcome>(Outc);
  uint32_t Vars = R.read<uint32_t>();
  if (!R.ok())
    return false;
  L.Vars.clear();
  for (uint32_t V = 0; V != Vars; ++V) {
    CommitVar CV;
    CV.Name = R.readString();
    CV.Bytes = R.readVector<uint8_t>();
    if (!R.ok())
      return false;
    L.Vars.push_back(std::move(CV));
  }
  return true;
}

bool net::decodeRegionClose(const std::vector<uint8_t> &Payload,
                            uint64_t &Gen) {
  ByteReader R(Payload);
  if (!beginDecode(Payload, FrameType::RegionClose, R))
    return false;
  Gen = R.read<uint64_t>();
  return R.ok();
}

bool net::decodeTraceFrame(const std::vector<uint8_t> &Payload,
                           std::vector<obs::TraceEvent> &Out) {
  ByteReader R(Payload);
  if (!beginDecode(Payload, FrameType::TraceFrame, R))
    return false;
  uint32_t Count = R.read<uint32_t>();
  // Each event is 32 payload bytes — a count the payload cannot hold is
  // a corrupt frame, not a request to allocate.
  if (!R.ok() || size_t(Count) * 32 > Payload.size())
    return false;
  Out.clear();
  Out.reserve(Count);
  for (uint32_t I = 0; I != Count; ++I) {
    obs::TraceEvent Ev;
    Ev.TsNs = R.read<uint64_t>();
    Ev.Pid = R.read<int32_t>();
    Ev.Kind = R.read<uint16_t>();
    Ev.Arg = R.read<uint16_t>();
    Ev.A = R.read<uint64_t>();
    Ev.B = R.read<uint64_t>();
    if (!R.ok())
      return false;
    Out.push_back(Ev);
  }
  return R.ok();
}

void FrameBuffer::append(const uint8_t *Data, size_t Size) {
  // Compact the consumed prefix before growing, so a long-lived
  // connection never accumulates its whole history.
  if (Pos && Pos == Buf.size()) {
    Buf.clear();
    Pos = 0;
  } else if (Pos > 4096 && Pos > Buf.size() / 2) {
    Buf.erase(Buf.begin(), Buf.begin() + static_cast<ptrdiff_t>(Pos));
    Pos = 0;
  }
  Buf.insert(Buf.end(), Data, Data + Size);
}

bool FrameBuffer::next(std::vector<uint8_t> &Out) {
  if (Corrupt || Buf.size() - Pos < sizeof(uint32_t))
    return false;
  uint32_t Len = 0;
  std::memcpy(&Len, Buf.data() + Pos, sizeof(Len));
  if (Len > MaxFrameBytes) {
    Corrupt = true;
    return false;
  }
  if (Buf.size() - Pos < sizeof(uint32_t) + Len)
    return false;
  const uint8_t *Body = Buf.data() + Pos + sizeof(uint32_t);
  Out.assign(Body, Body + Len);
  Pos += sizeof(uint32_t) + Len;
  return true;
}
