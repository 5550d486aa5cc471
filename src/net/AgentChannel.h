//===- net/AgentChannel.h - Agent-side protocol channel ---------*- C++ -*-===//
//
// Part of the WBTuner reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sampling agent's end of the lease protocol: one blocking TCP
/// connection with connect backoff and Hello on (re)connect. The agent
/// only ever waits for the server's next frame (a Grant, a RegionClose
/// or Shutdown) and answers it; it never asks for work. An agent that
/// loses its connection — server restart, injected ECONNRESET, a torn
/// frame — just reconnects and re-Hellos: the lease it had been granted
/// was already handed back to the pool by the server's disconnect path,
/// and anything it had half-sent is discarded by the server's frame
/// buffer, so a reconnecting agent always starts from a clean slate.
///
//===----------------------------------------------------------------------===//

#ifndef WBT_NET_AGENTCHANNEL_H
#define WBT_NET_AGENTCHANNEL_H

#include "net/Wire.h"

#include <cstdint>
#include <string>
#include <vector>

namespace wbt {
namespace net {

class AgentChannel {
public:
  AgentChannel(std::string Addr, uint16_t Port, uint32_t AgentId)
      : Addr(std::move(Addr)), Port(Port), AgentId(AgentId) {}
  ~AgentChannel();

  AgentChannel(const AgentChannel &) = delete;
  AgentChannel &operator=(const AgentChannel &) = delete;

  /// Connects (with ~20ms backoff between attempts) and sends Hello.
  /// No-op when already connected. False once the server looks gone for
  /// good (~2s of refused connections) — the agent should exit.
  bool ensureConnected();
  bool connected() const { return Fd >= 0; }
  /// The connection's socket, -1 when disconnected (read-only access for
  /// socket-option checks).
  int fd() const { return Fd; }
  void closeConn();

  /// Sends one complete frame. False (connection closed) on any error —
  /// including an injected short send, which really does leave half the
  /// frame on the wire for the server to discard.
  bool sendFrame(const std::vector<uint8_t> &Frame);

  /// Blocks until the next complete frame payload. False (connection
  /// closed) on disconnect or a corrupt stream.
  bool recvFrame(std::vector<uint8_t> &Out);

private:
  std::string Addr;
  uint16_t Port;
  uint32_t AgentId;
  int Fd = -1;
  FrameBuffer In;
};

} // namespace net
} // namespace wbt

#endif // WBT_NET_AGENTCHANNEL_H
