// The network edge: a TCP listener that speaks the framed wire protocol
// (net/frame.h, net/wire.h) and maps frames onto WorkbenchService requests.
//
// Threading model: ONE server thread runs a poll() loop over the listening
// socket, a self-pipe, and every live connection.  It reads and decodes
// frames and submits each request with a completion callback; it never
// executes a request, and it does not encode replies.  The callback runs on
// whichever thread settles the request — a shard thread, the server thread
// for an admission-time refusal, or the thread inside the service's stop()
// — and carries the reply the whole way: it encodes the reply frame there
// and, when nothing is queued ahead of it, sends it straight to the socket.
// Only bytes the socket does not take stay in the connection's outbox, and
// then the callback wakes the server thread through the self-pipe to wait
// for POLLOUT.  Every frame for a connection, protocol errors included, is
// appended and sent under that connection's lock, so replies leave in
// settlement order: requests pipelined on one connection come back out of
// order when a later one settles first; the request id ties each reply to
// its request.
//
// Lifetime: a callback can run after its connection closed, after stop()
// gave up at its drain deadline, or after the Server is destroyed (the
// service's stop() settles whatever it still holds).  So it owns shares of
// everything it touches — the connection state, the wake pipe, the stats —
// and never the Server itself or a bare fd number: a connection's socket
// is closed under its lock, where the callback looks before sending.
//
// Error discipline (tests/test_net.cpp drives every branch):
//
//   * kBadMagic / kOversized — the byte stream itself is unsynchronized;
//     the connection gets one final kProtocolError frame (request id 0)
//     and is closed after the write drains.  Other connections are
//     untouched.
//   * bad version / unknown type / unparseable JSON / type-invalid request
//     — framing is intact; the connection gets a kProtocolError frame
//     carrying the offending frame's request id and stays open.
//   * A client that disconnects with requests in flight abandons them: the
//     server closes the socket at once and counts the requests as orphans.
//     They still settle service-side (the service answers every admitted
//     request), so a torn connection never abandons a shard's work
//     mid-flight; their replies are dropped.  ServerStats::orphans_settled
//     is the witness.
//
// stop() is a graceful drain: admission of new connections and frames
// ends, pending replies are written out, then sockets close.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "net/frame.h"
#include "service/service.h"

namespace nsc::net {

struct ServerOptions {
  // Bind address.  Port 0 binds an ephemeral port; port() reports it.
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  int backlog = 64;
  std::size_t max_payload = kDefaultMaxPayload;
  // Drain budget for stop(): how long to keep serving in-flight requests
  // and flushing write buffers before closing sockets anyway.
  std::int64_t drain_timeout_ms = 30000;
};

struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t replies_sent = 0;
  std::uint64_t protocol_errors = 0;  // kProtocolError frames sent
  std::uint64_t orphans_adopted = 0;  // requests torn connections left behind
  std::uint64_t orphans_settled = 0;  // ... that have since settled
};

class Server {
 public:
  Server(svc::WorkbenchService& service, ServerOptions options = {});
  ~Server();  // stop()
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, and launches the server thread.  Idempotent.
  common::Status start();

  // Graceful drain; idempotent.
  void stop();

  // The bound port (resolves ephemeral binds); 0 before start().
  std::uint16_t port() const { return port_.load(); }

  ServerStats stats() const;

 private:
  struct Shared;      // wake pipe + stats, shared with callbacks
  struct Connection;  // one socket, shared with its requests' callbacks

  void run();
  void handleReadable(const std::shared_ptr<Connection>& conn);
  void handleFrame(const std::shared_ptr<Connection>& conn, Frame&& frame);
  void sendProtocolError(Connection& conn, std::uint64_t request_id,
                         const char* code, std::string message);
  void closeConnection(std::size_t index);

  svc::WorkbenchService& service_;
  const ServerOptions options_;
  const std::shared_ptr<Shared> shared_;
  std::atomic<std::uint16_t> port_{0};
  int listen_fd_ = -1;
  std::thread thread_;
  bool started_ = false;

  std::vector<std::shared_ptr<Connection>> connections_;  // server thread
};

}  // namespace nsc::net
