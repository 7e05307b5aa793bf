#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <string_view>
#include <utility>

#include "common/strings.h"
#include "net/wire.h"

namespace nsc::net {

namespace {

// poll() timeout when nothing wakes the loop sooner.  Settled replies and
// stop() wake it through the self-pipe, so this only bounds how stale a
// missed event can get.
constexpr int kIdlePollMs = 50;

void setNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

std::int64_t nowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// What completion callbacks share with the server thread.  It lives until
// the last callback lets go, so the pipe is never closed under a writer.
struct Server::Shared {
  int wake_read_fd = -1;
  int wake_write_fd = -1;  // non-blocking: a full pipe already means "awake"
  std::atomic<bool> stopping{false};
  mutable std::mutex stats_mu;
  ServerStats stats;

  ~Shared() {
    if (wake_read_fd >= 0) ::close(wake_read_fd);
    if (wake_write_fd >= 0) ::close(wake_write_fd);
  }

  void wake() const {
    const char byte = 0;
    [[maybe_unused]] const ssize_t n = ::write(wake_write_fd, &byte, 1);
  }

  void count(std::uint64_t ServerStats::*field) {
    std::lock_guard<std::mutex> lock(stats_mu);
    ++(stats.*field);
  }

  std::uint64_t orphansInFlight() const {
    std::lock_guard<std::mutex> lock(stats_mu);
    return stats.orphans_adopted - stats.orphans_settled;
  }
};

struct Server::Connection {
  Connection(int socket, std::size_t max_payload)
      : reader(max_payload), fd(socket) {}

  // Server thread only.
  FrameReader reader;
  bool peer_eof = false;

  // Shared with completion callbacks; guarded by mu.
  std::mutex mu;
  int fd;                     // -1 once closed (only ever closed under mu)
  std::string outbox;         // frame bytes the socket has not taken yet
  std::size_t in_flight = 0;  // submitted requests not yet settled
  bool draining = false;      // no more reads; close once flushed and idle
  bool dead = false;          // a send failed: the peer is gone

  // Writes what the socket takes now; returns the byte count.
  std::size_t sendSome(std::string_view bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) dead = true;
        break;
      }
    }
    return sent;
  }

  // Queues a frame behind anything already waiting, sending straight to the
  // socket when nothing is.  Dropped once the connection is closed or dead.
  void post(std::string_view bytes) {
    if (fd < 0 || dead) return;
    if (outbox.empty()) bytes.remove_prefix(sendSome(bytes));
    if (!dead) outbox.append(bytes);
  }

  // Sends queued bytes (POLLOUT).
  void flush() {
    if (fd < 0 || dead) return;
    outbox.erase(0, sendSome(outbox));
    if (dead) outbox.clear();
  }

  // True when the server thread must act on this connection: bytes wait
  // for POLLOUT, the peer is gone, or it is idle and due to close.
  bool needsServerThread(bool stopping) const {
    return dead || !outbox.empty() ||
           (in_flight == 0 && (draining || stopping));
  }

  // A completion callback's work, on the settling thread.
  void settle(Shared& shared, std::uint64_t request_id,
              const svc::ServiceReply& reply) {
    Frame frame;
    frame.type = static_cast<std::uint16_t>(FrameType::kReply);
    frame.request_id = request_id;
    frame.payload = replyToJson(reply).dump();
    const std::string bytes = encodeFrame(frame);
    bool orphan = false;
    bool wake = false;
    {
      std::lock_guard<std::mutex> lock(mu);
      --in_flight;
      orphan = fd < 0;
      post(bytes);
      wake = orphan || needsServerThread(shared.stopping.load());
    }
    // An orphan is counted after the server thread counted its adoption
    // (under mu, in closeConnection), so adopted - settled never underflows.
    shared.count(orphan ? &ServerStats::orphans_settled
                        : &ServerStats::replies_sent);
    if (wake) shared.wake();
  }
};

Server::Server(svc::WorkbenchService& service, ServerOptions options)
    : service_(service),
      options_(std::move(options)),
      shared_(std::make_shared<Shared>()) {}

Server::~Server() { stop(); }

common::Status Server::start() {
  if (started_) return common::Status::ok();

  if (shared_->wake_read_fd < 0) {
    int pipe_fds[2] = {-1, -1};
    if (::pipe(pipe_fds) != 0) {
      return common::Status::error(
          common::strFormat("pipe: %s", std::strerror(errno)));
    }
    shared_->wake_read_fd = pipe_fds[0];
    shared_->wake_write_fd = pipe_fds[1];
    setNonBlocking(shared_->wake_read_fd);
    setNonBlocking(shared_->wake_write_fd);
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return common::Status::error(
        common::strFormat("socket: %s", std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return common::Status::error(
        common::strFormat("bad bind address: %s", options_.host.c_str()));
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return common::Status::error(
        common::strFormat("bind %s:%u: %s", options_.host.c_str(),
                          static_cast<unsigned>(options_.port),
                          std::strerror(err)));
  }
  if (::listen(listen_fd_, options_.backlog) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return common::Status::error(
        common::strFormat("listen: %s", std::strerror(err)));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_.store(ntohs(bound.sin_port));
  }
  setNonBlocking(listen_fd_);

  shared_->stopping.store(false);
  thread_ = std::thread([this] { run(); });
  started_ = true;
  return common::Status::ok();
}

void Server::stop() {
  if (!started_) return;
  shared_->stopping.store(true);
  shared_->wake();
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  started_ = false;
  port_.store(0);
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(shared_->stats_mu);
  return shared_->stats;
}

void Server::run() {
  std::int64_t drain_deadline_ms = -1;
  for (;;) {
    const bool stopping = shared_->stopping.load();
    if (stopping && drain_deadline_ms < 0) {
      drain_deadline_ms = nowMs() + options_.drain_timeout_ms;
    }

    // One pass over the connections decides which close and what the rest
    // wait for.  EOF from the peer means abandonment — a client that wants
    // its replies holds the socket open until they arrive (nsc::Client
    // does) — so its in-flight requests become orphans immediately.  A
    // draining connection (protocol error after an unsynchronized stream)
    // closes once its error frame and any earlier replies have flushed and
    // nothing is in flight.  Under stop(), every connection goes that way.
    std::vector<pollfd> fds;
    fds.reserve(connections_.size() + 2);
    fds.push_back({shared_->wake_read_fd, POLLIN, 0});
    if (!stopping) fds.push_back({listen_fd_, POLLIN, 0});
    const std::size_t base = fds.size();
    for (std::size_t i = 0; i < connections_.size();) {
      Connection& conn = *connections_[i];
      short events = 0;
      bool close = false;
      {
        std::lock_guard<std::mutex> lock(conn.mu);
        const bool idle = conn.in_flight == 0 && conn.outbox.empty();
        close = conn.peer_eof || conn.dead ||
                (idle && (conn.draining || stopping));
        if (!conn.draining && !stopping) events |= POLLIN;
        if (!conn.outbox.empty()) events |= POLLOUT;
      }
      if (close) {
        closeConnection(i);
        continue;
      }
      fds.push_back({conn.fd, events, 0});
      ++i;
    }
    const std::size_t polled = connections_.size();

    if (stopping && connections_.empty() && shared_->orphansInFlight() == 0) {
      break;
    }
    // Drain budget exhausted: the loop below abandons the remaining
    // sockets; their requests still settle service-side.
    if (stopping && nowMs() >= drain_deadline_ms) break;

    const int timeout_ms =
        stopping ? static_cast<int>(std::clamp<std::int64_t>(
                       drain_deadline_ms - nowMs(), 0, kIdlePollMs))
                 : kIdlePollMs;
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) break;

    if (fds[0].revents & POLLIN) {
      char scratch[64];
      while (::read(shared_->wake_read_fd, scratch, sizeof(scratch)) > 0) {}
    }
    if (!stopping && (fds[base - 1].revents & POLLIN)) {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        setNonBlocking(fd);
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        connections_.push_back(
            std::make_shared<Connection>(fd, options_.max_payload));
        shared_->count(&ServerStats::connections_accepted);
      }
    }

    // Only the connections that were polled this tick have fds entries —
    // accept() above may have appended new ones past `polled`.
    for (std::size_t i = 0; i < polled; ++i) {
      const pollfd& pfd = fds[base + i];
      const std::shared_ptr<Connection>& conn = connections_[i];
      if (pfd.revents & POLLIN) handleReadable(conn);  // may set peer_eof
      if (pfd.revents & (POLLERR | POLLNVAL)) conn->peer_eof = true;
      if ((pfd.revents & POLLHUP) && !(pfd.revents & POLLIN)) {
        conn->peer_eof = true;
      }
      if (pfd.revents & POLLOUT) {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->flush();
      }
    }
  }
  while (!connections_.empty()) closeConnection(0);
}

void Server::handleReadable(const std::shared_ptr<Connection>& conn) {
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->reader.feed(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      conn->peer_eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    conn->peer_eof = true;
    break;
  }

  Frame frame;
  for (;;) {
    const FrameReader::Next next = conn->reader.next(frame);
    if (next == FrameReader::Next::kFrame) {
      shared_->count(&ServerStats::frames_received);
      handleFrame(conn, std::move(frame));
      frame = Frame{};
      continue;
    }
    if (next == FrameReader::Next::kError) {
      // Stream unsynchronized: one final error frame, then drain + close.
      sendProtocolError(
          *conn, 0, frameErrorName(conn->reader.error()),
          common::strFormat("frame stream error: %s",
                            frameErrorName(conn->reader.error())));
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->draining = true;
    }
    break;
  }
}

void Server::handleFrame(const std::shared_ptr<Connection>& conn,
                         Frame&& frame) {
  if (frame.version != kProtocolVersion) {
    sendProtocolError(*conn, frame.request_id, "bad-version",
                      common::strFormat("protocol version %u, server speaks %u",
                                        frame.version, kProtocolVersion));
    return;
  }
  if (!frameTypeKnown(frame.type)) {
    sendProtocolError(*conn, frame.request_id, "unknown-type",
                      common::strFormat("unknown frame type %u", frame.type));
    return;
  }
  if (!frameTypeIsRequest(frame.type)) {
    sendProtocolError(
        *conn, frame.request_id, "bad-request",
        common::strFormat("frame type %s is not a request",
                          frameTypeName(static_cast<FrameType>(frame.type))));
    return;
  }
  auto parsed = common::Json::parse(frame.payload);
  if (!parsed.isOk()) {
    sendProtocolError(*conn, frame.request_id, "bad-json", parsed.message());
    return;
  }
  auto decoded = requestFromJson(frame.type, parsed.value());
  if (!decoded.isOk()) {
    sendProtocolError(*conn, frame.request_id, "bad-request",
                      decoded.message());
    return;
  }
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    ++conn->in_flight;
  }
  // Not under conn->mu: an admission-time refusal runs the callback before
  // submit() returns, on this thread.
  service_.submit(std::move(decoded.value().request),
                  decoded.value().admission,
                  [shared = shared_, conn, id = frame.request_id](
                      svc::ServiceReply reply) {
                    conn->settle(*shared, id, reply);
                  });
}

void Server::sendProtocolError(Connection& conn, std::uint64_t request_id,
                               const char* code, std::string message) {
  Frame frame;
  frame.type = static_cast<std::uint16_t>(FrameType::kProtocolError);
  frame.request_id = request_id;
  frame.payload =
      protocolErrorToJson({code, std::move(message)}).dump();
  {
    std::lock_guard<std::mutex> lock(conn.mu);
    conn.post(encodeFrame(frame));
  }
  shared_->count(&ServerStats::protocol_errors);
}

void Server::closeConnection(std::size_t index) {
  Connection& conn = *connections_[index];
  {
    std::lock_guard<std::mutex> lock(conn.mu);
    ::close(conn.fd);
    conn.fd = -1;
    conn.outbox.clear();
    // Whatever is still in flight is abandoned; each of those callbacks
    // finds fd == -1 and counts itself settled.
    std::lock_guard<std::mutex> stats_lock(shared_->stats_mu);
    ++shared_->stats.connections_closed;
    shared_->stats.orphans_adopted += conn.in_flight;
  }
  connections_.erase(connections_.begin() +
                     static_cast<std::ptrdiff_t>(index));
}

}  // namespace nsc::net
