// Network-edge claim: the framed wire protocol (PROTOCOL.md) adds transport
// without changing the answer.  Every benchmark here drives the same
// persistent-session workload as service_throughput's
// BM_SessionThroughput_Persistent — kSessions users × kChunks incremental
// command batches of the Figure-11 Jacobi script — in one of two shapes,
// each over both transports, so each pair differs only in transport:
//
//   synchronous  one request outstanding per user; a user sends its next
//                chunk when the previous reply arrived:
//                BM_LoopbackSessionThroughput (nsc::Client over a real TCP
//                loopback socket through nsc::net::Server) vs
//                BM_InProcessSessionSync (one submit().get() per chunk).
//   pipelined    every chunk of every session is sent before any reply is
//                read: BM_LoopbackSessionPipelined vs
//                BM_InProcessSessionBaseline.
//
// The artifact section verifies the bit-identity contract the comparison
// rests on (net::deterministicReplyJson over both transports).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "client/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/wire.h"
#include "service/service.h"

namespace {

using namespace nsc;

constexpr int kSessions = 8;
constexpr int kChunks = 8;

svc::ServiceOptions benchServiceOptions(sim::CompiledProgramCache& cache) {
  svc::ServiceOptions options;
  options.shards = 4;
  options.queue_capacity = 2 * kSessions * kChunks;
  options.cache = &cache;
  return options;
}

svc::SessionCommand chunkCommand(std::uint64_t session,
                                 const std::vector<std::string>& chunks,
                                 int c) {
  svc::SessionCommand command;
  command.session = session;
  command.script = chunks[static_cast<std::size_t>(c)];
  command.run = (c == kChunks - 1);
  return command;
}

// A bare framed connection that can have many requests outstanding
// (nsc::Client allows one).  Any failure aborts: a bench that loses a reply
// has no number to report.
class PipelinedConnection {
 public:
  explicit PipelinedConnection(std::uint16_t port)
      : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      std::abort();
    }
  }
  ~PipelinedConnection() { ::close(fd_); }
  PipelinedConnection(const PipelinedConnection&) = delete;
  PipelinedConnection& operator=(const PipelinedConnection&) = delete;

  void send(const svc::Request& request) {
    net::Frame frame;
    frame.type = static_cast<std::uint16_t>(net::frameTypeFor(request));
    frame.request_id = next_id_++;
    frame.payload = net::requestToJson(request).dump();
    const std::string bytes = net::encodeFrame(frame);
    for (std::size_t sent = 0; sent < bytes.size();) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) std::abort();
      sent += static_cast<std::size_t>(n);
    }
  }

  // The next reply to arrive, decoded.
  svc::ServiceReply receive() {
    net::Frame frame;
    while (reader_.next(frame) != net::FrameReader::Next::kFrame) {
      char buf[64 * 1024];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) std::abort();
      reader_.feed(buf, static_cast<std::size_t>(n));
    }
    auto parsed = common::Json::parse(frame.payload);
    if (!parsed.isOk()) std::abort();
    auto reply = net::replyFromJson(parsed.value());
    if (!reply.isOk()) std::abort();
    return std::move(reply).value();
  }

 private:
  int fd_;
  std::uint64_t next_id_ = 1;
  net::FrameReader reader_;
};

// One session over the socket and the same session in-process; the replies
// must be bit-identical modulo the documented placement/timing fields.
void printArtifact() {
  bench::banner("net_throughput",
                "the wire protocol as a zero-answer-drift transport");
  const std::vector<std::string> chunks = figure11SessionChunks(kChunks);

  sim::CompiledProgramCache cache;
  svc::WorkbenchService service(benchServiceOptions(cache));
  net::Server server(service);
  if (!server.start().isOk()) {
    std::printf("loopback server failed to start\n\n");
    return;
  }
  Client client({.host = "127.0.0.1", .port = server.port()});

  auto drive = [&](auto submit) {
    std::vector<svc::ServiceReply> replies;
    replies.push_back(submit(svc::Request{svc::OpenSession{}}));
    const std::uint64_t id = replies.front().stats.session;
    for (int c = 0; c < kChunks; ++c) {
      replies.push_back(submit(svc::Request{chunkCommand(id, chunks, c)}));
    }
    replies.push_back(submit(svc::Request{svc::CloseSession{id}}));
    return replies;
  };
  const std::vector<svc::ServiceReply> wire = drive([&](svc::Request r) {
    auto result = client.call(std::move(r));
    return result.isOk() ? result.value() : svc::ServiceReply{};
  });
  const std::vector<svc::ServiceReply> local = drive(
      [&](svc::Request r) { return service.submit(std::move(r)).get(); });

  int identical = 0;
  for (std::size_t i = 0; i < wire.size() && i < local.size(); ++i) {
    // Distinct session ids are expected (two sessions on one service), and
    // the second drive hits the program cache the first one warmed — mask
    // both; neither is transport drift.
    common::Json a = net::deterministicReplyJson(wire[i]);
    common::Json b = net::deterministicReplyJson(local[i]);
    for (common::Json* j : {&a, &b}) {
      (*j)["stats"].asObject().erase("session");
      (*j)["stats"].asObject().erase("program_cache_hit");
    }
    if (a.dump() == b.dump()) ++identical;
  }
  std::printf("Figure-11 session, %d command batches: %d/%zu replies "
              "bit-identical across loopback TCP vs in-process submit\n"
              "(deterministicReplyJson; session-id counter masked), "
              "final run halted: %s\n\n",
              kChunks, identical, wire.size(),
              !wire[kChunks].run.error && wire[kChunks].run.halted ? "yes"
                                                                   : "no");
  server.stop();
}

// kSessions concurrent clients, each its own connection and persistent
// session, each streaming kChunks command batches (the last generates and
// runs).  Times frame encode/decode + syscalls + the service itself.
void BM_LoopbackSessionThroughput(benchmark::State& state) {
  sim::CompiledProgramCache cache;
  svc::WorkbenchService service(benchServiceOptions(cache));
  net::Server server(service);
  if (!server.start().isOk()) {
    state.SkipWithError("loopback server failed to start");
    return;
  }
  const std::uint16_t port = server.port();
  const std::vector<std::string> chunks = figure11SessionChunks(kChunks);
  for (auto _ : state) {
    std::vector<std::thread> users;
    users.reserve(kSessions);
    for (int s = 0; s < kSessions; ++s) {
      users.emplace_back([&chunks, port] {
        Client client({.host = "127.0.0.1", .port = port});
        auto opened = client.openSession();
        if (!opened.isOk()) std::abort();
        const std::uint64_t id = opened.value().stats.session;
        for (int c = 0; c < kChunks; ++c) {
          auto reply = client.sessionCommand(chunkCommand(id, chunks, c));
          if (!reply.isOk()) std::abort();
          benchmark::DoNotOptimize(reply.value().run.total_cycles);
        }
        if (!client.closeSession(id).isOk()) std::abort();
      });
    }
    for (std::thread& user : users) user.join();
  }
  state.SetItemsProcessed(state.iterations() * kSessions * kChunks);
  server.stop();
}
BENCHMARK(BM_LoopbackSessionThroughput)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// BM_LoopbackSessionThroughput's interaction without the socket: kSessions
// user threads, each waiting for every reply before submitting its next
// chunk.
void BM_InProcessSessionSync(benchmark::State& state) {
  sim::CompiledProgramCache cache;
  svc::WorkbenchService service(benchServiceOptions(cache));
  const std::vector<std::string> chunks = figure11SessionChunks(kChunks);
  for (auto _ : state) {
    std::vector<std::thread> users;
    users.reserve(kSessions);
    for (int s = 0; s < kSessions; ++s) {
      users.emplace_back([&service, &chunks] {
        const std::uint64_t id =
            service.submit(svc::OpenSession{}).get().stats.session;
        for (int c = 0; c < kChunks; ++c) {
          benchmark::DoNotOptimize(
              service.submit(chunkCommand(id, chunks, c)).get()
                  .run.total_cycles);
        }
        service.submit(svc::CloseSession{id}).get();
      });
    }
    for (std::thread& user : users) user.join();
  }
  state.SetItemsProcessed(state.iterations() * kSessions * kChunks);
}
BENCHMARK(BM_InProcessSessionSync)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// The same interaction submitted straight to the service (mirrors
// service_throughput's BM_SessionThroughput_Persistent), pipelined: every
// chunk of every session is submitted before any reply is awaited.
void BM_InProcessSessionBaseline(benchmark::State& state) {
  sim::CompiledProgramCache cache;
  svc::WorkbenchService service(benchServiceOptions(cache));
  const std::vector<std::string> chunks = figure11SessionChunks(kChunks);
  for (auto _ : state) {
    std::vector<std::uint64_t> ids(kSessions);
    for (int s = 0; s < kSessions; ++s) {
      ids[static_cast<std::size_t>(s)] =
          service.submit(svc::OpenSession{}).get().stats.session;
    }
    std::vector<std::future<svc::ServiceReply>> futures;
    futures.reserve(static_cast<std::size_t>(kSessions * kChunks));
    for (int c = 0; c < kChunks; ++c) {
      for (int s = 0; s < kSessions; ++s) {
        futures.push_back(service.submit(
            chunkCommand(ids[static_cast<std::size_t>(s)], chunks, c)));
      }
    }
    for (auto& future : futures) {
      benchmark::DoNotOptimize(future.get().run.total_cycles);
    }
    for (int s = 0; s < kSessions; ++s) {
      service.submit(svc::CloseSession{ids[static_cast<std::size_t>(s)]})
          .get();
    }
  }
  state.SetItemsProcessed(state.iterations() * kSessions * kChunks);
}
BENCHMARK(BM_InProcessSessionBaseline)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// BM_InProcessSessionBaseline's interaction over the socket: one connection
// per session, all driven from this thread; sessions open and close one
// round trip at a time, and every chunk frame is written before any reply
// is read.
void BM_LoopbackSessionPipelined(benchmark::State& state) {
  sim::CompiledProgramCache cache;
  svc::WorkbenchService service(benchServiceOptions(cache));
  net::Server server(service);
  if (!server.start().isOk()) {
    state.SkipWithError("loopback server failed to start");
    return;
  }
  const std::vector<std::string> chunks = figure11SessionChunks(kChunks);
  for (auto _ : state) {
    std::vector<std::unique_ptr<PipelinedConnection>> connections;
    std::vector<std::uint64_t> ids;
    for (int s = 0; s < kSessions; ++s) {
      connections.push_back(
          std::make_unique<PipelinedConnection>(server.port()));
      connections.back()->send(svc::OpenSession{});
      ids.push_back(connections.back()->receive().stats.session);
    }
    for (int c = 0; c < kChunks; ++c) {
      for (int s = 0; s < kSessions; ++s) {
        const auto i = static_cast<std::size_t>(s);
        connections[i]->send(chunkCommand(ids[i], chunks, c));
      }
    }
    for (auto& connection : connections) {
      for (int c = 0; c < kChunks; ++c) {
        benchmark::DoNotOptimize(connection->receive().run.total_cycles);
      }
    }
    for (std::size_t i = 0; i < connections.size(); ++i) {
      connections[i]->send(svc::CloseSession{ids[i]});
      connections[i]->receive();
    }
  }
  state.SetItemsProcessed(state.iterations() * kSessions * kChunks);
  server.stop();
}
BENCHMARK(BM_LoopbackSessionPipelined)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  printArtifact();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
