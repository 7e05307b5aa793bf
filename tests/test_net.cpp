// The network edge: frame codec, wire JSON codecs, the poll-loop server's
// protocol-error discipline, replies settling on torn connections and after
// the server is gone, reply delivery without poll-timeout stalls, the
// end-to-end transport-fidelity golden, and the docs/PROTOCOL.md lockstep
// check (the doc is normative; this suite fails when code and doc drift).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "client/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/wire.h"
#include "nsc/scripts.h"
#include "service/service.h"
#include "sim/program_cache.h"
#include "sim/verify.h"

namespace nsc {
namespace {

// ---------------------------------------------------------------------------
// Frame codec.
// ---------------------------------------------------------------------------

TEST(FrameTest, RoundTripsByteAtATime) {
  net::Frame frame;
  frame.type = static_cast<std::uint16_t>(net::FrameType::kGenerateAndRun);
  frame.request_id = 0x1122334455667788ULL;
  frame.payload = "{\"script\":\"pipeline \\\"p\\\"\\n\"}";
  const std::string bytes = net::encodeFrame(frame);
  ASSERT_EQ(bytes.size(), net::kHeaderBytes + frame.payload.size());

  net::FrameReader reader;
  net::Frame out;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    reader.feed(&bytes[i], 1);
    ASSERT_EQ(reader.next(out), net::FrameReader::Next::kNeedMore) << i;
  }
  reader.feed(&bytes[bytes.size() - 1], 1);
  ASSERT_EQ(reader.next(out), net::FrameReader::Next::kFrame);
  EXPECT_EQ(out.version, net::kProtocolVersion);
  EXPECT_EQ(out.type, frame.type);
  EXPECT_EQ(out.request_id, frame.request_id);
  EXPECT_EQ(out.payload, frame.payload);
  EXPECT_EQ(reader.next(out), net::FrameReader::Next::kNeedMore);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameTest, BackToBackFramesDecodeInOrder) {
  std::string bytes;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    net::Frame frame;
    frame.type = static_cast<std::uint16_t>(net::FrameType::kReply);
    frame.request_id = id;
    frame.payload = std::string(static_cast<std::size_t>(id) * 10, 'x');
    net::appendFrame(bytes, frame);
  }
  net::FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  net::Frame out;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    ASSERT_EQ(reader.next(out), net::FrameReader::Next::kFrame);
    EXPECT_EQ(out.request_id, id);
    EXPECT_EQ(out.payload.size(), static_cast<std::size_t>(id) * 10);
  }
  EXPECT_EQ(reader.next(out), net::FrameReader::Next::kNeedMore);
}

TEST(FrameTest, BadMagicIsStickyAndDetectedEvenOnPartialHeader) {
  net::FrameReader reader;
  net::Frame out;
  reader.feed("NSCX", 4);  // wrong fourth byte, shorter than a header
  EXPECT_EQ(reader.next(out), net::FrameReader::Next::kError);
  EXPECT_EQ(reader.error(), net::FrameError::kBadMagic);
  // Sticky: feeding a valid frame afterwards cannot resynchronize.
  const std::string valid = net::encodeFrame(net::Frame{});
  reader.feed(valid.data(), valid.size());
  EXPECT_EQ(reader.next(out), net::FrameReader::Next::kError);
}

TEST(FrameTest, OversizedDeclaredLengthIsRejectedBeforeBuffering) {
  net::FrameReader reader(/*max_payload=*/1024);
  net::Frame frame;
  frame.type = static_cast<std::uint16_t>(net::FrameType::kOpenSession);
  frame.payload.assign(2048, 'p');
  const std::string bytes = net::encodeFrame(frame);
  // Header alone (no payload bytes) is enough to reject.
  net::Frame out;
  reader.feed(bytes.data(), net::kHeaderBytes);
  EXPECT_EQ(reader.next(out), net::FrameReader::Next::kError);
  EXPECT_EQ(reader.error(), net::FrameError::kOversized);
}

TEST(FrameTest, TypeTableCoversRequestsAndServerTypes) {
  const auto& types = net::allFrameTypes();
  ASSERT_EQ(types.size(), 9u);  // 7 requests + Reply + ProtocolError
  for (const auto& [code, name] : types) {
    EXPECT_TRUE(net::frameTypeKnown(code)) << name;
    EXPECT_STRNE(name, "?");
  }
  EXPECT_FALSE(net::frameTypeKnown(0));
  EXPECT_FALSE(net::frameTypeKnown(99));
}

// ---------------------------------------------------------------------------
// Wire codecs.
// ---------------------------------------------------------------------------

TEST(WireTest, WordHexRoundTripsEveryValueClassBitExactly) {
  const std::vector<double> words = {
      0.0,
      -0.0,
      1.0 / 3.0,
      -2.5e307 / 3.0,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
  };
  const std::string hex = net::encodeWordsHex(words);
  EXPECT_EQ(hex.size(), words.size() * 16);
  std::vector<double> back;
  ASSERT_TRUE(net::decodeWordsHex(hex, back));
  ASSERT_EQ(back.size(), words.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    std::uint64_t a = 0, b = 0;
    std::memcpy(&a, &words[i], 8);
    std::memcpy(&b, &back[i], 8);
    EXPECT_EQ(a, b) << i;  // bit pattern, not value (NaN != NaN)
  }
  std::vector<double> reject;
  EXPECT_FALSE(net::decodeWordsHex("0123", reject));        // not *16
  EXPECT_FALSE(net::decodeWordsHex("000000000000000G", reject));  // bad digit
  EXPECT_FALSE(net::decodeWordsHex("000000000000000F", reject));  // upper case
}

TEST(WireTest, EveryRequestTypeRoundTripsThroughJson) {
  std::vector<svc::Request> requests;
  requests.push_back(svc::OpenSession{"pipeline \"p\"\n"});
  svc::SessionCommand command;
  command.session = 7;
  command.script = "check\n";
  command.run = true;
  command.inputs.push_back(svc::PlaneImage{2, 5, {1.5, -0.25, 1.0 / 3.0}});
  command.outputs.push_back(svc::PlaneRange{4, 161, 366});
  requests.push_back(command);
  requests.push_back(svc::CloseSession{9});
  requests.push_back(svc::SubmitSession{"undo\n"});
  svc::GenerateAndRun gen;
  gen.script = "redo\n";
  gen.inputs.push_back(svc::PlaneImage{0, 0, {2.0, 4.0}});
  gen.outputs.push_back(svc::PlaneRange{9, 0, 1});
  requests.push_back(gen);
  requests.push_back(svc::RunEnsemble{"check\n", 6, 2});
  svc::RunSystemPhases phases;
  phases.script = "check\n";
  phases.dimension = 3;
  phases.phases = 2;
  phases.node_lanes = 4;
  phases.router.message_startup_cycles = 11;
  phases.router.hop_latency_cycles = 3;
  phases.router.words_per_cycle = 0.5;
  requests.push_back(phases);

  svc::Admission admission;
  admission.priority = svc::Priority::kBatch;
  admission.deadline_us = 1234;

  for (const svc::Request& request : requests) {
    const net::FrameType type = net::frameTypeFor(request);
    const common::Json payload = net::requestToJson(request, admission);
    auto decoded = net::requestFromJson(
        static_cast<std::uint16_t>(type), payload);
    ASSERT_TRUE(decoded.isOk()) << decoded.message();
    EXPECT_EQ(decoded.value().request.index(), request.index());
    ASSERT_TRUE(decoded.value().admission.priority.has_value());
    EXPECT_EQ(*decoded.value().admission.priority, svc::Priority::kBatch);
    EXPECT_EQ(decoded.value().admission.deadline_us, 1234);
    // Re-encoding the decoded request is byte-identical: nothing lossy.
    EXPECT_EQ(net::requestToJson(decoded.value().request,
                                 decoded.value().admission)
                  .dump(),
              payload.dump());
  }
}

TEST(WireTest, RequestDecodeRejectsTypeErrorsWithFieldMessages) {
  const std::uint16_t open =
      static_cast<std::uint16_t>(net::FrameType::kOpenSession);
  const std::uint16_t cmd =
      static_cast<std::uint16_t>(net::FrameType::kSessionCommand);
  EXPECT_FALSE(net::requestFromJson(open, common::Json(2.0)).isOk());
  EXPECT_FALSE(
      net::requestFromJson(static_cast<std::uint16_t>(net::FrameType::kReply),
                           common::Json(common::JsonObject{}))
          .isOk());
  {  // session is required
    common::JsonObject obj;
    obj["script"] = "check\n";
    auto result = net::requestFromJson(cmd, common::Json(std::move(obj)));
    ASSERT_FALSE(result.isOk());
    EXPECT_NE(result.message().find("session"), std::string::npos);
  }
  {  // wrong JSON type for a field
    common::JsonObject obj;
    obj["script"] = 42;
    auto result = net::requestFromJson(open, common::Json(std::move(obj)));
    ASSERT_FALSE(result.isOk());
    EXPECT_NE(result.message().find("script"), std::string::npos);
  }
  {  // bad plane-word hex
    common::JsonObject image;
    image["plane"] = 0;
    image["base"] = 0;
    image["values"] = "zzzz";
    common::JsonObject obj;
    obj["session"] = 1;
    common::JsonArray inputs;
    inputs.emplace_back(std::move(image));
    obj["inputs"] = std::move(inputs);
    EXPECT_FALSE(net::requestFromJson(cmd, common::Json(std::move(obj))).isOk());
  }
}

TEST(WireTest, ProtocolErrorPayloadRoundTrips) {
  const net::ProtocolError error{"bad-json", "unterminated string"};
  const net::ProtocolError back =
      net::protocolErrorFromJson(net::protocolErrorToJson(error));
  EXPECT_EQ(back.code, error.code);
  EXPECT_EQ(back.message, error.message);
  EXPECT_FALSE(net::protocolErrorCodes().empty());
}

std::vector<svc::PlaneImage> figure11Inputs() {
  std::vector<svc::PlaneImage> inputs;
  std::vector<double> u(640);
  for (std::size_t i = 0; i < u.size(); ++i) {
    u[i] = 0.25 * static_cast<double>((i * 37) % 11);
  }
  for (arch::PlaneId plane = 0; plane < 4; ++plane) {
    inputs.push_back(svc::PlaneImage{plane, 0, u});
  }
  std::vector<double> f(640);
  for (std::size_t i = 0; i < f.size(); ++i) {
    f[i] = 0.125 * static_cast<double>((i * 13) % 7);
  }
  inputs.push_back(svc::PlaneImage{8, 0, f});
  inputs.push_back(svc::PlaneImage{10, 0, std::vector<double>(640, 1.0)});
  return inputs;
}

svc::GenerateAndRun figure11Request() {
  svc::GenerateAndRun request;
  request.script = figure11SessionScript();
  request.inputs = figure11Inputs();
  request.outputs = {svc::PlaneRange{4, 161, 366}, svc::PlaneRange{9, 0, 1}};
  return request;
}

TEST(WireTest, RealReplyRoundTripsThroughJsonIncludingOkAndOutputs) {
  svc::ServiceOptions options;
  options.shards = 1;
  svc::WorkbenchService service(options);
  const svc::ServiceReply reply = service.submit(figure11Request()).get();
  ASSERT_TRUE(reply.ok());
  ASSERT_FALSE(reply.outputs.empty());
  ASSERT_NE(reply.verify, nullptr);

  auto decoded = net::replyFromJson(net::replyToJson(reply));
  ASSERT_TRUE(decoded.isOk()) << decoded.message();
  const svc::ServiceReply& back = decoded.value();
  EXPECT_EQ(back.ok(), reply.ok());  // complete_ travelled
  EXPECT_EQ(back.outputs, reply.outputs);
  EXPECT_EQ(back.run.total_cycles, reply.run.total_cycles);
  EXPECT_EQ(back.run.fu_launches, reply.run.fu_launches);
  EXPECT_EQ(back.session.commands, reply.session.commands);
  EXPECT_EQ(back.stats.shard, reply.stats.shard);
  ASSERT_NE(back.verify, nullptr);
  EXPECT_EQ(back.verify->diagnostics.size(), reply.verify->diagnostics.size());
  // Full fidelity, stated as bytes: re-encoding the decoded reply
  // reproduces the original document exactly.
  EXPECT_EQ(net::replyToJson(back).dump(), net::replyToJson(reply).dump());
  // And the golden form strips exactly the documented fields.
  const common::Json golden = net::deterministicReplyJson(reply);
  for (const std::string& field : net::nondeterministicStatsFields()) {
    EXPECT_FALSE(golden.at("stats").has(field)) << field;
  }
}

TEST(WireTest, RejectedReplyKeepsTypedRejectCode) {
  svc::ServiceOptions options;
  options.shards = 1;
  svc::WorkbenchService service(options);
  const svc::ServiceReply reply =
      service.submit(svc::CloseSession{999}).get();
  EXPECT_TRUE(reply.rejected());
  auto decoded = net::replyFromJson(net::replyToJson(reply));
  ASSERT_TRUE(decoded.isOk()) << decoded.message();
  EXPECT_TRUE(decoded.value().rejected());
  EXPECT_EQ(decoded.value().stats.rejected, svc::Reject::kUnknownSession);
  EXPECT_EQ(decoded.value().ok(), reply.ok());
  EXPECT_EQ(decoded.value().status.message(), reply.status.message());
}

// ---------------------------------------------------------------------------
// Server: protocol-error discipline over real sockets.
// ---------------------------------------------------------------------------

// Blocking raw socket speaking frames directly (the hostile client the
// protocol-error tests need; nsc::Client is the well-behaved one).
class RawClient {
 public:
  explicit RawClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
    timeval tv{};
    tv.tv_sec = 20;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~RawClient() { close(); }
  bool connected() const { return connected_; }
  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool sendBytes(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  // Reads one frame; false on EOF/timeout/desync.
  bool readFrame(net::Frame& out) {
    char buf[4096];
    for (;;) {
      switch (reader_.next(out)) {
        case net::FrameReader::Next::kFrame: return true;
        case net::FrameReader::Next::kError: return false;
        case net::FrameReader::Next::kNeedMore: break;
      }
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      reader_.feed(buf, static_cast<std::size_t>(n));
    }
  }

  bool readEof() {
    char buf[256];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return false;
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  net::FrameReader reader_;
};

net::ProtocolError errorPayload(const net::Frame& frame) {
  auto parsed = common::Json::parse(frame.payload);
  EXPECT_TRUE(parsed.isOk());
  return parsed.isOk() ? net::protocolErrorFromJson(parsed.value())
                       : net::ProtocolError{};
}

std::string submitFrame(std::uint64_t id, const std::string& script) {
  net::Frame frame;
  frame.type = static_cast<std::uint16_t>(net::FrameType::kSubmitSession);
  frame.request_id = id;
  frame.payload = net::requestToJson(svc::SubmitSession{script}).dump();
  return net::encodeFrame(frame);
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    svc::ServiceOptions options;
    options.shards = 2;
    options.queue_capacity = 32;
    // A private compiled-program cache, so replies (program_cache_hit in
    // particular) do not depend on which tests ran before in this process.
    options.cache = &cache_;
    service_ = std::make_unique<svc::WorkbenchService>(options);
    net::ServerOptions server_options;
    server_options.max_payload = 1 << 20;
    server_ = std::make_unique<net::Server>(*service_, server_options);
    const common::Status status = server_->start();
    ASSERT_TRUE(status.isOk()) << status.message();
    ASSERT_NE(server_->port(), 0);
  }

  // Proves the server still serves: a fresh connection gets a real reply.
  void expectServerHealthy() {
    RawClient probe(server_->port());
    ASSERT_TRUE(probe.connected());
    ASSERT_TRUE(probe.sendBytes(submitFrame(77, "pipeline \"ok\"\n")));
    net::Frame reply;
    ASSERT_TRUE(probe.readFrame(reply));
    EXPECT_EQ(reply.type, static_cast<std::uint16_t>(net::FrameType::kReply));
    EXPECT_EQ(reply.request_id, 77u);
  }

  sim::CompiledProgramCache cache_;
  std::unique_ptr<svc::WorkbenchService> service_;
  std::unique_ptr<net::Server> server_;
};

TEST_F(ServerTest, BadMagicGetsTypedErrorThenClose) {
  RawClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.sendBytes("GET / HTTP/1.1\r\n\r\n"));
  net::Frame frame;
  ASSERT_TRUE(client.readFrame(frame));
  EXPECT_EQ(frame.type,
            static_cast<std::uint16_t>(net::FrameType::kProtocolError));
  EXPECT_EQ(frame.request_id, 0u);  // stream-level: no frame to blame
  EXPECT_EQ(errorPayload(frame).code, "bad-magic");
  EXPECT_TRUE(client.readEof());
  expectServerHealthy();
}

TEST_F(ServerTest, OversizedLengthPrefixGetsTypedErrorThenClose) {
  RawClient client(server_->port());
  ASSERT_TRUE(client.connected());
  net::Frame huge;
  huge.type = static_cast<std::uint16_t>(net::FrameType::kOpenSession);
  huge.request_id = 5;
  std::string header = net::encodeFrame(huge);
  // Patch the length prefix to 2 MiB (above the server's 1 MiB bound)
  // without actually sending a payload — the declared length alone must
  // trigger the refusal.
  const std::uint32_t declared = 2u << 20;
  header[16] = static_cast<char>(declared & 0xff);
  header[17] = static_cast<char>((declared >> 8) & 0xff);
  header[18] = static_cast<char>((declared >> 16) & 0xff);
  header[19] = static_cast<char>((declared >> 24) & 0xff);
  ASSERT_TRUE(client.sendBytes(header));
  net::Frame frame;
  ASSERT_TRUE(client.readFrame(frame));
  EXPECT_EQ(frame.type,
            static_cast<std::uint16_t>(net::FrameType::kProtocolError));
  EXPECT_EQ(errorPayload(frame).code, "oversized");
  EXPECT_TRUE(client.readEof());
  expectServerHealthy();
}

TEST_F(ServerTest, TruncatedFrameThenDisconnectLeavesServerServing) {
  {
    RawClient client(server_->port());
    ASSERT_TRUE(client.connected());
    // A correct prefix of a frame: magic + half the header, then gone.
    const std::string valid = submitFrame(3, "check\n");
    ASSERT_TRUE(client.sendBytes(valid.substr(0, 10)));
    client.close();
  }
  expectServerHealthy();
}

TEST_F(ServerTest, PayloadErrorsKeepTheConnectionOpen) {
  RawClient client(server_->port());
  ASSERT_TRUE(client.connected());

  {  // garbage JSON
    net::Frame frame;
    frame.type = static_cast<std::uint16_t>(net::FrameType::kOpenSession);
    frame.request_id = 21;
    frame.payload = "{not json";
    ASSERT_TRUE(client.sendBytes(net::encodeFrame(frame)));
    net::Frame reply;
    ASSERT_TRUE(client.readFrame(reply));
    EXPECT_EQ(reply.type,
              static_cast<std::uint16_t>(net::FrameType::kProtocolError));
    EXPECT_EQ(reply.request_id, 21u);
    EXPECT_EQ(errorPayload(reply).code, "bad-json");
  }
  {  // unknown frame type
    net::Frame frame;
    frame.type = 42;
    frame.request_id = 22;
    frame.payload = "{}";
    ASSERT_TRUE(client.sendBytes(net::encodeFrame(frame)));
    net::Frame reply;
    ASSERT_TRUE(client.readFrame(reply));
    EXPECT_EQ(reply.request_id, 22u);
    EXPECT_EQ(errorPayload(reply).code, "unknown-type");
  }
  {  // wrong protocol version
    net::Frame frame;
    frame.version = 9;
    frame.type = static_cast<std::uint16_t>(net::FrameType::kOpenSession);
    frame.request_id = 23;
    frame.payload = "{}";
    ASSERT_TRUE(client.sendBytes(net::encodeFrame(frame)));
    net::Frame reply;
    ASSERT_TRUE(client.readFrame(reply));
    EXPECT_EQ(reply.request_id, 23u);
    EXPECT_EQ(errorPayload(reply).code, "bad-version");
  }
  {  // well-formed JSON, type-invalid request
    net::Frame frame;
    frame.type = static_cast<std::uint16_t>(net::FrameType::kSessionCommand);
    frame.request_id = 24;
    frame.payload = "{\"script\": 42}";  // missing session, wrong type
    ASSERT_TRUE(client.sendBytes(net::encodeFrame(frame)));
    net::Frame reply;
    ASSERT_TRUE(client.readFrame(reply));
    EXPECT_EQ(reply.request_id, 24u);
    EXPECT_EQ(errorPayload(reply).code, "bad-request");
  }

  // Same connection, same socket: a valid request still gets served.
  ASSERT_TRUE(client.sendBytes(submitFrame(25, "pipeline \"after\"\n")));
  net::Frame reply;
  ASSERT_TRUE(client.readFrame(reply));
  EXPECT_EQ(reply.type, static_cast<std::uint16_t>(net::FrameType::kReply));
  EXPECT_EQ(reply.request_id, 25u);
}

TEST_F(ServerTest, MalformedStormLeavesOtherConnectionsUnaffected) {
  // A healthy session holds its connection across a storm of hostile ones.
  ClientOptions options;
  options.port = server_->port();
  Client healthy(options);
  auto opened = healthy.openSession("pipeline \"storm\"\n");
  ASSERT_TRUE(opened.isOk()) << opened.message();
  const std::uint64_t session = opened.value().stats.session;

  for (int i = 0; i < 8; ++i) {
    RawClient hostile(server_->port());
    ASSERT_TRUE(hostile.connected());
    ASSERT_TRUE(hostile.sendBytes("\xff\xff\xff\xff garbage"));
    net::Frame frame;
    EXPECT_TRUE(hostile.readFrame(frame));
  }

  svc::SessionCommand command;
  command.session = session;
  command.script = "check\n";
  auto reply = healthy.sessionCommand(command);
  ASSERT_TRUE(reply.isOk()) << reply.message();
  EXPECT_EQ(reply.value().stats.session, session);
  auto closed = healthy.closeSession(session);
  ASSERT_TRUE(closed.isOk()) << closed.message();
}

TEST(ServerOrphanTest, TornConnectionMidRequestStillSettlesTheFuture) {
  // A service that admits but does not serve until start(): the request is
  // *guaranteed* still in flight when the connection tears, so the server
  // must count it as an orphan (no timing luck involved).
  svc::ServiceOptions options;
  options.shards = 1;
  options.start = false;
  svc::WorkbenchService service(options);
  net::Server server(service);
  ASSERT_TRUE(server.start().isOk());

  {
    RawClient client(server.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.sendBytes(submitFrame(31, "pipeline \"torn\"\n")));
    client.close();  // tear it down with the request un-dispatched
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (server.stats().orphans_adopted < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "orphan never adopted";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server.stats().orphans_settled, 0u);  // still in flight

  // Let the service run: the orphaned request must settle — the admitted
  // job is never abandoned, and the server keeps serving afterwards.
  service.start();
  while (server.stats().orphans_settled < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "orphaned request never settled";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  RawClient probe(server.port());
  ASSERT_TRUE(probe.connected());
  ASSERT_TRUE(probe.sendBytes(submitFrame(32, "pipeline \"after\"\n")));
  net::Frame reply;
  ASSERT_TRUE(probe.readFrame(reply));
  EXPECT_EQ(reply.request_id, 32u);
  server.stop();
}

TEST(ServerLifetimeTest, ReplySettlingAfterTheServerIsDestroyedIsDropped) {
  // nsc_serve stops its server before its service, and the service's stop()
  // settles whatever it still holds: the completion callback then runs with
  // no Server left, and may touch only state it owns a share of.
  svc::ServiceOptions options;
  options.shards = 1;
  options.start = false;
  svc::WorkbenchService service(options);
  auto server = std::make_unique<net::Server>(
      service, net::ServerOptions{.drain_timeout_ms = 0});
  ASSERT_TRUE(server->start().isOk());

  RawClient client(server->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.sendBytes(submitFrame(51, "pipeline \"late\"\n")));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (service.queueDepth() < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "request never reached the service";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // No drain budget: the socket closes with the request still in flight.
  server->stop();
  EXPECT_EQ(server->stats().orphans_adopted, 1u);
  EXPECT_EQ(server->stats().orphans_settled, 0u);
  server.reset();
  EXPECT_TRUE(client.readEof());

  service.start();  // the job is served and settles now
  service.stop();   // joins the shard, so its callback has run
  EXPECT_EQ(service.shardStats(0).requests, 1u);
}

TEST_F(ServerTest, SequentialCallsNeverWaitForTheIdlePollTimeout) {
  // The thread that settles a reply sends it (or wakes the server thread).
  // A settle that did neither would leave its reply to the 50 ms idle poll
  // timeout, and these 20 calls would take a second.
  ClientOptions options;
  options.port = server_->port();
  Client client(options);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 10; ++i) {
    auto opened = client.openSession();
    ASSERT_TRUE(opened.isOk()) << opened.message();
    auto closed = client.closeSession(opened.value().stats.session);
    ASSERT_TRUE(closed.isOk()) << closed.message();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(500));
}

TEST_F(ServerTest, ReplyLargerThanTheSocketBufferIsFinishedByPollOut) {
  // The client reads nothing until both replies settled.  A loopback send
  // buffer grows to about 4 MiB (the Linux tcp_wmem default cap), so the
  // settling thread can send only part of the 8 MiB reply; the server
  // thread must finish it on POLLOUT, and the small reply queues behind or
  // ahead of it whole.  Reading both frames intact proves the stream was
  // neither cut nor interleaved.
  RawClient client(server_->port());
  ASSERT_TRUE(client.connected());
  constexpr std::uint64_t kWords = 1u << 19;  // 16 hex digits each
  svc::GenerateAndRun big;
  big.script = "pipeline \"big\"\n";
  big.outputs = {svc::PlaneRange{0, 0, kWords}};
  net::Frame frame;
  frame.type = static_cast<std::uint16_t>(net::FrameType::kGenerateAndRun);
  frame.request_id = 61;
  frame.payload = net::requestToJson(big).dump();
  std::string bytes = net::encodeFrame(frame);
  bytes += submitFrame(62, "# small\n");
  ASSERT_TRUE(client.sendBytes(bytes));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (server_->stats().replies_sent < 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "replies never settled";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  bool saw_big = false, saw_small = false;
  for (int i = 0; i < 2; ++i) {
    net::Frame reply;
    ASSERT_TRUE(client.readFrame(reply));
    ASSERT_EQ(reply.type, static_cast<std::uint16_t>(net::FrameType::kReply));
    if (reply.request_id == 61) {
      saw_big = true;
      EXPECT_GT(reply.payload.size(), 16 * kWords);
    }
    if (reply.request_id == 62) saw_small = true;
  }
  EXPECT_TRUE(saw_big);
  EXPECT_TRUE(saw_small);
}

// ---------------------------------------------------------------------------
// End-to-end golden: a session split across framed requests over a real
// socket is bit-identical to the same session through the in-process
// service (ISSUE acceptance criterion).
// ---------------------------------------------------------------------------

TEST_F(ServerTest, LoopbackSessionIsBitIdenticalToInProcessService) {
  // Split the Figure-11 script at its own step markers into 4 command
  // batches; the last one deposits inputs, runs, and reads back planes.
  const std::string script = figure11SessionScript();
  std::vector<std::string> chunks;
  std::size_t start = 0;
  for (int step = 2; step <= 4; ++step) {
    const std::string marker = "# step " + std::to_string(step);
    const std::size_t cut = script.find(marker);
    ASSERT_NE(cut, std::string::npos) << marker;
    chunks.push_back(script.substr(start, cut - start));
    start = cut;
  }
  chunks.push_back(script.substr(start));

  auto driveSession = [&](auto&& call) -> std::vector<svc::ServiceReply> {
    std::vector<svc::ServiceReply> replies;
    replies.push_back(call(svc::Request{svc::OpenSession{}}));
    const std::uint64_t session = replies.front().stats.session;
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      svc::SessionCommand command;
      command.session = session;
      command.script = chunks[c];
      if (c + 1 == chunks.size()) {
        command.run = true;
        command.inputs = figure11Inputs();
        command.outputs = {svc::PlaneRange{4, 161, 366},
                           svc::PlaneRange{9, 0, 1}};
      }
      replies.push_back(call(svc::Request{command}));
    }
    replies.push_back(call(svc::Request{svc::CloseSession{session}}));
    return replies;
  };

  // Reference: in-process service, same shard count as the server's, and
  // its own private cache like the served one, so both compile-miss first.
  sim::CompiledProgramCache reference_cache;
  svc::ServiceOptions reference_options;
  reference_options.shards = 2;
  reference_options.cache = &reference_cache;
  svc::WorkbenchService reference(reference_options);
  const std::vector<svc::ServiceReply> expected =
      driveSession([&](svc::Request request) {
        return reference.submit(std::move(request)).get();
      });

  // Same session over the socket through the blocking client.
  ClientOptions client_options;
  client_options.port = server_->port();
  Client client(client_options);
  const std::vector<svc::ServiceReply> got =
      driveSession([&](svc::Request request) {
        auto reply = client.call(std::move(request));
        EXPECT_TRUE(reply.isOk()) << reply.message();
        return reply.isOk() ? std::move(reply).value() : svc::ServiceReply{};
      });

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(net::deterministicReplyJson(got[i]).dump(),
              net::deterministicReplyJson(expected[i]).dump())
        << "reply " << i;
    EXPECT_EQ(got[i].ok(), expected[i].ok()) << i;
  }
  // The run reply carried real plane data, bit-exactly.
  const svc::ServiceReply& run = got[got.size() - 2];
  ASSERT_EQ(run.outputs.size(), 2u);
  EXPECT_EQ(run.outputs[0].size(), 366u);
  EXPECT_EQ(run.outputs, expected[expected.size() - 2].outputs);
}

TEST_F(ServerTest, PipelinedRequestsComeBackByRequestId) {
  // Two requests pipelined on one raw connection: a slow GenerateAndRun
  // then a trivial SubmitSession.  Replies may settle out of order; the
  // request ids must tie them back regardless of arrival order.
  RawClient client(server_->port());
  ASSERT_TRUE(client.connected());
  net::Frame heavy;
  heavy.type = static_cast<std::uint16_t>(net::FrameType::kGenerateAndRun);
  heavy.request_id = 41;
  heavy.payload = net::requestToJson(figure11Request()).dump();
  std::string bytes = net::encodeFrame(heavy);
  bytes += submitFrame(42, "# nothing\n");
  ASSERT_TRUE(client.sendBytes(bytes));

  bool saw_heavy = false, saw_light = false;
  for (int i = 0; i < 2; ++i) {
    net::Frame reply;
    ASSERT_TRUE(client.readFrame(reply));
    ASSERT_EQ(reply.type,
              static_cast<std::uint16_t>(net::FrameType::kReply));
    if (reply.request_id == 41) saw_heavy = true;
    if (reply.request_id == 42) saw_light = true;
  }
  EXPECT_TRUE(saw_heavy);
  EXPECT_TRUE(saw_light);
}

// ---------------------------------------------------------------------------
// docs/PROTOCOL.md lockstep: the normative doc must name the magic, the
// version, every frame type with its code, every protocol error code, and
// every nondeterministic stats field.  Changing the wire contract without
// updating the doc fails here.
// ---------------------------------------------------------------------------

TEST(ProtocolDocTest, DocumentsTheWireContractInLockstepWithTheCode) {
  const std::string path = std::string(NSC_REPO_DIR) + "/docs/PROTOCOL.md";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path << " missing";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string doc = buffer.str();

  EXPECT_NE(doc.find("NSCW"), std::string::npos) << "magic";
  EXPECT_NE(doc.find("version"), std::string::npos);
  for (const auto& [code, name] : net::allFrameTypes()) {
    EXPECT_NE(doc.find("| " + std::to_string(code) + " "), std::string::npos)
        << "frame type code " << code << " undocumented";
    EXPECT_NE(doc.find(name), std::string::npos)
        << "frame type " << name << " undocumented";
  }
  for (const char* code : net::protocolErrorCodes()) {
    EXPECT_NE(doc.find(std::string("`") + code + "`"), std::string::npos)
        << "protocol error code " << code << " undocumented";
  }
  for (const std::string& field : net::nondeterministicStatsFields()) {
    EXPECT_NE(doc.find("`" + field + "`"), std::string::npos)
        << "nondeterministic stats field " << field << " undocumented";
  }
  // Reply schema top-level keys.
  for (const char* key : {"status", "session", "generation", "run",
                          "ensemble", "system", "outputs", "verify", "stats",
                          "complete"}) {
    EXPECT_NE(doc.find(std::string("`") + key + "`"), std::string::npos)
        << "reply field " << key << " undocumented";
  }
}

}  // namespace
}  // namespace nsc
