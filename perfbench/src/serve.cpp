// The served workloads: a real nsc_serve driven over loopback TCP.
//
//   sessions  4 connections, closed loop.  Each connection is one user doing
//             OpenSession, the Figure-11 script in 8 SessionCommand chunks
//             (the last deposits seeded planes, runs, reads back planes 4
//             and 9), CloseSession, and again.  Default server flags.
//   mixed     2 interactive users in an open loop (each command due a seeded
//             think time after the previous one was due) against a server
//             whose session TTL is shorter than the think time, so idle
//             sessions spill to --checkpoint-dir and the next command
//             restores them; plus 2 batch connections in a closed loop of
//             64-replica RunEnsemble requests, each a distinct seeded
//             program (a compile-cache miss).
//
// Every reply is compared against an in-process reference computed before
// timing starts.  Traced runs replay the same seeded load through a client
// that speaks frames directly, then replay the request stream in-process
// through the layers' public calls, timing each.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.h"
#include "client/client.h"
#include "common/rng.h"
#include "common/strings.h"
#include "inputs.h"
#include "net/frame.h"
#include "net/wire.h"
#include "nsc/workbench.h"
#include "service/checkpoint.h"
#include "sim/verify.h"

extern char** environ;

namespace perfbench {

using namespace nsc;

namespace {

constexpr int kChunks = 8;
constexpr int kSessionVariants = 16;
constexpr int kReplicas = 64;
// Two batch connections cycle 64 variants each.  Between two uses of one
// program, more than the server's 64-entry program cache has been touched,
// so every batch request is a compile miss.
constexpr int kBatchVariants = 128;
constexpr int kSetups = 7;
constexpr double kWarmupS = 1.0;
constexpr double kThinkMs = 10.0;           // mixed: mean think time
constexpr std::int64_t kSessionTtlUs = 2000;  // mixed: shorter than think
// mixed: the run is invalid when the generator's own wake-ups ran this late.
constexpr double kMaxLateP99Ms = 0.5 * kThinkMs;
// Stage-2 replay bounds for traced runs.
constexpr std::size_t kReplaySessions = 64;
constexpr std::size_t kReplayBatches = 64;
constexpr std::size_t kCaptureLimit = 400;

// ---------------------------------------------------------------------------
// The served process.
// ---------------------------------------------------------------------------

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Spawns `binary` on an ephemeral port and waits until it listens.
  bool start(const std::string& binary, const std::vector<std::string>& args,
             const std::string& dir, int index, std::string& error) {
    const std::string port_file = dir + "/port-" + std::to_string(index);
    const std::string log_file = dir + "/serve-" + std::to_string(index) +
                                 ".log";
    ::unlink(port_file.c_str());
    std::vector<std::string> words = {binary, "--port", "0", "--port-file",
                                      port_file};
    words.insert(words.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& w : words) argv.push_back(w.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log_file.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    pid_t pid = -1;
    const int rc = posix_spawn(&pid, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      error = "cannot spawn " + binary + ": " + std::strerror(rc);
      return false;
    }
    pid_ = pid;
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (Clock::now() < deadline) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        error = "nsc_serve exited during start-up (see " + log_file + ")";
        return false;
      }
      std::ifstream in(port_file);
      std::stringstream text;
      text << in.rdbuf();
      const std::string port = text.str();
      if (!port.empty() && port.back() == '\n') {
        port_ = static_cast<std::uint16_t>(std::stoi(port));
        return port_ != 0;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    error = "nsc_serve did not listen within 20 s";
    return false;
  }

  // SIGTERM, wait for the drain, SIGKILL as a last resort; always reaps.
  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const auto deadline = Clock::now() + std::chrono::seconds(15);
    int status = 0;
    while (Clock::now() < deadline) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  int pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

 private:
  int pid_ = -1;
  std::uint16_t port_ = 0;
};

// ---------------------------------------------------------------------------
// One load connection.  Untraced runs go through nsc::Client, the library a
// user's program calls; traced runs speak frames directly so encode, round
// trip and decode are timed apart.
// ---------------------------------------------------------------------------

struct CallTiming {
  double encode_us = 0;
  double decode_us = 0;
  std::string request_frame;  // captured bytes (traced runs only)
};

class Caller {
 public:
  Caller(std::uint16_t port, Tracer& tracer)
      : port_(port),
        tracer_(tracer),
        client_(ClientOptions{.host = "127.0.0.1", .port = port}) {}
  ~Caller() { closeSocket(); }
  Caller(const Caller&) = delete;
  Caller& operator=(const Caller&) = delete;

  common::Result<svc::ServiceReply> call(const svc::Request& request,
                                         CallTiming& timing) {
    if (!tracer_.enabled()) return client_.call(request);
    auto reply = framedCall(request, timing);
    if (!reply.isOk()) closeSocket();
    return reply;
  }

 private:
  using ReplyResult = common::Result<svc::ServiceReply>;

  void closeSocket() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    reader_ = net::FrameReader();
  }

  bool connectSocket() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      closeSocket();
      return false;
    }
    return true;
  }

  ReplyResult framedCall(const svc::Request& request, CallTiming& timing) {
    if (fd_ < 0 && !connectSocket()) {
      return ReplyResult::error("connect failed");
    }
    ScopedSpan root(tracer_, "client.request");
    const std::int64_t t0 = nowNs();
    net::Frame frame;
    frame.type = static_cast<std::uint16_t>(net::frameTypeFor(request));
    frame.request_id = next_id_++;
    frame.payload = net::requestToJson(request).dump();
    std::string bytes = net::encodeFrame(frame);
    const std::int64_t t1 = nowNs();

    for (std::size_t sent = 0; sent < bytes.size();) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return ReplyResult::error("send failed");
      sent += static_cast<std::size_t>(n);
    }
    net::Frame reply;
    for (;;) {
      const net::FrameReader::Next next = reader_.next(reply);
      if (next == net::FrameReader::Next::kError) {
        return ReplyResult::error("reply stream unsynchronized");
      }
      if (next == net::FrameReader::Next::kFrame) {
        if (reply.request_id == frame.request_id) break;
        continue;
      }
      char buf[64 * 1024];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return ReplyResult::error("connection closed");
      reader_.feed(buf, static_cast<std::size_t>(n));
    }
    const std::int64_t t2 = nowNs();
    if (reply.type != static_cast<std::uint16_t>(net::FrameType::kReply)) {
      return ReplyResult::error("protocol error frame: " + reply.payload);
    }
    auto parsed = common::Json::parse(reply.payload);
    if (!parsed.isOk()) return ReplyResult::error("bad reply payload");
    ReplyResult decoded = net::replyFromJson(parsed.value());
    const std::int64_t t3 = nowNs();

    tracer_.record("client.encode", t0, t1);
    tracer_.record("net.roundtrip", t1, t2);
    tracer_.record("client.decode", t2, t3);
    timing.encode_us = static_cast<double>(t1 - t0) / 1000.0;
    timing.decode_us = static_cast<double>(t3 - t2) / 1000.0;
    timing.request_frame = std::move(bytes);
    return decoded;
  }

  std::uint16_t port_;
  Tracer& tracer_;
  Client client_;
  int fd_ = -1;
  std::uint64_t next_id_ = 1;
  net::FrameReader reader_;
};

// ---------------------------------------------------------------------------
// Load accounting.
// ---------------------------------------------------------------------------

enum class Kind : std::uint8_t { kOpen, kCommand, kRunChunk, kClose, kBatch };

// One traced request, for the transport residual and the stage-2 replay.
struct Record {
  Kind kind = Kind::kCommand;
  int variant = 0;
  double latency_us = 0;
  double encode_us = 0;
  double decode_us = 0;
  double queue_us = 0;
  double run_us = 0;
  int capture = -1;  // index into Outcome::captures
};

struct Capture {
  std::string request_frame;
  svc::ServiceReply reply;
};

// What one load thread saw.  Window counters cover requests issued (closed
// loop) or due (open loop) inside the measured window.
struct Outcome {
  explicit Outcome(bool traced, std::uint64_t id_base)
      : tracer(traced, id_base) {}
  std::uint64_t issued = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  std::uint64_t window_ops = 0;
  std::uint64_t window_batch = 0;
  Samples latency_ms;        // sessions: every request; mixed: interactive
  Samples batch_latency_ms;
  Samples late_ms;           // mixed: generator wake-up lateness
  std::uint64_t backlog = 0; // mixed: due inside the window, sent after it
  Samples queue_us, run_us, pool_depth;
  std::uint64_t compiles = 0, cache_hits = 0;
  std::uint64_t commands = 0, restored = 0;
  std::uint64_t rejected = 0;
  double cpu_start = -1, cpu_end = -1;
  std::int64_t cpu_start_ns = 0, cpu_end_ns = 0;
  Tracer tracer;
  std::vector<Record> records;
  std::vector<Capture> captures;
};

struct Plan {
  const RunOptions* options = nullptr;
  std::uint16_t port = 0;
  int server_pid = -1;
  std::int64_t start_ns = 0;  // window start (after warm-up)
  std::int64_t end_ns = 0;
  std::vector<SessionPlan> sessions;
  std::vector<SessionReference> session_refs;
  std::vector<svc::RunEnsemble> batches;
  std::vector<BatchReference> batch_refs;
};

bool inWindow(const Plan& plan, std::int64_t t) {
  return t >= plan.start_ns && t < plan.end_ns;
}

void fail(Outcome& out, const std::string& why) {
  ++out.failed;
  if (out.first_error.empty()) out.first_error = why;
}

// Worker 0 samples the server's CPU clock at the window edges: before each
// request once the edge has passed, and finally when it stops issuing.
void sampleCpu(const Plan& plan, Outcome& out, bool is_sampler,
               bool last = false) {
  if (!is_sampler) return;
  if (last && out.cpu_end < 0) {
    // An open-loop user can run out of schedule just before the window ends.
    std::this_thread::sleep_until(
        Clock::time_point(std::chrono::nanoseconds(plan.end_ns)));
  }
  const std::int64_t now = nowNs();
  if (out.cpu_start < 0 && now >= plan.start_ns) {
    out.cpu_start = processCpuSeconds(plan.server_pid);
    out.cpu_start_ns = now;
  }
  if (out.cpu_end < 0 && now >= plan.end_ns) {
    out.cpu_end = processCpuSeconds(plan.server_pid);
    out.cpu_end_ns = now;
  }
}

// Issues one request and checks its reply against `expected`.  Returns the
// reply when it arrived and matched.
std::optional<svc::ServiceReply> issue(Caller& caller,
                                       const svc::Request& request,
                                       const std::string& expected, Kind kind,
                                       int variant, std::int64_t due_ns,
                                       bool counted, Outcome& out) {
  CallTiming timing;
  ++out.issued;
  const std::int64_t t0 = nowNs();
  auto result = caller.call(request, timing);
  const std::int64_t t1 = nowNs();
  if (!result.isOk()) {
    fail(out, result.message());
    return std::nullopt;
  }
  svc::ServiceReply reply = std::move(result).value();
  if (!reply.ok() || reply.rejected()) {
    fail(out, "reply not ok: " + reply.status.message());
    if (counted && reply.rejected()) ++out.rejected;
    return std::nullopt;
  }
  if (comparableReply(reply) != expected) {
    fail(out, "reply differs from the in-process reference");
    return std::nullopt;
  }
  if (!counted) return reply;

  const double latency_ms =
      static_cast<double>(t1 - (due_ns != 0 ? due_ns : t0)) / 1e6;
  ++out.window_ops;
  if (kind == Kind::kBatch) {
    ++out.window_batch;
    out.batch_latency_ms.add(latency_ms);
  } else {
    out.latency_ms.add(latency_ms);
  }
  out.queue_us.add(static_cast<double>(reply.stats.queue_us));
  out.run_us.add(static_cast<double>(reply.stats.run_us));
  out.pool_depth.add(static_cast<double>(reply.stats.pool_queue_depth));
  if (kind == Kind::kRunChunk || kind == Kind::kBatch) {
    ++out.compiles;
    if (reply.stats.program_cache_hit) ++out.cache_hits;
  }
  if (kind == Kind::kCommand || kind == Kind::kRunChunk ||
      kind == Kind::kClose) {
    ++out.commands;
    if (reply.stats.restored_from_disk) ++out.restored;
  }
  if (out.tracer.enabled()) {
    Record record;
    record.kind = kind;
    record.variant = variant;
    record.latency_us = static_cast<double>(t1 - t0) / 1000.0;
    record.encode_us = timing.encode_us;
    record.decode_us = timing.decode_us;
    record.queue_us = static_cast<double>(reply.stats.queue_us);
    record.run_us = static_cast<double>(reply.stats.run_us);
    if (out.captures.size() < kCaptureLimit) {
      record.capture = static_cast<int>(out.captures.size());
      out.captures.push_back(Capture{std::move(timing.request_frame), reply});
    }
    out.records.push_back(record);
  }
  return reply;
}

Kind stepKind(const SessionPlan& session, std::size_t step) {
  if (step == 0) return Kind::kOpen;
  if (step == session.steps() - 1) return Kind::kClose;
  return step == session.chunks.size() ? Kind::kRunChunk : Kind::kCommand;
}

// One whole session.  `due` (open loop only) is advanced by `think` per
// request; a null `due` runs the session back to back (closed loop).
void runSession(Caller& caller, const Plan& plan, int variant, Outcome& out,
                bool is_sampler, std::int64_t* due,
                const std::function<std::int64_t()>& think) {
  const SessionPlan& session = plan.sessions[static_cast<std::size_t>(variant)];
  const SessionReference& ref =
      plan.session_refs[static_cast<std::size_t>(variant)];
  std::uint64_t id = 0;
  std::uint64_t checker_hits = 0;
  bool whole = true;
  for (std::size_t step = 0; step < session.steps(); ++step) {
    sampleCpu(plan, out, is_sampler);
    std::int64_t due_ns = 0;
    bool counted = false;
    if (due != nullptr) {
      due_ns = *due;
      const bool scheduled = due_ns < plan.end_ns;
      if (scheduled) {
        const std::int64_t now = nowNs();
        if (now < due_ns) {
          std::this_thread::sleep_until(Clock::time_point(
              std::chrono::nanoseconds(due_ns)));
          if (inWindow(plan, due_ns)) {
            out.late_ms.add(static_cast<double>(nowNs() - due_ns) / 1e6);
          }
        } else if (inWindow(plan, due_ns) && now >= plan.end_ns) {
          ++out.backlog;
        }
        *due += think();
      }
      counted = inWindow(plan, due_ns);
      if (!scheduled) due_ns = 0;  // draining: finish the session at once
    }
    const Kind kind = stepKind(session, step);
    const std::int64_t issued_at = nowNs();
    auto reply = issue(caller, session.request(step, id),
                       ref.replies[step], kind, variant, due_ns,
                       due != nullptr ? counted : inWindow(plan, issued_at),
                       out);
    if (!reply) {
      whole = false;
      if (step == 0) return;  // no session to continue
      continue;
    }
    if (step == 0) id = reply->stats.session;
    checker_hits += reply->stats.checker_session_hits;
  }
  if (whole && plan.options->workload == "sessions" &&
      checker_hits != ref.checker_hits) {
    fail(out, "checker hits differ from the in-process reference");
  }
}

void sessionsUser(const Plan& plan, int user, Outcome& out) {
  Tracer& tracer = out.tracer;
  Caller caller(plan.port, tracer);
  common::Rng rng(plan.options->seed * 7919 + static_cast<std::uint64_t>(user));
  while (nowNs() < plan.end_ns) {
    const int variant = static_cast<int>(rng.below(kSessionVariants));
    tracer.setRequest(out.issued + 1);
    runSession(caller, plan, variant, out, user == 0, nullptr, {});
  }
  sampleCpu(plan, out, user == 0, true);
}

void interactiveUser(const Plan& plan, int user, std::int64_t first_due,
                     Outcome& out) {
  Caller caller(plan.port, out.tracer);
  common::Rng rng(plan.options->seed * 104729 +
                  static_cast<std::uint64_t>(user));
  std::int64_t due = first_due;
  const auto think = [&rng] {
    return static_cast<std::int64_t>(kThinkMs * 1e6 * rng.uniform(0.8, 1.2));
  };
  while (due < plan.end_ns) {
    const int variant = static_cast<int>(rng.below(kSessionVariants));
    out.tracer.setRequest(out.issued + 1);
    runSession(caller, plan, variant, out, user == 0, &due, think);
  }
  sampleCpu(plan, out, user == 0, true);
}

void batchUser(const Plan& plan, int user, Outcome& out) {
  Caller caller(plan.port, out.tracer);
  for (std::size_t i = 0; nowNs() < plan.end_ns; ++i) {
    const int variant =
        static_cast<int>((static_cast<std::size_t>(user) + 2 * (i % 64)) %
                         kBatchVariants);
    const std::size_t v = static_cast<std::size_t>(variant);
    out.tracer.setRequest(out.issued + 1);
    const std::int64_t t0 = nowNs();
    issue(caller, plan.batches[v], plan.batch_refs[v].reply, Kind::kBatch,
          variant, 0, inWindow(plan, t0), out);
  }
}

// ---------------------------------------------------------------------------
// Stage 2 of a traced run: the request stream replayed in-process through
// each layer's public calls.
// ---------------------------------------------------------------------------

struct LayerReplay {
  Samples server_codec_us;  // per captured request
  std::map<const Capture*, double> codec_of;
  exec::ThreadPool::PoolStats pool;
  std::uint64_t engine_calls = 0;
  double engine_ns = 0;
  double engine_cycles = 0;
  Samples checkpoint_bytes;
};

void replayServerCodec(const std::vector<const Capture*>& captures,
                       Tracer& tracer, LayerReplay& out) {
  for (const Capture* capture : captures) {
    const std::int64_t t0 = nowNs();
    net::FrameReader reader;
    reader.feed(capture->request_frame.data(), capture->request_frame.size());
    net::Frame frame;
    if (reader.next(frame) != net::FrameReader::Next::kFrame) continue;
    auto json = common::Json::parse(frame.payload);
    if (!json.isOk()) continue;
    auto request = net::requestFromJson(frame.type, json.value());
    net::Frame reply;
    reply.type = static_cast<std::uint16_t>(net::FrameType::kReply);
    reply.request_id = frame.request_id;
    reply.payload = net::replyToJson(capture->reply).dump();
    const std::string bytes = net::encodeFrame(reply);
    const std::int64_t t1 = nowNs();
    tracer.record("net.server_codec", t0, t1);
    out.codec_of[capture] = static_cast<double>(t1 - t0) / 1000.0;
    out.server_codec_us.add(static_cast<double>(t1 - t0) / 1000.0);
  }
}

// Compile front half shared by run chunks and batch requests: generate,
// resolve through the cache (a hit or miss as the stream makes it), verify,
// and time a miss on a cold cache too.
std::shared_ptr<const sim::CompiledProgram> replayCompile(
    WorkbenchCore& core, sim::CompiledProgramCache& cache, Tracer& tracer) {
  const arch::Machine& machine = core.context().machine();
  mc::GenerateResult generated;
  {
    ScopedSpan span(tracer, "microcode.generate");
    generated = mc::Generator(machine).generate(core.editor().program());
  }
  if (!generated.ok) return nullptr;
  {
    sim::CompiledProgramCache cold;
    ScopedSpan span(tracer, "sim.compile_miss");
    cold.get(machine, generated.exe);
  }
  bool hit = false;
  const std::int64_t t0 = nowNs();
  auto program = cache.get(machine, generated.exe, &hit);
  tracer.record(hit ? "sim.cache_hit" : "sim.cache_miss", t0, nowNs());
  if (!hit) {
    const std::int64_t t1 = nowNs();
    cache.get(machine, generated.exe, &hit);
    tracer.record("sim.cache_hit", t1, nowNs());
  }
  {
    ScopedSpan span(tracer, "sim.verify");
    sim::ProgramVerifier(machine).verify(*program);
  }
  return program;
}

void replaySessions(const Plan& plan, const std::vector<int>& variants,
                    bool spill, Tracer& tracer, LayerReplay& out,
                    std::int64_t deadline_ns) {
  exec::ThreadPool pool;
  sim::CompiledProgramCache cache;
  WorkbenchContext context({}, &pool, &cache);
  svc::CheckpointStore store(plan.options->work_dir + "/replay-ckpt");
  std::uint64_t id = 0;
  for (const int variant : variants) {
    if (nowNs() > deadline_ns) break;
    const SessionPlan& session =
        plan.sessions[static_cast<std::size_t>(variant)];
    auto core = std::make_unique<WorkbenchCore>(context);
    ++id;
    for (std::size_t c = 0; c < session.chunks.size(); ++c) {
      tracer.setRequest(id * 100 + c);
      ScopedSpan request(tracer, "replay.command");
      if (spill && c > 0) {
        common::Json state;
        {
          ScopedSpan span(tracer, "checkpoint.serialize");
          state = core->serializeState();
        }
        out.checkpoint_bytes.add(static_cast<double>(state.dump().size()));
        {
          ScopedSpan span(tracer, "checkpoint.write");
          store.write(id, state);
        }
        svc::CheckpointStore::ReadResult read;
        {
          ScopedSpan span(tracer, "checkpoint.read");
          read = store.read(id);
        }
        {
          ScopedSpan span(tracer, "checkpoint.restore");
          core = std::make_unique<WorkbenchCore>(context);
          core->restoreState(read.payload);
        }
      }
      {
        ScopedSpan span(tracer, "editor.replay");
        core->runSession(session.chunks[c]);
      }
      if (c + 1 != session.chunks.size()) continue;
      for (const svc::PlaneImage& input : session.inputs) {
        core->node().writePlane(input.plane, input.base, input.values);
      }
      auto program = replayCompile(*core, cache, tracer);
      if (program == nullptr) continue;
      const std::int64_t t0 = nowNs();
      sim::RunStats run;
      {
        ScopedSpan span(tracer, "sim.node_run");
        core->node().load(program);
        run = core->node().run();
      }
      ++out.engine_calls;
      out.engine_ns += static_cast<double>(nowNs() - t0);
      out.engine_cycles += static_cast<double>(run.total_cycles);
    }
    store.remove(id);
  }
  out.pool = pool.stats();
}

void replayBatches(const Plan& plan, const std::vector<int>& variants,
                   Tracer& tracer, LayerReplay& out, std::int64_t deadline_ns) {
  exec::ThreadPool pool;
  sim::CompiledProgramCache cache;
  WorkbenchContext context({}, &pool, &cache);
  WorkbenchCore core(context);
  std::uint64_t id = 0;
  for (const int variant : variants) {
    if (nowNs() > deadline_ns) break;
    tracer.setRequest(1000000 + ++id);
    ScopedSpan request(tracer, "replay.batch");
    core.reset();
    {
      ScopedSpan span(tracer, "editor.replay");
      core.runSession(plan.batches[static_cast<std::size_t>(variant)].script);
    }
    auto program = replayCompile(core, cache, tracer);
    if (program == nullptr) continue;
    const std::int64_t t0 = nowNs();
    WorkbenchCore::ReplicaRunOutcome runs;
    {
      ScopedSpan span(tracer, "sim.ensemble_run");
      runs = core.runReplicas(program, kReplicas, EnsembleOptions{});
    }
    ++out.engine_calls;
    out.engine_ns += static_cast<double>(nowNs() - t0);
    for (const sim::RunStats& run : runs.runs) {
      out.engine_cycles += static_cast<double>(run.total_cycles);
    }
  }
  out.pool = pool.stats();
}

double share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

// The traced run's stages 2 and 3: replays the captured stream in-process,
// prints every layer's figures and self times, writes the spans, and
// returns the per-layer metrics (service shares are filled by the caller).
LayerMetrics traceLayers(const Plan& plan,
                         std::vector<std::unique_ptr<Outcome>>& outcomes,
                         const Outcome& total, Report& report) {
  const RunOptions& options = *plan.options;
  const bool mixed = options.workload == "mixed";
  Tracer replay(true, 1ull << 50);
  LayerReplay layers;
  std::vector<const Capture*> captures;
  std::vector<int> session_variants, batch_variants;
  for (const auto& o : outcomes) {
    for (const Capture& c : o->captures) captures.push_back(&c);
    for (const Record& r : o->records) {
      if (r.kind == Kind::kRunChunk &&
          session_variants.size() < kReplaySessions) {
        session_variants.push_back(r.variant);
      }
      if (r.kind == Kind::kBatch && batch_variants.size() < kReplayBatches) {
        batch_variants.push_back(r.variant);
      }
    }
  }
  const std::int64_t budget =
      nowNs() +
      static_cast<std::int64_t>(std::min(options.seconds, 10.0) * 1e9);
  replayServerCodec(captures, replay, layers);
  LayerReplay engine;
  if (mixed) {
    replaySessions(plan, session_variants, true, replay, layers, budget);
    replayBatches(plan, batch_variants, replay, engine, budget);
  } else {
    replaySessions(plan, session_variants, false, replay, engine, budget);
  }
  const exec::ThreadPool::PoolStats& pool = engine.pool;
  const double ns_per_cycle = engine.engine_cycles > 0
                                  ? engine.engine_ns / engine.engine_cycles
                                  : 0.0;

  // Transport residual: client latency minus both codecs, queue and run.
  Samples transport_us, encode_us, decode_us, queue_us, run_us;
  for (const auto& o : outcomes) {
    for (const Record& r : o->records) {
      encode_us.add(r.encode_us);
      decode_us.add(r.decode_us);
      queue_us.add(r.queue_us);
      run_us.add(r.run_us);
      if (r.capture < 0) continue;
      const Capture* c = &o->captures[static_cast<std::size_t>(r.capture)];
      const auto it = layers.codec_of.find(c);
      if (it == layers.codec_of.end()) continue;
      transport_us.add(r.latency_us - r.encode_us - r.decode_us - it->second -
                       r.queue_us - r.run_us);
    }
  }

  Tracer all(true, 0);
  for (auto& o : outcomes) all.merge(std::move(o->tracer));
  all.merge(std::move(replay));
  const auto durations = all.durationsUs();
  auto p50 = [&durations](const char* name) {
    const auto it = durations.find(name);
    return it == durations.end() ? 0.0 : it->second.median();
  };
  const SessionReference& sref = plan.session_refs[0];
  const BatchReference* bref = mixed ? &plan.batch_refs[0] : nullptr;
  report.line("per-layer (p50 us unless noted), traced replay:");
  report.line("  client.encode_us=%.2f client.decode_us=%.2f "
              "net.server_codec_us=%.2f net.transport_us=%.2f",
              encode_us.median(), decode_us.median(),
              layers.server_codec_us.median(), transport_us.median());
  report.line("  service.queue_us p50=%.0f p99=%.0f service.run_us p50=%.0f "
              "p99=%.0f service.pool_queue_depth p50=%.0f",
              queue_us.percentile(0.5), queue_us.percentile(0.99),
              run_us.percentile(0.5), run_us.percentile(0.99),
              total.pool_depth.percentile(0.5));
  report.line("  editor.replay_us=%.2f microcode.generate_us=%.2f "
              "sim.cache_hit_us=%.2f sim.compile_miss_us=%.2f "
              "sim.verify_us=%.2f",
              p50("editor.replay"), p50("microcode.generate"),
              p50("sim.cache_hit"), p50("sim.compile_miss"),
              p50("sim.verify"));
  report.line("  sim.node_run_us=%.2f sim.host_ns_per_cycle=%.3f",
              p50("sim.node_run"), ns_per_cycle);
  if (mixed) {
    report.line("  sim.ensemble_run_us=%.2f sim.replicas_batched_share=%.4f",
                p50("sim.ensemble_run"),
                static_cast<double>(bref->replicas_batched) / kReplicas);
    report.line("  checkpoint.serialize_us=%.2f checkpoint.write_us=%.2f "
                "checkpoint.read_us=%.2f checkpoint.restore_us=%.2f "
                "checkpoint.bytes=%.0f",
                p50("checkpoint.serialize"), p50("checkpoint.write"),
                p50("checkpoint.read"), p50("checkpoint.restore"),
                layers.checkpoint_bytes.median());
    report.line("  loadgen.late_p99_ms=%.4f", total.late_ms.percentile(0.99));
  }
  report.line("  exec.tasks_submitted=%llu exec.tasks_inline=%llu "
              "exec.peak_queue_depth=%zu (in-process replay pool)",
              static_cast<unsigned long long>(pool.tasks_submitted),
              static_cast<unsigned long long>(pool.tasks_inline),
              pool.peak_queue_depth);
  report.line("self time per span, p50 us (count):");
  for (const auto& [name, samples] : all.selfTimesUs()) {
    report.line("  %-22s %10.2f  (%zu)", name.c_str(), samples.median(),
                samples.size());
  }
  // The part of the server's median run_us the in-process stages do not
  // account for, per request kind.
  auto unaccounted = [&](Kind kind, double stages_us, const char* label) {
    Samples run;
    for (const auto& o : outcomes) {
      for (const Record& r : o->records) {
        if (r.kind == kind) run.add(r.run_us);
      }
    }
    if (run.empty()) return;
    report.line("run_us not accounted for by in-process stages (%s): "
                "median run_us %.1f - stages %.1f = %.1f us",
                label, run.median(), stages_us, run.median() - stages_us);
  };
  const double compile_us =
      p50("microcode.generate") +
      (mixed ? p50("sim.cache_miss") : p50("sim.cache_hit")) +
      p50("sim.verify");
  unaccounted(Kind::kCommand, p50("editor.replay"), "session command");
  if (mixed) {
    unaccounted(Kind::kBatch,
                p50("editor.replay") + compile_us + p50("sim.ensemble_run"),
                "batch");
  } else {
    unaccounted(Kind::kRunChunk,
                p50("editor.replay") + compile_us + p50("sim.node_run"),
                "run chunk");
  }
  const std::string trace_path = options.state_dir + "/trace-" +
                                 options.workload + "-" +
                                 std::to_string(options.seed) + ".json";
  report.line("spans written to %s: %s", trace_path.c_str(),
              all.write(trace_path) ? "ok" : "FAILED");

  const double calls = engine.engine_calls == 0
                           ? 1.0
                           : static_cast<double>(engine.engine_calls);
  LayerMetrics out;
  out.generate_us = p50("microcode.generate");
  out.compile_miss_us = p50("sim.compile_miss");
  out.cache_hit_us = p50("sim.cache_hit");
  out.verify_us = p50("sim.verify");
  out.engine_us = mixed ? p50("sim.ensemble_run") : p50("sim.node_run");
  out.host_ns_per_cycle = ns_per_cycle;
  out.cycles = static_cast<double>(bref ? bref->cycles : sref.cycles);
  out.flops = static_cast<double>(bref ? bref->flops : sref.flops);
  out.replicas_batched = bref ? static_cast<double>(bref->replicas_batched)
                              : 0.0;
  out.checker_session_hits = static_cast<double>(sref.checker_hits);
  out.request_bytes =
      static_cast<double>(bref ? bref->request_bytes : sref.request_bytes);
  out.reply_bytes =
      static_cast<double>(bref ? bref->reply_bytes : sref.reply_bytes);
  out.tasks_submitted = static_cast<double>(pool.tasks_submitted) / calls;
  out.tasks_inline = static_cast<double>(pool.tasks_inline) / calls;
  out.peak_queue_depth = static_cast<double>(pool.peak_queue_depth);
  return out;
}

}  // namespace

int runServed(const RunOptions& options, Report& report) {
  const bool mixed = options.workload == "mixed";
  Plan plan;
  plan.options = &options;

  // ---- Inputs and references (before any timing). ----
  for (int v = 0; v < kSessionVariants; ++v) {
    plan.sessions.push_back(sessionPlan(options.seed, v, kChunks));
  }
  plan.session_refs = sessionReferences(plan.sessions);
  if (mixed) {
    for (int v = 0; v < kBatchVariants; ++v) {
      plan.batches.push_back(batchRequest(options.seed, v, kReplicas));
    }
    plan.batch_refs = batchReferences(plan.batches);
  }
  report.line("inputs: %d session variants%s, digest %016llx", kSessionVariants,
              mixed ? " + 128 batch programs" : "",
              static_cast<unsigned long long>(
                  inputsDigest(plan.sessions, plan.batches)));
  if (options.corrupt_reference) {
    for (SessionReference& ref : plan.session_refs) ref.replies[kChunks] += " ";
  }

  std::vector<std::string> server_args;
  if (mixed) {
    const std::string ckpt = options.work_dir + "/checkpoints";
    std::filesystem::create_directories(ckpt);
    server_args = {"--checkpoint-dir", ckpt, "--session-ttl-us",
                   std::to_string(kSessionTtlUs)};
  }

  // ---- Set-up: launch -> listening -> first verified session (which
  // includes the first compile), kSetups times on fresh servers. ----
  Samples setup_s;
  std::uint64_t attempted = 0, failed = 0;
  std::string first_error;
  ServerProcess server;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) server.stop();
    const std::int64_t t0 = nowNs();
    std::string error;
    if (!server.start(options.serve_path, server_args, options.work_dir, i,
                      error)) {
      report.line("perfbench: %s", error.c_str());
      return 1;
    }
    plan.port = server.port();
    Outcome probe(false, 1);
    {
      Caller caller(plan.port, probe.tracer);
      runSession(caller, plan, 0, probe, false, nullptr, {});
    }
    attempted += probe.issued;
    failed += probe.failed;
    if (first_error.empty()) first_error = probe.first_error;
    setup_s.add(static_cast<double>(nowNs() - t0) / 1e9);
  }
  plan.server_pid = server.pid();

  // ---- The measured load. ----
  const std::int64_t launch = nowNs();
  plan.start_ns = launch + static_cast<std::int64_t>(kWarmupS * 1e9);
  plan.end_ns =
      plan.start_ns + static_cast<std::int64_t>(options.seconds * 1e9);
  const int users = 4;
  std::vector<std::unique_ptr<Outcome>> outcomes;
  for (int u = 0; u < users; ++u) {
    outcomes.push_back(std::make_unique<Outcome>(
        options.trace, static_cast<std::uint64_t>(u + 1) << 40));
  }
  auto work = [&](int u) {
    Outcome& out = *outcomes[static_cast<std::size_t>(u)];
    if (!mixed) {
      sessionsUser(plan, u, out);
    } else if (u < 2) {
      interactiveUser(plan, u,
                      launch + static_cast<std::int64_t>(u * kThinkMs * 5e5),
                      out);
    } else {
      batchUser(plan, u - 2, out);
    }
  };
  {
    // The calling thread is user 0, so the load process runs exactly
    // `users` threads.
    std::vector<std::thread> threads;
    for (int u = 1; u < users; ++u) threads.emplace_back(work, u);
    work(0);
    for (std::thread& t : threads) t.join();
  }
  const double peak_rss_mb = processPeakRssMb(plan.server_pid);
  server.stop();

  // ---- Fold the users. ----
  Outcome total(false, 0);
  for (const auto& o : outcomes) {
    total.issued += o->issued;
    total.failed += o->failed;
    if (first_error.empty()) first_error = o->first_error;
    total.window_ops += o->window_ops;
    total.window_batch += o->window_batch;
    total.latency_ms.append(o->latency_ms);
    total.batch_latency_ms.append(o->batch_latency_ms);
    total.late_ms.append(o->late_ms);
    total.backlog += o->backlog;
    total.queue_us.append(o->queue_us);
    total.run_us.append(o->run_us);
    total.pool_depth.append(o->pool_depth);
    total.compiles += o->compiles;
    total.cache_hits += o->cache_hits;
    total.commands += o->commands;
    total.restored += o->restored;
    total.rejected += o->rejected;
  }
  attempted += total.issued;
  failed += total.failed;
  const Outcome& sampler = *outcomes[0];
  const double window_s =
      static_cast<double>(plan.end_ns - plan.start_ns) / 1e9;
  const double cpu_window_s =
      static_cast<double>(sampler.cpu_end_ns - sampler.cpu_start_ns) / 1e9;
  const double cpu_ms_per_op =
      total.window_ops == 0 || cpu_window_s <= 0 || sampler.cpu_start < 0
          ? -1.0
          : 1000.0 * (sampler.cpu_end - sampler.cpu_start) *
                (window_s / cpu_window_s) /
                static_cast<double>(total.window_ops);

  // ---- Report. ----
  const std::size_t n = total.latency_ms.size();
  report.line("%s: %.1f s window after %.1f s warm-up, %s",
              options.workload.c_str(), window_s, kWarmupS,
              mixed ? "2 interactive users (open loop, think 8-12 ms) + "
                      "2 batch connections (closed loop, 64 replicas)"
                    : "4 connections (closed loop)");
  report.line("latency ms (%s, %zu samples, %zu beyond p99): p50=%.3f "
              "p90=%.3f p99=%.3f max=%.3f",
              mixed ? "interactive, from due time" : "every request", n,
              n - static_cast<std::size_t>(
                      std::ceil(0.99 * static_cast<double>(n))),
              total.latency_ms.percentile(0.5),
              total.latency_ms.percentile(0.9),
              total.latency_ms.percentile(0.99),
              total.latency_ms.percentile(1.0));
  report.line("setup s (median of %d): %.4f  [min %.4f max %.4f]", kSetups,
              setup_s.median(), setup_s.percentile(0.0),
              setup_s.percentile(1.0));
  report.line("service: queue_us p50=%.0f p99=%.0f  run_us p50=%.0f p99=%.0f"
              "  pool_queue_depth p50=%.0f max=%.0f",
              total.queue_us.percentile(0.5), total.queue_us.percentile(0.99),
              total.run_us.percentile(0.5), total.run_us.percentile(0.99),
              total.pool_depth.percentile(0.5),
              total.pool_depth.percentile(1.0));
  const double cache_hit_share = share(total.cache_hits, total.compiles);
  const double restored_share = share(total.restored, total.commands);
  const double reject_share =
      share(total.rejected, total.window_ops + total.rejected);
  report.line("service: cache_hit_share=%.4f (%llu compiles)  "
              "restored_share=%.4f (%llu session commands)  "
              "reject_share=%.4f",
              cache_hit_share, static_cast<unsigned long long>(total.compiles),
              restored_share, static_cast<unsigned long long>(total.commands),
              reject_share);
  bool valid = true;
  if (mixed) {
    const double late_p99 = total.late_ms.percentile(0.99);
    report.line("batch: %llu requests, batch_replicas_per_s=%.1f, latency ms "
                "p50=%.3f p99=%.3f",
                static_cast<unsigned long long>(total.window_batch),
                static_cast<double>(total.window_batch * kReplicas) / window_s,
                total.batch_latency_ms.percentile(0.5),
                total.batch_latency_ms.percentile(0.99));
    report.line("loadgen: late_p99_ms=%.4f (limit %.1f), backlog at end=%llu "
                "requests",
                late_p99, kMaxLateP99Ms,
                static_cast<unsigned long long>(total.backlog));
    if (late_p99 > kMaxLateP99Ms) {
      valid = false;
      report.line("INVALID: the load generator itself fell behind its "
                  "schedule");
    }
    if (total.restored == 0) {
      valid = false;
      report.line("INVALID: no command restored a spilled session, so the "
                  "checkpoint path did not run");
    }
  }
  if (n < 1000) {
    valid = false;
    report.line("INVALID: %zu latency samples leave fewer than ten beyond "
                "p99", n);
  }
  report.line("error_rate=%.6f (%llu failed of %llu attempted)%s%s",
              share(failed, attempted), static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              first_error.empty() ? "" : "; first error: ",
              first_error.c_str());

  const SessionReference& sref = plan.session_refs[0];
  std::map<std::string, std::uint64_t> counts = {
      {"session.cycles", sref.cycles},
      {"session.flops", sref.flops},
      {"session.checker_hits", sref.checker_hits},
      {"session.request_bytes", sref.request_bytes},
      {"session.reply_bytes", sref.reply_bytes},
  };
  if (mixed) {
    const BatchReference& bref = plan.batch_refs[0];
    counts["batch.cycles"] = bref.cycles;
    counts["batch.flops"] = bref.flops;
    counts["batch.replicas_batched"] = bref.replicas_batched;
    counts["batch.request_bytes"] = bref.request_bytes;
    counts["batch.reply_bytes"] = bref.reply_bytes;
  }
  const bool witnesses_ok = report.witnesses(counts, witnessPath(options));

  const bool correct = failed == 0 && witnesses_ok;
  EndToEnd e2e;
  e2e.setup_s = setup_s.median();
  e2e.throughput_rps = static_cast<double>(total.window_ops) / window_s;
  e2e.latency_p50_ms = total.latency_ms.percentile(0.5);
  e2e.latency_tail_ms = total.latency_ms.percentile(0.99);
  e2e.cpu_ms_per_op = cpu_ms_per_op;
  e2e.peak_rss_mb = peak_rss_mb;
  reportEndToEnd(options, e2e, report);
  if (options.trace) {
    LayerMetrics layers = traceLayers(plan, outcomes, total, report);
    layers.cache_hit_share = cache_hit_share;
    layers.restored_share = restored_share;
    layers.reject_share = reject_share;
    reportLayers(layers, report);
  }
  report.finish(correct && valid, attempted, failed);
  return correct && valid ? 0 : 1;
}

}  // namespace perfbench
