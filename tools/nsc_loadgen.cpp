// nsc_loadgen — drives a running nsc_serve with N connections × M stateful
// sessions, each replaying the paper's Figure-11 Jacobi script split into
// framed SessionCommand batches (the last one deposits inputs, runs to
// halt, and reads the swept plane back).  Reports throughput and latency
// percentiles; with --verify, every session's final reply must be
// bit-identical (under net::deterministicReplyJson, further stripping the
// per-server session id and cache-hit flag) to the same script driven
// through an in-process WorkbenchService — the end-to-end transport-
// fidelity gate the CI serve-smoke lane exits nonzero on.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "common/env.h"
#include "net/wire.h"
#include "nsc/scripts.h"
#include "service/service.h"

namespace {

using namespace nsc;

struct Flags {
  std::string host = "127.0.0.1";
  int port = 7411;
  int connections = 4;
  int sessions = 2;  // per connection
  int chunks = 8;    // SessionCommand batches per session
  long long timeout_ms = 60000;
  bool verify = false;
  bool help = false;
  bool bad = false;
};

void usage() {
  std::printf(
      "nsc_loadgen — Figure-11 session load for nsc_serve\n"
      "\n"
      "  --host ADDR        server address               [127.0.0.1]\n"
      "  --port N           server port                  [7411]\n"
      "  --connections N    concurrent client connections [4]\n"
      "  --sessions M       sessions per connection       [2]\n"
      "  --chunks K         command batches per session   [8]\n"
      "  --timeout-ms N     per-call socket timeout       [60000]\n"
      "  --verify           gate: final replies must be bit-identical to an\n"
      "                     in-process WorkbenchService (exit 1 on mismatch)\n");
}

Flags parseFlags(int argc, char** argv) {
  Flags flags;
  auto intArg = [&](int& i, long long lo, long long hi, long long& out) {
    if (i + 1 >= argc) return false;
    const auto parsed = common::parseInt(argv[++i]);
    if (!parsed || *parsed < lo || *parsed > hi) return false;
    out = *parsed;
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    long long v = 0;
    if (arg == "--help" || arg == "-h") {
      flags.help = true;
    } else if (arg == "--host" && i + 1 < argc) {
      flags.host = argv[++i];
    } else if (arg == "--port" && intArg(i, 1, 65535, v)) {
      flags.port = static_cast<int>(v);
    } else if (arg == "--connections" && intArg(i, 1, 1024, v)) {
      flags.connections = static_cast<int>(v);
    } else if (arg == "--sessions" && intArg(i, 1, 1 << 16, v)) {
      flags.sessions = static_cast<int>(v);
    } else if (arg == "--chunks" && intArg(i, 1, 256, v)) {
      flags.chunks = static_cast<int>(v);
    } else if (arg == "--timeout-ms" && intArg(i, 1, 1LL << 40, v)) {
      flags.timeout_ms = v;
    } else if (arg == "--verify") {
      flags.verify = true;
    } else {
      std::fprintf(stderr, "nsc_loadgen: bad or incomplete flag: %s\n",
                   arg.c_str());
      flags.bad = true;
      break;
    }
  }
  return flags;
}

// The Figure-11 problem data (mirrors the tier-1 service tests).
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

std::vector<svc::PlaneRange> figure11Outputs() {
  return {svc::PlaneRange{4, 161, 366}, svc::PlaneRange{9, 0, 1}};
}

svc::SessionCommand chunkCommand(std::uint64_t session,
                                 const std::vector<std::string>& chunks,
                                 int c) {
  svc::SessionCommand command;
  command.session = session;
  command.script = chunks[static_cast<std::size_t>(c)];
  if (c == static_cast<int>(chunks.size()) - 1) {
    command.run = true;
    command.inputs = figure11Inputs();
    command.outputs = figure11Outputs();
  }
  return command;
}

// Replies compared across transports: deterministicReplyJson minus the
// fields a shared multi-session server legitimately changes (its own
// session ids; cache hits once the first session has compiled the image).
std::string comparableReply(const svc::ServiceReply& reply) {
  common::Json json = net::deterministicReplyJson(reply);
  common::JsonObject& stats = json["stats"].asObject();
  stats.erase("session");
  stats.erase("program_cache_hit");
  stats.erase("checker_session_hits");
  return json.dump();
}

// The same session driven through an in-process service — the reference
// the wire replies must be bit-identical to.
std::string inProcessReference(const std::vector<std::string>& chunks) {
  svc::ServiceOptions options;
  options.shards = 1;
  svc::WorkbenchService service(options);
  const svc::ServiceReply opened = service.submit(svc::OpenSession{}).get();
  svc::ServiceReply last;
  for (int c = 0; c < static_cast<int>(chunks.size()); ++c) {
    last = service
               .submit(chunkCommand(opened.stats.session, chunks, c))
               .get();
  }
  return comparableReply(last);
}

struct WorkerResult {
  std::vector<std::int64_t> latencies_us;
  int sessions_ok = 0;
  int sessions_failed = 0;
  int mismatches = 0;
  std::string first_error;
};

void runWorker(const Flags& flags, const std::vector<std::string>& chunks,
               const std::string& reference, WorkerResult& result) {
  ClientOptions options;
  options.host = flags.host;
  options.port = static_cast<std::uint16_t>(flags.port);
  options.timeout_ms = flags.timeout_ms;
  Client client(options);

  auto timedCall = [&](svc::Request request)
      -> common::Result<svc::ServiceReply> {
    const auto t0 = std::chrono::steady_clock::now();
    auto reply = client.call(std::move(request));
    const auto t1 = std::chrono::steady_clock::now();
    result.latencies_us.push_back(
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
            .count());
    return reply;
  };

  for (int s = 0; s < flags.sessions; ++s) {
    bool ok = true;
    auto opened = timedCall(svc::OpenSession{});
    if (!opened.isOk() || !opened.value().ok()) {
      ok = false;
      if (result.first_error.empty()) {
        result.first_error = opened.isOk() ? "OpenSession reply not ok"
                                           : opened.message();
      }
    }
    svc::ServiceReply last;
    if (ok) {
      const std::uint64_t session = opened.value().stats.session;
      for (int c = 0; c < static_cast<int>(chunks.size()); ++c) {
        auto reply = timedCall(chunkCommand(session, chunks, c));
        if (!reply.isOk()) {
          ok = false;
          if (result.first_error.empty()) {
            result.first_error = reply.message();
          }
          break;
        }
        last = std::move(reply).value();
      }
      auto closed = timedCall(svc::CloseSession{session});
      if (!closed.isOk() && result.first_error.empty()) {
        result.first_error = closed.message();
      }
    }
    if (ok && flags.verify && comparableReply(last) != reference) {
      ++result.mismatches;
      ok = false;
      if (result.first_error.empty()) {
        result.first_error = "wire reply differs from in-process reference";
      }
    }
    ++(ok ? result.sessions_ok : result.sessions_failed);
  }
}

std::int64_t percentile(std::vector<std::int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = parseFlags(argc, argv);
  if (flags.help || flags.bad) {
    usage();
    return flags.bad ? 2 : 0;
  }

  const std::vector<std::string> chunks = figure11SessionChunks(flags.chunks);
  std::string reference;
  if (flags.verify) reference = inProcessReference(chunks);

  std::vector<WorkerResult> results(
      static_cast<std::size_t>(flags.connections));
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> workers;
    workers.reserve(results.size());
    for (auto& result : results) {
      workers.emplace_back(runWorker, std::cref(flags), std::cref(chunks),
                           std::cref(reference), std::ref(result));
    }
    for (auto& worker : workers) worker.join();
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::vector<std::int64_t> latencies;
  int sessions_ok = 0, sessions_failed = 0, mismatches = 0;
  std::string first_error;
  for (WorkerResult& result : results) {
    latencies.insert(latencies.end(), result.latencies_us.begin(),
                     result.latencies_us.end());
    sessions_ok += result.sessions_ok;
    sessions_failed += result.sessions_failed;
    mismatches += result.mismatches;
    if (first_error.empty()) first_error = result.first_error;
  }
  std::sort(latencies.begin(), latencies.end());

  const std::size_t requests = latencies.size();
  std::printf(
      "nsc_loadgen: %d connections x %d sessions (%d chunks): "
      "%d ok, %d failed, %zu requests in %.2fs (%.1f req/s)\n",
      flags.connections, flags.sessions, flags.chunks, sessions_ok,
      sessions_failed, requests, wall_s,
      wall_s > 0 ? static_cast<double>(requests) / wall_s : 0.0);
  std::printf(
      "latency us: p50=%lld p90=%lld p99=%lld max=%lld\n",
      static_cast<long long>(percentile(latencies, 0.50)),
      static_cast<long long>(percentile(latencies, 0.90)),
      static_cast<long long>(percentile(latencies, 0.99)),
      static_cast<long long>(latencies.empty() ? 0 : latencies.back()));
  if (flags.verify) {
    std::printf("verify: %s (%d mismatches)\n",
                mismatches == 0 && sessions_failed == 0 ? "bit-identical"
                                                        : "FAILED",
                mismatches);
  }
  if (!first_error.empty()) {
    std::printf("first error: %s\n", first_error.c_str());
  }
  return (sessions_failed == 0 && mismatches == 0) ? 0 : 1;
}
