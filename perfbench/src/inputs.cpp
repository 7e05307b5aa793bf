#include "inputs.h"

#include <cstdio>

#include "common/rng.h"
#include "net/frame.h"
#include "net/wire.h"
#include "nsc/scripts.h"
#include "report.h"

namespace perfbench {

using namespace nsc;

namespace {

constexpr std::size_t kPlaneWords = 640;  // covers the 8^3 Figure-11 layout

// Mixes the run seed with a stream tag and a variant index into one RNG
// seed, so distinct input families never share a sequence.
common::Rng rngFor(std::uint64_t seed, std::uint64_t stream, int variant) {
  common::Rng mix(seed ^ (stream * 0x9e3779b97f4a7c15ull));
  for (int i = 0; i <= variant; ++i) mix.next();
  return common::Rng(mix.next());
}

std::vector<double> seededPlane(common::Rng& rng, double lo, double hi) {
  std::vector<double> words(kPlaneWords);
  for (double& w : words) w = rng.uniform(lo, hi);
  return words;
}

}  // namespace

std::vector<std::string> figure11Chunks(const std::string& script,
                                        int chunks) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < script.size()) {
    std::size_t end = script.find('\n', start);
    if (end == std::string::npos) end = script.size() - 1;
    lines.push_back(script.substr(start, end - start + 1));
    start = end + 1;
  }
  std::vector<std::string> out(static_cast<std::size_t>(chunks));
  const std::size_t n = lines.size();
  for (std::size_t c = 0; c < out.size(); ++c) {
    for (std::size_t i = n * c / out.size(); i < n * (c + 1) / out.size();
         ++i) {
      out[c] += lines[i];
    }
  }
  return out;
}

svc::Request SessionPlan::request(std::size_t step,
                                  std::uint64_t session) const {
  if (step == 0) return svc::OpenSession{};
  if (step == steps() - 1) return svc::CloseSession{session};
  svc::SessionCommand command;
  command.session = session;
  command.script = chunks[step - 1];
  if (step == chunks.size()) {
    command.run = true;
    command.inputs = inputs;
    command.outputs = {svc::PlaneRange{4, 161, 366}, svc::PlaneRange{9, 0, 1}};
  }
  return command;
}

SessionPlan sessionPlan(std::uint64_t seed, int variant, int chunks) {
  SessionPlan plan;
  plan.chunks = figure11Chunks(figure11SessionScript(), chunks);
  common::Rng rng = rngFor(seed, 1, variant);
  std::vector<double> u = seededPlane(rng, 0.0, 2.5);
  for (arch::PlaneId plane = 0; plane < 4; ++plane) {
    plan.inputs.push_back(svc::PlaneImage{plane, 0, u});
  }
  plan.inputs.push_back(svc::PlaneImage{8, 0, seededPlane(rng, -1.0, 1.0)});
  plan.inputs.push_back(
      svc::PlaneImage{10, 0, std::vector<double>(kPlaneWords, 1.0)});
  return plan;
}

svc::RunEnsemble batchRequest(std::uint64_t seed, int variant, int replicas) {
  static const std::string kConstant = "const fu4 b 0.020408163265306121";
  std::string script = figure11SessionScript();
  common::Rng rng = rngFor(seed, 2, variant);
  // 0.02 + k * 1e-7 with k not a multiple of 10: always nine decimals here
  // and six significant digits in the editor's "%g" log line.
  std::uint64_t k = 1 + rng.below(99998);
  if (k % 10 == 0) ++k;
  char constant[64];
  std::snprintf(constant, sizeof(constant), "const fu4 b %.9f",
                0.02 + static_cast<double>(k) * 1e-7);
  script.replace(script.find(kConstant), kConstant.size(), constant);
  svc::RunEnsemble request;
  request.script = std::move(script);
  request.replicas = replicas;
  return request;
}

std::uint64_t inputsDigest(const std::vector<SessionPlan>& sessions,
                           const std::vector<svc::RunEnsemble>& batches) {
  std::uint64_t hash = fnv1a(nullptr, 0);
  for (const SessionPlan& plan : sessions) {
    for (const svc::PlaneImage& image : plan.inputs) {
      hash = fnv1a(image.values.data(), image.values.size() * sizeof(double),
                   hash);
    }
  }
  for (const svc::RunEnsemble& batch : batches) {
    hash = fnv1a(batch.script.data(), batch.script.size(), hash);
  }
  return hash;
}

std::string comparableReply(const svc::ServiceReply& reply) {
  common::Json json = net::deterministicReplyJson(reply);
  common::JsonObject& stats = json["stats"].asObject();
  stats.erase("session");
  stats.erase("program_cache_hit");
  stats.erase("checker_session_hits");
  stats.erase("restored_from_disk");
  return json.dump();
}

std::size_t requestWireBytes(const svc::Request& request) {
  net::Frame frame;
  frame.type = static_cast<std::uint16_t>(net::frameTypeFor(request));
  frame.payload = net::requestToJson(request).dump();
  return net::kHeaderBytes + frame.payload.size();
}

namespace {

// The reference service: one shard, a one-thread pool (everything runs on
// the shard thread), and a private cache so the served process's cache
// state is never assumed.
struct ReferenceService {
  ReferenceService() : pool(exec::ExecOptions{1}), service(options(*this)) {}
  static svc::ServiceOptions options(ReferenceService& self) {
    svc::ServiceOptions o;
    o.shards = 1;
    o.pool = &self.pool;
    o.cache = &self.cache;
    return o;
  }
  exec::ThreadPool pool;
  sim::CompiledProgramCache cache;
  svc::WorkbenchService service;
};

}  // namespace

std::vector<SessionReference> sessionReferences(
    const std::vector<SessionPlan>& plans) {
  ReferenceService ref;
  std::vector<SessionReference> out;
  for (const SessionPlan& plan : plans) {
    SessionReference r;
    std::uint64_t session = 0;
    for (std::size_t step = 0; step < plan.steps(); ++step) {
      const svc::Request request = plan.request(step, session);
      r.request_bytes += requestWireBytes(request);
      const svc::ServiceReply reply = ref.service.submit(request).get();
      if (step == 0) session = reply.stats.session;
      r.replies.push_back(comparableReply(reply));
      r.reply_bytes += r.replies.back().size();
      r.checker_hits += reply.stats.checker_session_hits;
      r.cycles += reply.run.total_cycles;
      r.flops += reply.run.total_flops;
    }
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<BatchReference> batchReferences(
    const std::vector<svc::RunEnsemble>& requests) {
  ReferenceService ref;
  std::vector<BatchReference> out;
  for (const svc::RunEnsemble& request : requests) {
    BatchReference r;
    r.request_bytes = requestWireBytes(request);
    const svc::ServiceReply reply = ref.service.submit(request).get();
    r.reply = comparableReply(reply);
    r.reply_bytes = r.reply.size();
    for (const sim::RunStats& run : reply.ensemble) {
      r.cycles += run.total_cycles;
      r.flops += run.total_flops;
    }
    r.replicas_batched =
        static_cast<std::uint64_t>(reply.stats.replicas_batched);
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace perfbench
