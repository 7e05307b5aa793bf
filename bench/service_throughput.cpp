// Serving-layer claim: the workbench workflow the paper gives one user at a
// Sun-3 can be served to many concurrent sessions.  BM_ServiceThroughput
// drives batches of complete Figure-11 Jacobi sessions (editor replay ->
// microcode generation -> simulated execution) through a WorkbenchService
// and sweeps the shard count; BM_SequentialWorkbench is the single-user
// baseline the speedup is measured against.  All shard counts share one
// exec pool and one compiled-program cache, so the sweep isolates the
// serving architecture, not redundant lowering.
#include <future>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "service/service.h"

namespace {

using namespace nsc;

constexpr int kBatch = 32;  // requests per timed batch

svc::GenerateAndRun figure11Request() {
  svc::GenerateAndRun request;
  request.script = figure11SessionScript();
  request.outputs.push_back(svc::PlaneRange{4, 161, 366});
  return request;
}

void printArtifact() {
  bench::banner("service_throughput",
                "the serving layer (sessions as requests, sharded simulators)");
  svc::ServiceOptions options;
  options.shards = 4;
  options.queue_capacity = 16;
  svc::WorkbenchService service(options);
  std::vector<std::future<svc::ServiceReply>> futures;
  for (int i = 0; i < kBatch; ++i) {
    futures.push_back(service.submit(figure11Request()));
  }
  int ok = 0, cache_hits = 0;
  std::int64_t queue_us = 0;
  for (auto& future : futures) {
    const svc::ServiceReply reply = future.get();
    if (reply.ok()) ++ok;
    if (reply.stats.program_cache_hit) ++cache_hits;
    queue_us += reply.stats.queue_us;
  }
  std::printf("one batch: %d/%d Figure-11 sessions ok across %d shards, "
              "%d compiled-image cache hits,\n"
              "mean admission wait %.1f us, peak queue depth %zu of %zu\n",
              ok, kBatch, service.shards(), cache_hits,
              static_cast<double>(queue_us) / kBatch,
              service.peakQueueDepth(), options.queue_capacity);
  for (int s = 0; s < service.shards(); ++s) {
    const svc::ShardStats stats = service.shardStats(s);
    std::printf("  shard %d: %llu requests, %.1f ms busy\n", s,
                static_cast<unsigned long long>(stats.requests),
                static_cast<double>(stats.busy_us) / 1e3);
  }
  std::printf("\n");
}

// Concurrent sessions through an N-shard service (N = state.range(0)).
void BM_ServiceThroughput(benchmark::State& state) {
  sim::CompiledProgramCache cache;
  svc::ServiceOptions options;
  options.shards = static_cast<int>(state.range(0));
  options.queue_capacity = kBatch;
  options.cache = &cache;
  svc::WorkbenchService service(options);
  const svc::GenerateAndRun request = figure11Request();
  for (auto _ : state) {
    std::vector<std::future<svc::ServiceReply>> futures;
    futures.reserve(kBatch);
    for (int i = 0; i < kBatch; ++i) futures.push_back(service.submit(request));
    for (auto& future : futures) {
      benchmark::DoNotOptimize(future.get().run.total_cycles);
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_ServiceThroughput)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// ---------------------------------------------------------------------------
// Stateful sessions: persistent per-session cores vs per-request reset.
//
// The interactive workload the paper actually describes is a user editing
// one diagram across many commands.  A *stateless* service must replay the
// cumulative script prefix on every command (each request resets the
// shard's core), so command k costs O(k) replay; a *stateful* session
// replays each command batch once against its persistent core.  Both
// benchmarks drive the same interaction — kSessions users each issuing
// kChunks command batches of the Figure-11 script, the last one running
// the generated program — through the same 4-shard service.
// ---------------------------------------------------------------------------

constexpr int kSessions = 8;
constexpr int kChunks = 8;

svc::ServiceOptions sessionServiceOptions(sim::CompiledProgramCache& cache) {
  svc::ServiceOptions options;
  options.shards = 4;
  options.queue_capacity = 2 * kSessions * kChunks;
  options.cache = &cache;
  return options;
}

// One user's multi-command session, narrated: shard affinity, warm checker
// reuse, and a deadline shed — the admission-control story in one block.
void printSessionArtifact() {
  sim::CompiledProgramCache cache;
  svc::WorkbenchService service(sessionServiceOptions(cache));
  const std::vector<std::string> chunks = figure11SessionChunks(kChunks);
  const svc::ServiceReply opened = service.submit(svc::OpenSession{}).get();
  std::vector<svc::ServiceReply> replies;
  for (int c = 0; c < kChunks; ++c) {
    svc::SessionCommand command;
    command.session = opened.stats.session;
    // Each batch re-validates the diagram on entry and validates on exit:
    // the entry `check` of batch c+1 is answered from the checker session
    // batch c left warm — only possible because the session persists.
    command.script = (c > 0 ? std::string("check\n") : std::string()) +
                     chunks[static_cast<std::size_t>(c)] + "check\n";
    command.run = (c == kChunks - 1);
    replies.push_back(service.submit(std::move(command)).get());
  }
  std::uint64_t warm_hits = 0;
  bool same_shard = true;
  int commands = 0;
  int flagged = 0;
  for (const svc::ServiceReply& reply : replies) {
    warm_hits += reply.stats.checker_session_hits;
    same_shard = same_shard && reply.stats.shard == opened.stats.shard;
    commands += reply.session.commands;
    flagged += reply.session.failures;
  }
  svc::Admission expired;
  expired.deadline_us = -1;
  const svc::ServiceReply shed =
      service.submit(svc::RunEnsemble{figure11SessionScript(), 2}, expired)
          .get();
  std::printf("stateful session %llu: %d commands in %d batches, all on "
              "shard %d (affinity %s),\n"
              "%d mid-edit checks flagged still-incomplete wiring, "
              "%llu checker queries answered from the warm session,\n"
              "final batch ran to halt: %s; expired-deadline ensemble %s\n\n",
              static_cast<unsigned long long>(opened.stats.session), commands,
              kChunks, opened.stats.shard, same_shard ? "held" : "BROKEN",
              flagged, static_cast<unsigned long long>(warm_hits),
              !replies.back().run.error ? "yes" : "no",
              shed.stats.rejected == svc::Reject::kDeadline
                  ? "shed before dispatch"
                  : "NOT shed");
  service.submit(svc::CloseSession{opened.stats.session}).get();
}

// Persistent sessions: open, kChunks incremental SessionCommands (the last
// generates and runs), close.  Affinity keeps each session's editor and
// warm checker session alive across its requests.
void BM_SessionThroughput_Persistent(benchmark::State& state) {
  sim::CompiledProgramCache cache;
  svc::WorkbenchService service(sessionServiceOptions(cache));
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
        svc::SessionCommand command;
        command.session = ids[static_cast<std::size_t>(s)];
        command.script = chunks[static_cast<std::size_t>(c)];
        command.run = (c == kChunks - 1);
        futures.push_back(service.submit(std::move(command)));
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
BENCHMARK(BM_SessionThroughput_Persistent)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Per-request reset: the same interaction on the stateless request types —
// every command replays the cumulative prefix from scratch (what PR 4's
// service had to do for interactive traffic).
void BM_SessionThroughput_PerRequestReset(benchmark::State& state) {
  sim::CompiledProgramCache cache;
  svc::WorkbenchService service(sessionServiceOptions(cache));
  const std::vector<std::string> chunks = figure11SessionChunks(kChunks);
  std::vector<std::string> prefixes(kChunks);
  std::string prefix;
  for (int c = 0; c < kChunks; ++c) {
    prefix += chunks[static_cast<std::size_t>(c)];
    prefixes[static_cast<std::size_t>(c)] = prefix;
  }
  for (auto _ : state) {
    std::vector<std::future<svc::ServiceReply>> futures;
    futures.reserve(static_cast<std::size_t>(kSessions * kChunks));
    for (int c = 0; c < kChunks; ++c) {
      for (int s = 0; s < kSessions; ++s) {
        if (c == kChunks - 1) {
          futures.push_back(service.submit(
              svc::GenerateAndRun{prefixes[static_cast<std::size_t>(c)],
                                  {}, {}}));
        } else {
          futures.push_back(service.submit(
              svc::SubmitSession{prefixes[static_cast<std::size_t>(c)]}));
        }
      }
    }
    for (auto& future : futures) {
      benchmark::DoNotOptimize(future.get().run.total_cycles);
    }
  }
  state.SetItemsProcessed(state.iterations() * kSessions * kChunks);
}
BENCHMARK(BM_SessionThroughput_PerRequestReset)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// The single-user baseline: the same batch served by one Workbench core,
// request after request (what the in-process API did before the service).
void BM_SequentialWorkbench(benchmark::State& state) {
  sim::CompiledProgramCache cache;
  WorkbenchContext context({}, nullptr, &cache);
  WorkbenchCore core(context);
  const svc::GenerateAndRun request = figure11Request();
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      core.reset();
      core.runSession(request.script);
      RunOutcome outcome = core.generateAndRun();
      benchmark::DoNotOptimize(outcome.run.total_cycles);
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_SequentialWorkbench)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  printArtifact();
  printSessionArtifact();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
