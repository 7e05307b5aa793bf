// Durability claims: checkpoint/restore latency and the cost of the
// durability hooks on the serving hot path.
//
// BM_CheckpointSerialize times the full versioned serialization of a
// mid-session workbench core (editor replay log + node planes/caches);
// BM_CheckpointWriteRestore adds the verified on-disk round trip (frame +
// FNV-1a checksum, temp-write -> read-back verify -> rename, then a
// restore onto a fresh core).  BM_SessionThroughput_Durable is the PR 7
// BM_SessionThroughput_Persistent workload with evict-to-disk and
// last-good recovery switched ON (fault injection compiled in but inert) —
// diffed against the persistent row it shows what durability costs when
// nothing faults: a last-good snapshot per successful session request.
#include <cstdio>
#include <filesystem>
#include <future>
#include <string>
#include <vector>

#include "bench_common.h"
#include "service/service.h"

namespace {

using namespace nsc;

// A scratch checkpoint directory under the system temp dir, wiped at
// process start so reruns never adopt a previous run's spills.
std::string freshCheckpointDir(const char* name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

// One context + one mid-session core shared by the checkpoint benches: the
// whole Figure-11 pipeline replayed, program generated and run — the
// largest state a spill has to serialize.  Leaked statics keep both alive
// for the benchmark registry's whole run.
const WorkbenchContext& benchContext() {
  static auto* context = new WorkbenchContext({}, nullptr, nullptr);
  return *context;
}

WorkbenchCore& midSessionCore() {
  static auto* core = [] {
    auto* built = new WorkbenchCore(benchContext());
    built->runSession(figure11SessionScript());
    built->generateAndRun();
    return built;
  }();
  return *core;
}

void printArtifact() {
  bench::banner("durable_bench",
                "durable sessions: checkpoint, evict-to-disk, migrate");
  WorkbenchCore& core = midSessionCore();
  const common::Json state = core.serializeState();
  const std::string payload = state.dump();
  const std::string framed = svc::CheckpointStore::frame(payload);
  std::printf("checkpoint of a completed Figure-11 session: %zu-byte JSON "
              "payload, %zu-byte framed file\n(header: %.*s...)\n",
              payload.size(), framed.size(),
              static_cast<int>(framed.find('\n')), framed.c_str());

  // Restore onto a fresh core and prove bit-identity of the state.
  WorkbenchCore restored(benchContext());
  const common::Status status = restored.restoreState(state);
  std::printf("restore onto a fresh core: %s; re-serialized state %s\n",
              status.isOk() ? "ok" : status.message().c_str(),
              restored.serializeState().dump() == payload
                  ? "bit-identical"
                  : "DIVERGED");

  // Spill + migrate through the service: force-evict via the injector,
  // then watch the next command restore the session from disk.
  exec::FaultInjector injector;  // inert: no plan configured
  svc::ServiceOptions options;
  options.shards = 2;
  options.durability.checkpoint_dir = freshCheckpointDir("nsc_durable_bench");
  options.durability.recover = true;
  options.injector = &injector;
  svc::WorkbenchService service(options);
  const svc::ServiceReply opened =
      service.submit(svc::OpenSession{figure11SessionScript()}).get();
  exec::FaultPlan evict_once;
  evict_once.force_evict = 1.0;
  injector.configure(evict_once);  // next idle sweep spills the session
  svc::SessionCommand command;
  command.session = opened.stats.session;
  command.run = true;
  command.outputs = {svc::PlaneRange{4, 161, 366}};
  svc::ServiceReply reply = service.submit(command).get();
  int spins = 0;
  while (!reply.stats.restored_from_disk && ++spins < 50) {
    reply = service.submit(command).get();  // sweep runs between requests
  }
  injector.configure({});
  std::printf("evict-to-disk + restore: session %llu spilled by a forced "
              "sweep, next command %s (shard %d -> %d), run %s\n\n",
              static_cast<unsigned long long>(opened.stats.session),
              reply.stats.restored_from_disk ? "restored from its checkpoint"
                                             : "was never evicted",
              opened.stats.shard, reply.stats.shard,
              reply.ok() ? "ok" : "FAILED");
  service.submit(svc::CloseSession{opened.stats.session}).get();
}

// Full versioned serialization of a mid-session core, dumped to the JSON
// text a checkpoint file stores — the CPU cost a spill or last-good
// snapshot pays per session.
void BM_CheckpointSerialize(benchmark::State& state) {
  WorkbenchCore& core = midSessionCore();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string payload = core.serializeState().dump();
    bytes = payload.size();
    benchmark::DoNotOptimize(payload.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CheckpointSerialize)->Unit(benchmark::kMicrosecond);

// The whole durable round trip: serialize, verified write (temp + read-back
// + rename), verified read, restore onto a fresh core.  This is the price
// of one spill plus one transparent restore.
void BM_CheckpointWriteRestore(benchmark::State& state) {
  WorkbenchCore& core = midSessionCore();
  exec::FaultInjector injector;
  svc::CheckpointStore store(freshCheckpointDir("nsc_durable_bench_rt"),
                             &injector);
  for (auto _ : state) {
    const common::Json snapshot = core.serializeState();
    if (!store.write(7, snapshot).isOk()) state.SkipWithError("write failed");
    const svc::CheckpointStore::ReadResult loaded = store.read(7);
    if (!loaded.ok()) state.SkipWithError("read failed");
    WorkbenchCore fresh(benchContext());
    if (!fresh.restoreState(loaded.payload).isOk()) {
      state.SkipWithError("restore failed");
    }
    benchmark::DoNotOptimize(fresh.checkpoint().scripts_run);
  }
  store.remove(7);
}
BENCHMARK(BM_CheckpointWriteRestore)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Hot-path guard: BM_SessionThroughput_Persistent (service_throughput.cpp)
// with durability ON.  Same sessions, same chunks, same shard count; the
// only difference is checkpoint_dir + recover, so the delta against the
// persistent row isolates the per-request durability hooks (a last-good
// snapshot after each successful session request; no faults, no spills —
// session_ttl_us stays 0).
// ---------------------------------------------------------------------------

constexpr int kSessions = 8;
constexpr int kChunks = 8;

void BM_SessionThroughput_Durable(benchmark::State& state) {
  sim::CompiledProgramCache cache;
  svc::ServiceOptions options;
  options.shards = 4;
  options.queue_capacity = 2 * kSessions * kChunks;
  options.cache = &cache;
  options.durability.checkpoint_dir =
      freshCheckpointDir("nsc_durable_bench_tp");
  options.durability.recover = true;
  svc::WorkbenchService service(options);
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
BENCHMARK(BM_SessionThroughput_Durable)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  printArtifact();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
