// Service-layer tests: the sharded workbench service over the shared pool
// and compiled-program cache.
//
// The load-bearing property is the determinism contract: a set of session
// scripts submitted *concurrently* to an N-shard service yields per-request
// results bit-identical to running each request on a fresh single-user
// Workbench, for any shard count, queue capacity, producer interleaving,
// and NSC_THREADS (the CI TSan job replays this suite with NSC_THREADS=4).
#include <gtest/gtest.h>

#include <future>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "nsc/nsc.h"
#include "service/service.h"
#include "sim/verify.h"

namespace nsc::svc {
namespace {

// A tiny scale-by-k pipeline: y = k * x over 8 words.
std::string tripleScript(double k) {
  std::ostringstream script;
  script << R"(
pipeline "triple"
place doublet at 300,200
setop fu4 mul
connect plane0.read fu4.a
const fu4 b )" << k << R"(
connect fu4.out plane1.write
dma plane0.read base=0 stride=1 count=8 var=x
dma plane1.write base=0 stride=1 count=8 var=y
seq halt
)";
  return script.str();
}

// A script the editor partially refuses (still replayable, failures > 0).
const char* kRefusedScript = R"(
pipeline "bad"
place doublet at 300,200
setop fu4 max
connect plane0.read fu4.a
connect plane1.read fu4.a
)";

// Host-side problem data for the Figure-11 sweep: u copies, f, and mask.
std::vector<PlaneImage> figure11Inputs() {
  std::vector<PlaneImage> inputs;
  std::vector<double> u(640);
  for (std::size_t i = 0; i < u.size(); ++i) {
    u[i] = 0.25 * static_cast<double>((i * 37) % 11);
  }
  for (arch::PlaneId plane = 0; plane < 4; ++plane) {
    inputs.push_back(PlaneImage{plane, 0, u});
  }
  std::vector<double> f(640);
  for (std::size_t i = 0; i < f.size(); ++i) {
    f[i] = 0.125 * static_cast<double>((i * 13) % 7);
  }
  inputs.push_back(PlaneImage{8, 0, f});
  inputs.push_back(PlaneImage{10, 0, std::vector<double>(640, 1.0)});
  return inputs;
}

std::vector<PlaneRange> figure11Outputs() {
  return {PlaneRange{4, 161, 366}, PlaneRange{9, 0, 1}};
}

void expectRunStatsEq(const sim::RunStats& got, const sim::RunStats& want,
                      const std::string& where) {
  EXPECT_EQ(got.total_cycles, want.total_cycles) << where;
  EXPECT_EQ(got.total_flops, want.total_flops) << where;
  EXPECT_EQ(got.total_hazards, want.total_hazards) << where;
  EXPECT_EQ(got.instructions_executed, want.instructions_executed) << where;
  EXPECT_EQ(got.halted, want.halted) << where;
  EXPECT_EQ(got.error, want.error) << where;
  EXPECT_EQ(got.fu_launches, want.fu_launches) << where;
  ASSERT_EQ(got.trace.size(), want.trace.size()) << where;
  for (std::size_t i = 0; i < got.trace.size(); ++i) {
    EXPECT_EQ(got.trace[i].cycles, want.trace[i].cycles) << where << " #" << i;
    EXPECT_EQ(got.trace[i].flops, want.trace[i].flops) << where << " #" << i;
    EXPECT_EQ(got.trace[i].name, want.trace[i].name) << where << " #" << i;
  }
}

void expectSessionEq(const ed::SessionResult& got,
                     const ed::SessionResult& want, const std::string& where) {
  EXPECT_EQ(got.commands, want.commands) << where;
  EXPECT_EQ(got.failures, want.failures) << where;
  EXPECT_EQ(got.log, want.log) << where;
  EXPECT_EQ(got.status.isOk(), want.status.isOk()) << where;
  EXPECT_EQ(got.status.message(), want.status.message()) << where;
}

// The sequential single-user reference for one GenerateAndRun request.
struct Reference {
  ed::SessionResult session;
  bool generated = false;
  sim::RunStats run;
  std::vector<std::vector<double>> outputs;
};

Reference referenceFor(const GenerateAndRun& request) {
  Reference ref;
  Workbench wb;
  ref.session = wb.runSession(request.script);
  for (const PlaneImage& input : request.inputs) {
    wb.node().writePlane(input.plane, input.base, input.values);
  }
  const RunOutcome outcome = wb.generateAndRun();
  ref.generated = outcome.generation.ok;
  ref.run = outcome.run;
  for (const PlaneRange& range : request.outputs) {
    ref.outputs.push_back(
        wb.node().readPlane(range.plane, range.base, range.count));
  }
  return ref;
}

// ---------------------------------------------------------------------------
// BoundedQueue
// ---------------------------------------------------------------------------

PushResult pushValue(BoundedQueue<int>& queue, int value, Ticket ticket = {}) {
  return queue.push(value, ticket);
}

TEST(BoundedQueueTest, FifoOrderAndPeakDepth) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(pushValue(queue, i), PushResult::kAdmitted);
  }
  EXPECT_EQ(queue.depth(), 5u);
  EXPECT_EQ(queue.peakDepth(), 5u);
  for (int i = 0; i < 5; ++i) {
    const auto item = queue.pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_EQ(queue.peakDepth(), 5u);
}

TEST(BoundedQueueTest, CloseDeliversAdmittedItemsThenNullopt) {
  BoundedQueue<int> queue(8);
  EXPECT_EQ(pushValue(queue, 1), PushResult::kAdmitted);
  EXPECT_EQ(pushValue(queue, 2), PushResult::kAdmitted);
  queue.close();
  EXPECT_EQ(pushValue(queue, 3), PushResult::kClosed);  // refused after close
  EXPECT_EQ(queue.pop(), std::optional<int>(1));
  EXPECT_EQ(queue.pop(), std::optional<int>(2));
  EXPECT_EQ(queue.pop(), std::nullopt);
  EXPECT_EQ(queue.pop(), std::nullopt);  // stays drained
}

TEST(BoundedQueueTest, FullQueueBlocksProducerUntilPop) {
  BoundedQueue<int> queue(1);
  EXPECT_EQ(pushValue(queue, 0), PushResult::kAdmitted);
  std::thread producer([&] {
    EXPECT_EQ(pushValue(queue, 1), PushResult::kAdmitted);  // blocks for pop
    EXPECT_EQ(pushValue(queue, 2), PushResult::kAdmitted);
  });
  for (int expected = 0; expected <= 2; ++expected) {
    const auto item = queue.pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, expected);
  }
  producer.join();
  EXPECT_EQ(queue.peakDepth(), 1u);  // the bound held throughout
}

TEST(BoundedQueueTest, InteractiveClassServedBeforeBatch) {
  AdmissionPolicy policy;
  policy.aging_us = 0;  // pure class ordering, no clock dependence
  BoundedQueue<int> queue(8, policy);
  Ticket batch;
  batch.priority = Priority::kBatch;
  Ticket interactive;
  interactive.priority = Priority::kInteractive;
  EXPECT_EQ(pushValue(queue, 1, batch), PushResult::kAdmitted);
  EXPECT_EQ(pushValue(queue, 2, batch), PushResult::kAdmitted);
  EXPECT_EQ(pushValue(queue, 3, interactive), PushResult::kAdmitted);
  EXPECT_EQ(pushValue(queue, 4, interactive), PushResult::kAdmitted);
  // Interactive items jump the earlier batch items; FIFO within a class.
  EXPECT_EQ(queue.pop(), std::optional<int>(3));
  EXPECT_EQ(queue.pop(), std::optional<int>(4));
  EXPECT_EQ(queue.pop(), std::optional<int>(1));
  EXPECT_EQ(queue.pop(), std::optional<int>(2));
}

TEST(BoundedQueueTest, AgingPromotesBatchPastFreshInteractive) {
  AdmissionPolicy policy;
  policy.aging_us = 1'000;  // one class per millisecond waited
  BoundedQueue<int> queue(8, policy);
  Ticket batch;
  batch.priority = Priority::kBatch;
  EXPECT_EQ(pushValue(queue, 1, batch), PushResult::kAdmitted);
  // After > 1ms the batch item has aged at least one full class below a
  // fresh interactive item, so it can no longer be starved by one.
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  EXPECT_EQ(pushValue(queue, 2, Ticket{}), PushResult::kAdmitted);
  EXPECT_EQ(queue.pop(), std::optional<int>(1));
  EXPECT_EQ(queue.pop(), std::optional<int>(2));
}

TEST(BoundedQueueTest, AffinityPinsItemsToTheirConsumer) {
  AdmissionPolicy policy;
  policy.aging_us = 0;
  BoundedQueue<int> queue(8, policy);
  Ticket pinned;
  pinned.affinity = 1;
  EXPECT_EQ(pushValue(queue, 10, pinned), PushResult::kAdmitted);
  EXPECT_EQ(pushValue(queue, 20, Ticket{}), PushResult::kAdmitted);
  // Consumer 0 skips the pinned item even though it is first in line.
  EXPECT_EQ(queue.pop(0), std::optional<int>(20));
  EXPECT_EQ(queue.depth(), 1u);
  // Consumer 1 gets it.
  EXPECT_EQ(queue.pop(1), std::optional<int>(10));
}

TEST(BoundedQueueTest, ShedModeRefusesBatchAtWatermarkKeepsInteractive) {
  AdmissionPolicy policy;
  policy.overload = AdmissionPolicy::Overload::kShed;
  policy.shed_watermark = 2;
  BoundedQueue<int> queue(4, policy);
  Ticket batch;
  batch.priority = Priority::kBatch;
  EXPECT_EQ(pushValue(queue, 1, batch), PushResult::kAdmitted);
  EXPECT_EQ(pushValue(queue, 2, batch), PushResult::kAdmitted);
  // Depth reached the watermark: batch is shed without blocking, and the
  // refused value is NOT consumed (the service replies Rejected with it).
  int shed_item = 3;
  EXPECT_EQ(queue.push(shed_item, batch), PushResult::kShed);
  EXPECT_EQ(shed_item, 3);
  EXPECT_EQ(queue.depth(), 2u);
  // Interactive work keeps the blocking contract up to full capacity.
  EXPECT_EQ(pushValue(queue, 4, Ticket{}), PushResult::kAdmitted);
  EXPECT_EQ(pushValue(queue, 5, Ticket{}), PushResult::kAdmitted);
  EXPECT_EQ(queue.depth(), 4u);
}

// ---------------------------------------------------------------------------
// CompiledProgramCache
// ---------------------------------------------------------------------------

mc::GenerateResult generateFor(const arch::Machine& machine,
                               const std::string& script) {
  ed::Editor editor(machine);
  ed::runSession(editor, script);
  mc::Generator generator(machine);
  return generator.generate(editor.program());
}

TEST(ProgramCacheTest, HitReturnsPointerEqualInstance) {
  arch::Machine machine;
  const mc::GenerateResult gen = generateFor(machine, tripleScript(3.0));
  ASSERT_TRUE(gen.ok) << gen.diagnostics.format();

  sim::CompiledProgramCache cache;
  bool hit = true;
  const auto first = cache.get(machine, gen.exe, &hit);
  EXPECT_FALSE(hit);
  const auto second = cache.get(machine, gen.exe, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.get(), second.get());  // one immutable image, shared

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ProgramCacheTest, MachineConfigIsPartOfTheKey) {
  // Same executable bits, different machine config: lowered indices could
  // differ, so the cache must not alias the images.
  arch::MachineConfig small;
  small.sim_plane_words = 1u << 16;
  arch::Machine machine_a;
  arch::Machine machine_b(small);
  const mc::GenerateResult gen = generateFor(machine_a, tripleScript(2.0));
  ASSERT_TRUE(gen.ok);

  sim::CompiledProgramCache cache;
  const auto a = cache.get(machine_a, gen.exe);
  const auto b = cache.get(machine_b, gen.exe);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(ProgramCacheTest, EvictsLeastRecentlyUsedPastCapacity) {
  arch::Machine machine;
  const mc::GenerateResult gen_a = generateFor(machine, tripleScript(2.0));
  const mc::GenerateResult gen_b = generateFor(machine, tripleScript(5.0));
  ASSERT_TRUE(gen_a.ok);
  ASSERT_TRUE(gen_b.ok);
  ASSERT_NE(gen_a.exe.fingerprint(), gen_b.exe.fingerprint());

  sim::CompiledProgramCache cache(1);
  cache.get(machine, gen_a.exe);
  cache.get(machine, gen_b.exe);  // evicts A
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  bool hit = true;
  cache.get(machine, gen_a.exe, &hit);  // A was evicted: recompiled
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(ProgramCacheTest, ConcurrentHitsChurnLruWithoutBreakingInFlightHolders) {
  // A capacity-1 cache thrashed by four threads alternating four distinct
  // programs: every get() must return a usable image even while other
  // threads force evictions, and a shared_ptr held across an arbitrary
  // number of evictions must stay valid (eviction drops the cache's
  // reference, never the holder's).  ASan/TSan make this a memory-safety
  // proof, not just a liveness one.
  arch::Machine machine;
  std::vector<mc::GenerateResult> gens;
  for (int k = 2; k <= 5; ++k) {
    gens.push_back(generateFor(machine, tripleScript(static_cast<double>(k))));
    ASSERT_TRUE(gens.back().ok);
  }

  sim::CompiledProgramCache cache(1);
  // The in-flight holder: acquired before the churn, used after it.
  const auto held = cache.get(machine, gens[0].exe);
  ASSERT_NE(held, nullptr);

  constexpr int kThreads = 4;
  constexpr int kIterations = 32;
  std::vector<std::thread> workers;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const auto& gen = gens[static_cast<std::size_t>((t + i) % 4)];
        const auto program = cache.get(machine, gen.exe);
        // Every image carries its verification report, however the LRU
        // churns: compiled-at-insert, never detached by eviction.
        if (program->verify == nullptr || !program->verify->clean()) {
          ++failures[static_cast<std::size_t>(t)];
        }
        // Use the image immediately: a freed or aliased image would trip
        // the sanitizers or produce a failed run.
        sim::NodeSim node(machine);
        node.load(program);
        if (node.run().error) ++failures[static_cast<std::size_t>(t)];
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;

  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);  // the bound held through the churn
  EXPECT_GT(stats.evictions, 0u);

  // The held image survived every eviction: running it now is bit-identical
  // to running a freshly compiled copy of the same program.
  sim::NodeSim from_held(machine);
  from_held.load(held);
  const sim::RunStats held_run = from_held.run();
  sim::NodeSim fresh(machine);
  sim::CompiledProgramCache fresh_cache;
  fresh.load(fresh_cache.get(machine, gens[0].exe));
  const sim::RunStats fresh_run = fresh.run();
  EXPECT_FALSE(held_run.error);
  EXPECT_EQ(held_run.total_cycles, fresh_run.total_cycles);
  EXPECT_EQ(held_run.total_flops, fresh_run.total_flops);
  EXPECT_EQ(held_run.instructions_executed, fresh_run.instructions_executed);
}

// ---------------------------------------------------------------------------
// WorkbenchService: determinism against the single-user reference
// ---------------------------------------------------------------------------

TEST(ServiceTest, ConcurrentSubmissionsMatchSequentialWorkbench) {
  // A mixed batch: distinct programs, the full Figure-11 sweep with problem
  // data and read-backs, a script with refusals, and an empty session.
  std::vector<GenerateAndRun> requests;
  for (int k = 1; k <= 6; ++k) {
    requests.push_back(GenerateAndRun{tripleScript(1.0 + 0.5 * k), {}, {}});
  }
  requests.push_back(GenerateAndRun{figure11SessionScript(),
                                    figure11Inputs(), figure11Outputs()});
  requests.push_back(GenerateAndRun{kRefusedScript, {}, {}});
  requests.push_back(GenerateAndRun{"# nothing but a comment\n\n", {}, {}});

  // Sequential single-user reference, one fresh Workbench per request.
  std::vector<Reference> references;
  references.reserve(requests.size());
  for (const GenerateAndRun& request : requests) {
    references.push_back(referenceFor(request));
  }

  // Serve the same batch concurrently: 4 shards, 3 producer threads, a
  // queue small enough to exercise backpressure.
  ServiceOptions options;
  options.shards = 4;
  options.queue_capacity = 4;
  WorkbenchService service(options);
  std::vector<std::future<ServiceReply>> futures(requests.size());
  {
    std::vector<std::thread> producers;
    for (int p = 0; p < 3; ++p) {
      producers.emplace_back([&, p] {
        for (std::size_t i = static_cast<std::size_t>(p); i < requests.size();
             i += 3) {
          futures[i] = service.submit(requests[i]);
        }
      });
    }
    for (std::thread& t : producers) t.join();
  }

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::string where = "request " + std::to_string(i);
    ServiceReply reply = futures[i].get();
    const Reference& ref = references[i];
    EXPECT_TRUE(reply.status.isOk()) << where << ": " << reply.status.message();
    expectSessionEq(reply.session, ref.session, where);
    EXPECT_EQ(reply.generation.ok, ref.generated) << where;
    expectRunStatsEq(reply.run, ref.run, where);
    ASSERT_EQ(reply.outputs.size(), ref.outputs.size()) << where;
    for (std::size_t o = 0; o < reply.outputs.size(); ++o) {
      EXPECT_EQ(reply.outputs[o], ref.outputs[o]) << where << " output " << o;
    }
  }
}

TEST(ServiceTest, CacheSharedAcrossShardsPointerEqual) {
  sim::CompiledProgramCache cache;
  ServiceOptions options;
  options.shards = 4;
  options.cache = &cache;
  WorkbenchService service(options);

  std::vector<std::future<ServiceReply>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(service.submit(
        GenerateAndRun{figure11SessionScript(), {}, {}}));
  }
  const sim::CompiledProgram* image = nullptr;
  int hits = 0;
  for (auto& future : futures) {
    ServiceReply reply = future.get();
    ASSERT_TRUE(reply.ok()) << reply.status.message()
                            << reply.generation.diagnostics.format();
    ASSERT_NE(reply.program, nullptr);
    if (image == nullptr) image = reply.program.get();
    // Every shard observes the *same* compiled instance, never a copy.
    EXPECT_EQ(reply.program.get(), image);
    if (reply.stats.program_cache_hit) ++hits;
  }
  // Exactly one compilation happened, no matter how the 8 requests raced.
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(hits, 7);
}

TEST(ServiceTest, EnsembleMatchesWorkbenchEnsemble) {
  const std::string script = tripleScript(3.0);
  Workbench reference;
  ASSERT_TRUE(reference.runSession(script).clean());
  const EnsembleOutcome want =
      reference.runEnsemble(reference.editor().program(), 6);
  ASSERT_TRUE(want.ok()) << want.generation.diagnostics.format();

  WorkbenchService service(ServiceOptions{});
  ServiceReply reply = service.submit(RunEnsemble{script, 6}).get();
  ASSERT_TRUE(reply.ok()) << reply.status.message();
  ASSERT_EQ(reply.ensemble.size(), want.runs.size());
  for (std::size_t i = 0; i < want.runs.size(); ++i) {
    expectRunStatsEq(reply.ensemble[i], want.runs[i],
                     "replica " + std::to_string(i));
  }
}

// The RunEnsemble lane knob reaches the batched stepper and the execution
// split is surfaced in RequestStats; batched replies stay bit-identical to
// lanes = 1 (one replica per batch, counted scalar).
TEST(ServiceTest, EnsembleLanesSurfaceInStatsAndMatchScalar) {
  const std::string script = tripleScript(3.0);
  WorkbenchService service(ServiceOptions{});

  RunEnsemble scalar_request{script, 13};
  scalar_request.lanes = 1;
  ServiceReply scalar = service.submit(scalar_request).get();
  ASSERT_TRUE(scalar.ok()) << scalar.status.message();
  EXPECT_EQ(scalar.stats.ensemble_lanes, 1);
  EXPECT_EQ(scalar.stats.replicas_scalar, 13);
  EXPECT_EQ(scalar.stats.replicas_batched, 0);

  RunEnsemble batched_request{script, 13};
  batched_request.lanes = 4;
  ServiceReply batched = service.submit(batched_request).get();
  ASSERT_TRUE(batched.ok()) << batched.status.message();
  EXPECT_EQ(batched.stats.ensemble_lanes, 4);
  // 13 = 3 batches of 4 + a width-1 remainder, counted scalar.
  EXPECT_EQ(batched.stats.replicas_batched, 12);
  EXPECT_EQ(batched.stats.replicas_scalar, 1);
  ASSERT_EQ(batched.ensemble.size(), scalar.ensemble.size());
  for (std::size_t i = 0; i < scalar.ensemble.size(); ++i) {
    expectRunStatsEq(batched.ensemble[i], scalar.ensemble[i],
                     "replica " + std::to_string(i));
  }
}

TEST(ServiceTest, SystemPhasesMatchesDirectSystem) {
  const std::string script = tripleScript(2.0);
  Workbench reference;
  ASSERT_TRUE(reference.runSession(script).clean());
  mc::Generator generator(reference.machine());
  const mc::GenerateResult gen =
      generator.generate(reference.editor().program());
  ASSERT_TRUE(gen.ok) << gen.diagnostics.format();
  sim::HypercubeSystem system = reference.makeSystem(2);
  system.loadAll(gen.exe);
  sim::SystemStats want;
  for (int phase = 0; phase < 3; ++phase) {
    if (phase > 0) system.restartAll();
    system.runPhase(want);
  }

  WorkbenchService service(ServiceOptions{});
  RunSystemPhases request;
  request.script = script;
  request.dimension = 2;
  request.phases = 3;
  ServiceReply reply = service.submit(request).get();
  ASSERT_TRUE(reply.ok()) << reply.status.message();
  EXPECT_EQ(reply.system.compute_makespan_cycles, want.compute_makespan_cycles);
  EXPECT_EQ(reply.system.comm_cycles, want.comm_cycles);
  EXPECT_EQ(reply.system.total_flops, want.total_flops);
  ASSERT_EQ(reply.system.node_stats.size(), want.node_stats.size());
  for (std::size_t i = 0; i < want.node_stats.size(); ++i) {
    EXPECT_EQ(reply.system.node_stats[i].total_cycles,
              want.node_stats[i].total_cycles) << "node " << i;
  }
  // Engine accounting: the default lane width batches the 4-node system
  // (lanes clamp to numNodes), and every node-phase ran on the SoA engine.
  EXPECT_EQ(reply.stats.node_lanes, 4);
  EXPECT_EQ(reply.stats.nodes_batched, 12u);
  EXPECT_EQ(reply.stats.nodes_scalar, 0u);

  // An explicit scalar request answers bit-identically — the lane width is
  // an engine choice, not an observable.
  RunSystemPhases scalar_request = request;
  scalar_request.node_lanes = 1;
  ServiceReply scalar = service.submit(scalar_request).get();
  ASSERT_TRUE(scalar.ok()) << scalar.status.message();
  EXPECT_EQ(scalar.stats.node_lanes, 1);
  EXPECT_EQ(scalar.stats.nodes_batched, 0u);
  EXPECT_EQ(scalar.stats.nodes_scalar, 12u);
  EXPECT_EQ(scalar.system.compute_makespan_cycles,
            reply.system.compute_makespan_cycles);
  EXPECT_EQ(scalar.system.total_flops, reply.system.total_flops);
}

// ---------------------------------------------------------------------------
// WorkbenchService: admission, stats, lifecycle
// ---------------------------------------------------------------------------

TEST(ServiceTest, BackpressureQueueBoundHoldsUnderLoad) {
  ServiceOptions options;
  options.shards = 2;
  options.queue_capacity = 2;
  WorkbenchService service(options);

  constexpr int kRequests = 24;
  std::vector<std::future<ServiceReply>> futures(kRequests);
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      for (int i = p; i < kRequests; i += 4) {
        futures[static_cast<std::size_t>(i)] =
            service.submit(SubmitSession{tripleScript(2.0)});
      }
    });
  }
  for (std::thread& t : producers) t.join();
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().ok());
  }
  EXPECT_LE(service.peakQueueDepth(), 2u);  // admission control held
}

TEST(ServiceTest, StatsAccountRequestsShardsAndSequence) {
  ServiceOptions options;
  options.shards = 2;
  WorkbenchService service(options);
  constexpr int kRequests = 10;
  std::vector<std::future<ServiceReply>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(service.submit(SubmitSession{"pipeline \"p\"\n"}));
  }
  std::set<std::uint64_t> sequences;
  for (auto& future : futures) {
    const ServiceReply reply = future.get();
    EXPECT_TRUE(reply.ok());
    EXPECT_GE(reply.stats.shard, 0);
    EXPECT_LT(reply.stats.shard, 2);
    sequences.insert(reply.stats.sequence);
    EXPECT_GE(reply.stats.queue_us, 0);
    EXPECT_GE(reply.stats.run_us, 0);
  }
  EXPECT_EQ(sequences.size(), static_cast<std::size_t>(kRequests));
  std::uint64_t served = 0;
  for (int s = 0; s < service.shards(); ++s) {
    served += service.shardStats(s).requests;
  }
  EXPECT_EQ(served, static_cast<std::uint64_t>(kRequests));
}

TEST(ServiceTest, ShardStateDoesNotLeakBetweenRequests) {
  // Request 1 builds a diagram on some shard; request 2 replays a script
  // whose pipeline name collides — on a dirty editor it would select the
  // old pipeline instead of renaming the initial empty one.  With one
  // shard the pair is guaranteed to share a core.
  ServiceOptions options;
  options.shards = 1;
  WorkbenchService service(options);
  const std::string script = tripleScript(4.0);
  const ServiceReply first = service.submit(SubmitSession{script}).get();
  const ServiceReply second = service.submit(SubmitSession{script}).get();
  expectSessionEq(second.session, first.session, "reset parity");
}

TEST(ServiceTest, SubmitAfterStopReturnsError) {
  WorkbenchService service(ServiceOptions{});
  service.stop();
  ServiceReply reply = service.submit(SubmitSession{"pipeline \"p\"\n"}).get();
  EXPECT_FALSE(reply.status.isOk());
  EXPECT_FALSE(reply.ok());
  service.stop();  // idempotent
}

TEST(ServiceTest, BadRequestParametersSurfaceAsStatusErrors) {
  WorkbenchService service(ServiceOptions{});
  ServiceReply ensemble =
      service.submit(RunEnsemble{tripleScript(2.0), -1}).get();
  EXPECT_FALSE(ensemble.status.isOk());
  RunSystemPhases bad_dim;
  bad_dim.script = tripleScript(2.0);
  bad_dim.dimension = -1;
  ServiceReply system = service.submit(bad_dim).get();
  EXPECT_FALSE(system.status.isOk());
}

// ---------------------------------------------------------------------------
// Static-verification admission gate
// ---------------------------------------------------------------------------

// A pipeline the editor and generator accept — the DMA pattern fits the
// architected 16M-word planes — but whose transfer provably walks past the
// *simulated* plane capacity, so static verification must refuse it at
// admission before it ever reaches a node.
std::string oobDmaScript() {
  const std::uint64_t count = arch::MachineConfig{}.sim_plane_words + 1;
  std::ostringstream script;
  script << R"(
pipeline "oob"
place doublet at 300,200
setop fu4 mul
connect plane0.read fu4.a
const fu4 b 2
connect fu4.out plane1.write
dma plane0.read base=0 stride=1 count=)" << count << R"(
dma plane1.write base=0 stride=1 count=)" << count << R"(
seq halt
)";
  return script.str();
}

TEST(ServiceTest, HazardousProgramRejectedAtAdmissionNeverDispatched) {
  WorkbenchService service(ServiceOptions{});
  ServiceReply reply =
      service.submit(GenerateAndRun{oobDmaScript(), {}, {}}).get();

  // The script replayed and generated fine; the verifier is what refused.
  EXPECT_TRUE(reply.session.clean()) << reply.session.status.message();
  EXPECT_TRUE(reply.generation.ok);
  EXPECT_FALSE(reply.ok());
  EXPECT_TRUE(reply.rejected());
  EXPECT_EQ(reply.stats.rejected, Reject::kInvalidProgram);
  EXPECT_FALSE(reply.status.isOk());
  EXPECT_NE(reply.status.message().find("static verification"),
            std::string::npos);
  EXPECT_EQ(service.admissionStats().rejected_program, 1u);

  // The typed diagnostics ride the reply, pointer-shared with the cached
  // image's own report.
  ASSERT_NE(reply.verify, nullptr);
  EXPECT_FALSE(reply.verify->clean());
  EXPECT_GE(reply.verify->errorCount(), 1u);
  ASSERT_NE(reply.program, nullptr);
  EXPECT_EQ(reply.verify.get(), reply.program->verify.get());

  // Nothing dispatched: no cycles were simulated.
  EXPECT_TRUE(reply.run.trace.empty());
  EXPECT_EQ(reply.run.total_cycles, 0u);

  // The verifier's findings also surface in the generation diagnostics
  // (the editor's message strip), without flipping generation.ok.
  EXPECT_TRUE(reply.generation.diagnostics.hasErrors());
}

TEST(ServiceTest, RejectionSharesOneReportAcrossShards) {
  sim::CompiledProgramCache cache;
  ServiceOptions options;
  options.shards = 4;
  options.cache = &cache;
  WorkbenchService service(options);
  std::vector<std::future<ServiceReply>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(service.submit(GenerateAndRun{oobDmaScript(), {}, {}}));
  }
  const sim::VerifyReport* report = nullptr;
  for (auto& future : futures) {
    ServiceReply reply = future.get();
    EXPECT_EQ(reply.stats.rejected, Reject::kInvalidProgram);
    ASSERT_NE(reply.verify, nullptr);
    if (report == nullptr) report = reply.verify.get();
    // One verification, shared by every shard that saw the image.
    EXPECT_EQ(reply.verify.get(), report);
  }
  EXPECT_EQ(service.admissionStats().rejected_program, 8u);
  EXPECT_EQ(cache.stats().misses, 1u);  // verified once, at cache insert
}

TEST(ServiceTest, EnsembleAndSystemRequestsAreGatedToo) {
  WorkbenchService service(ServiceOptions{});
  ServiceReply ensemble =
      service.submit(RunEnsemble{oobDmaScript(), 4}).get();
  EXPECT_EQ(ensemble.stats.rejected, Reject::kInvalidProgram);
  EXPECT_TRUE(ensemble.ensemble.empty());  // no replica ever ran

  RunSystemPhases request;
  request.script = oobDmaScript();
  request.dimension = 2;
  request.phases = 2;
  ServiceReply system = service.submit(request).get();
  EXPECT_EQ(system.stats.rejected, Reject::kInvalidProgram);
  EXPECT_TRUE(system.system.node_stats.empty());  // no node ever loaded it
  EXPECT_EQ(service.admissionStats().rejected_program, 2u);
}

TEST(ServiceTest, SessionRunIsGatedAndSessionStaysUsable) {
  ServiceOptions options;
  options.shards = 2;
  WorkbenchService service(options);
  ServiceReply opened = service.submit(OpenSession{}).get();
  ASSERT_TRUE(opened.ok());
  const std::uint64_t id = opened.stats.session;

  SessionCommand bad;
  bad.session = id;
  bad.script = oobDmaScript();
  bad.run = true;
  ServiceReply rejected = service.submit(bad).get();
  EXPECT_EQ(rejected.stats.rejected, Reject::kInvalidProgram);
  EXPECT_TRUE(rejected.run.trace.empty());

  // The session survived the refusal: shrinking the offending DMA on the
  // same (persistent) editor makes the next run admissible — the
  // interactive fix-and-resubmit loop.
  SessionCommand good;
  good.session = id;
  good.script =
      "pipeline \"oob\"\n"
      "dma plane0.read base=0 stride=1 count=8\n"
      "dma plane1.write base=0 stride=1 count=8\n";
  good.run = true;
  ServiceReply served = service.submit(good).get();
  EXPECT_TRUE(served.ok()) << served.status.message()
                           << served.generation.diagnostics.format();
  EXPECT_EQ(served.stats.rejected, Reject::kNone);
  ASSERT_NE(served.verify, nullptr);
  EXPECT_TRUE(served.verify->clean());
  EXPECT_TRUE(service.submit(CloseSession{id}).get().ok());
}

TEST(ServiceTest, CleanRepliesCarryTheSharedCleanReport) {
  WorkbenchService service(ServiceOptions{});
  ServiceReply reply =
      service.submit(GenerateAndRun{figure11SessionScript(), {}, {}}).get();
  ASSERT_TRUE(reply.ok()) << reply.status.message();
  ASSERT_NE(reply.verify, nullptr);
  EXPECT_TRUE(reply.verify->clean());
  ASSERT_NE(reply.program, nullptr);
  EXPECT_EQ(reply.verify.get(), reply.program->verify.get());
}

// ---------------------------------------------------------------------------
// Stateful sessions: affinity, warm state, lifecycle
// ---------------------------------------------------------------------------

// The Figure-11 script cut at the "# step 3" marker, with a `check` on each
// side of the cut.  The reference script carries both checks in sequence,
// so the second is answered from the still-warm memoized checker session —
// in the split variant that only happens if the session's editor state
// survived across two separate requests.
struct SplitScript {
  std::string full;
  std::string first;
  std::string second;
};

SplitScript splitFigure11() {
  const std::string script = figure11SessionScript();
  const std::size_t cut = script.find("# step 3");
  EXPECT_NE(cut, std::string::npos);
  SplitScript split;
  split.first = script.substr(0, cut) + "check\n";
  split.second = "check\n" + script.substr(cut);
  split.full = split.first + split.second;
  return split;
}

TEST(ServiceTest, SessionSplitAcrossRequestsMatchesSingleScriptSubmit) {
  const SplitScript split = splitFigure11();

  // Single-script reference: the whole session as one stateless request.
  GenerateAndRun whole;
  whole.script = split.full;
  whole.inputs = figure11Inputs();
  whole.outputs = figure11Outputs();
  const Reference ref = referenceFor(whole);
  ASSERT_TRUE(ref.generated);

  ServiceOptions options;
  options.shards = 4;
  WorkbenchService service(options);

  // Open, two command batches, close — four requests against one session.
  ServiceReply opened = service.submit(OpenSession{}).get();
  ASSERT_TRUE(opened.ok()) << opened.status.message();
  const std::uint64_t id = opened.stats.session;
  ASSERT_NE(id, 0u);
  EXPECT_EQ(service.sessionCount(), 1u);

  SessionCommand part1;
  part1.session = id;
  part1.script = split.first;
  ServiceReply first = service.submit(part1).get();
  ASSERT_TRUE(first.ok()) << first.status.message();

  SessionCommand part2;
  part2.session = id;
  part2.script = split.second;
  part2.run = true;
  part2.inputs = whole.inputs;
  part2.outputs = whole.outputs;
  ServiceReply second = service.submit(part2).get();
  ASSERT_TRUE(second.ok()) << second.status.message()
                           << second.generation.diagnostics.format();

  // (1) Affinity: every request for the session landed on the same shard.
  EXPECT_GE(opened.stats.shard, 0);
  EXPECT_EQ(first.stats.shard, opened.stats.shard);
  EXPECT_EQ(second.stats.shard, opened.stats.shard);
  EXPECT_EQ(first.stats.session, id);
  EXPECT_EQ(second.stats.session, id);

  // (2) Warm state: the second request's leading `check` was answered from
  // the checker session the first request left warm — a per-request
  // cache-hit counter the reply carries.
  EXPECT_GE(second.stats.checker_session_hits, 1u);

  // (3) Bit-identical editor results: the two batches concatenate to
  // exactly the single-script replay record.
  EXPECT_EQ(first.session.commands + second.session.commands,
            ref.session.commands);
  EXPECT_EQ(first.session.failures + second.session.failures,
            ref.session.failures);
  std::vector<std::string> combined_log = first.session.log;
  combined_log.insert(combined_log.end(), second.session.log.begin(),
                      second.session.log.end());
  EXPECT_EQ(combined_log, ref.session.log);

  // (4) Bit-identical run results and read-backs.
  expectRunStatsEq(second.run, ref.run, "split session run");
  ASSERT_EQ(second.outputs.size(), ref.outputs.size());
  for (std::size_t o = 0; o < second.outputs.size(); ++o) {
    EXPECT_EQ(second.outputs[o], ref.outputs[o]) << "output " << o;
  }

  ServiceReply closed = service.submit(CloseSession{id}).get();
  EXPECT_TRUE(closed.ok()) << closed.status.message();
  EXPECT_EQ(service.sessionCount(), 0u);
  const ShardStats stats =
      service.shardStats(opened.stats.shard);
  EXPECT_EQ(stats.sessions_opened, 1u);
  EXPECT_EQ(stats.sessions_closed, 1u);
  EXPECT_EQ(stats.session_commands, 2u);
  EXPECT_GE(stats.checker_session_hits, 1u);
}

TEST(ServiceTest, SessionsSpreadAcrossShardsLeastLoadedFirst) {
  ServiceOptions options;
  options.shards = 4;
  WorkbenchService service(options);
  std::set<int> shards;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    ServiceReply opened = service.submit(OpenSession{}).get();
    ASSERT_TRUE(opened.ok());
    shards.insert(opened.stats.shard);
    ids.push_back(opened.stats.session);
  }
  // Least-loaded placement: four sessions on four distinct shards.
  EXPECT_EQ(shards.size(), 4u);
  EXPECT_EQ(service.sessionCount(), 4u);
  for (const std::uint64_t id : ids) {
    EXPECT_TRUE(service.submit(CloseSession{id}).get().ok());
  }
  EXPECT_EQ(service.sessionCount(), 0u);
}

TEST(ServiceTest, UnknownSessionIsRejectedAtAdmission) {
  WorkbenchService service(ServiceOptions{});
  SessionCommand command;
  command.session = 12345;
  command.script = "check\n";
  ServiceReply reply = service.submit(command).get();
  EXPECT_FALSE(reply.ok());
  EXPECT_TRUE(reply.rejected());
  EXPECT_EQ(reply.stats.rejected, Reject::kUnknownSession);
  EXPECT_EQ(service.admissionStats().rejected_session, 1u);
  // Closing an unknown session is rejected the same way.
  ServiceReply closed = service.submit(CloseSession{12345}).get();
  EXPECT_EQ(closed.stats.rejected, Reject::kUnknownSession);
  // A default-constructed id (0) is unknown too — it must not fall through
  // to the stateless path and silently execute on a scratch core.
  ServiceReply zero = service.submit(SessionCommand{}).get();
  EXPECT_EQ(zero.stats.rejected, Reject::kUnknownSession);
  EXPECT_EQ(zero.session.commands, 0);
}

TEST(ServiceTest, ShedOpenSessionDoesNotLeakItsReservedCore) {
  ServiceOptions options;
  options.shards = 1;
  WorkbenchService service(options);
  Admission expired;
  expired.deadline_us = -1;
  ServiceReply reply = service.submit(OpenSession{}, expired).get();
  EXPECT_EQ(reply.stats.rejected, Reject::kDeadline);
  EXPECT_EQ(reply.stats.session, 0u);  // the id was never handed out
  // The core reserved at admission was dropped with the shed.
  EXPECT_EQ(service.sessionCount(), 0u);
}

TEST(ServiceTest, SessionLimitRejectsFurtherOpens) {
  ServiceOptions options;
  options.shards = 1;
  options.max_sessions = 2;
  WorkbenchService service(options);
  const std::uint64_t a = service.submit(OpenSession{}).get().stats.session;
  const std::uint64_t b = service.submit(OpenSession{}).get().stats.session;
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  ServiceReply third = service.submit(OpenSession{}).get();
  EXPECT_EQ(third.stats.rejected, Reject::kSessionLimit);
  // Closing one frees a slot.
  ASSERT_TRUE(service.submit(CloseSession{a}).get().ok());
  EXPECT_NE(service.submit(OpenSession{}).get().stats.session, 0u);
}

TEST(ServiceTest, IdleSessionsAreEvictedAfterTtl) {
  ServiceOptions options;
  options.shards = 1;
  // Wide margins so sanitizer slowdown can't evict early or sweep late:
  // the idle clock starts when the open's serve *finishes*.
  options.session_ttl_us = 50'000;  // 50ms idle TTL
  WorkbenchService service(options);
  ServiceReply opened = service.submit(OpenSession{tripleScript(2.0)}).get();
  ASSERT_TRUE(opened.ok());
  const std::uint64_t id = opened.stats.session;
  EXPECT_EQ(service.sessionCount(), 1u);

  // Let the session go idle past the TTL, then serve any request on the
  // owning shard — sweeps run between requests on the owner.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_TRUE(service.submit(SubmitSession{"pipeline \"p\"\n"}).get().ok());
  EXPECT_EQ(service.sessionCount(), 0u);
  EXPECT_EQ(service.shardStats(0).sessions_evicted, 1u);

  // A command for the evicted session is rejected, not served on a ghost.
  SessionCommand command;
  command.session = id;
  command.script = "check\n";
  ServiceReply reply = service.submit(command).get();
  EXPECT_EQ(reply.stats.rejected, Reject::kUnknownSession);
}

// ---------------------------------------------------------------------------
// Admission control: deadlines, priorities, load shedding
// ---------------------------------------------------------------------------

TEST(ServiceTest, ExpiredDeadlineIsShedBeforeDispatch) {
  ServiceOptions options;
  options.shards = 1;
  WorkbenchService service(options);

  Admission expired;
  expired.deadline_us = -1;  // already expired at admission
  GenerateAndRun request{tripleScript(3.0), {}, {}};
  ServiceReply reply = service.submit(request, expired).get();
  EXPECT_FALSE(reply.ok());
  EXPECT_TRUE(reply.rejected());
  EXPECT_EQ(reply.stats.rejected, Reject::kDeadline);
  // Nothing executed: no replay, no generation, no run.
  EXPECT_EQ(reply.session.commands, 0);
  EXPECT_FALSE(reply.generation.ok);
  EXPECT_EQ(reply.run.total_cycles, 0u);
  EXPECT_EQ(service.shardStats(0).shed_deadline, 1u);

  // A generous deadline executes normally.
  Admission generous;
  generous.deadline_us = 60'000'000;
  ServiceReply served = service.submit(request, generous).get();
  EXPECT_TRUE(served.ok()) << served.status.message();
  EXPECT_EQ(served.stats.rejected, Reject::kNone);
}

TEST(ServiceTest, OverloadShedsBatchWhileInteractiveCompletes) {
  // Deterministic staging: the service admits but does not serve until
  // start(), so the queue can be filled past the watermark with no race
  // against the shards draining it.
  ServiceOptions options;
  options.shards = 1;
  options.queue_capacity = 8;
  options.admission.overload = AdmissionPolicy::Overload::kShed;
  options.admission.shed_watermark = 2;
  options.admission.aging_us = 1'000'000;  // no promotion inside this test
  options.start = false;
  WorkbenchService service(options);

  const std::string script = tripleScript(2.0);
  // Two batch requests fill to the watermark — the first carries a
  // deadline that expired at admission (it is admitted here, and shed at
  // dispatch).  The third batch push hits the watermark and is shed
  // immediately with a Rejected reply (the producer never blocks).
  Admission expired;
  expired.deadline_us = -1;
  auto dead = service.submit(RunEnsemble{script, 2}, expired);
  auto batch1 = service.submit(RunEnsemble{script, 2});
  auto shed = service.submit(RunEnsemble{script, 2});
  ServiceReply shed_reply = shed.get();  // already ready: nothing serves yet
  EXPECT_TRUE(shed_reply.rejected());
  EXPECT_EQ(shed_reply.stats.rejected, Reject::kOverload);
  EXPECT_EQ(service.admissionStats().shed_overload, 1u);

  // Interactive work is still admitted above the watermark.
  auto inter1 = service.submit(SubmitSession{script});
  auto inter2 = service.submit(SubmitSession{script});
  EXPECT_EQ(service.queueDepth(), 4u);

  service.start();
  ServiceReply i1 = inter1.get();
  ServiceReply i2 = inter2.get();
  EXPECT_TRUE(i1.ok()) << i1.status.message();
  EXPECT_TRUE(i2.ok()) << i2.status.message();
  ServiceReply b1 = batch1.get();
  EXPECT_TRUE(b1.ok());
  ServiceReply dead_reply = dead.get();
  EXPECT_EQ(dead_reply.stats.rejected, Reject::kDeadline);
  // Nothing of the expired request executed.
  EXPECT_EQ(dead_reply.session.commands, 0);
  EXPECT_TRUE(dead_reply.ensemble.empty());

  // Interactive outranked the earlier-admitted batch work at dispatch:
  // pop order is i1, i2, then the batch class in FIFO order.
  EXPECT_EQ(i1.stats.shard_sequence, 0u);
  EXPECT_EQ(i2.stats.shard_sequence, 1u);
  EXPECT_EQ(dead_reply.stats.shard_sequence, 2u);
  EXPECT_EQ(b1.stats.shard_sequence, 3u);
  // Shed replies are accounted: the deadline shed on the shard that popped
  // it, the overload shed at admission.
  const ShardStats shard = service.shardStats(0);
  EXPECT_EQ(shard.shed_deadline, 1u);
  EXPECT_EQ(shard.requests, 4u);  // 1 batch + 2 interactive + 1 deadline shed
  const AdmissionStats admission = service.admissionStats();
  EXPECT_EQ(admission.shed_overload, 1u);
  EXPECT_EQ(admission.admitted, 4u);
  EXPECT_EQ(admission.submitted, 5u);
}

TEST(ServiceTest, CallbackRunsOncePerRequestOnEverySettlePath) {
  ServiceOptions options;
  options.shards = 1;
  options.max_sessions = 1;
  options.admission.overload = AdmissionPolicy::Overload::kShed;
  options.admission.shed_watermark = 1;
  options.start = false;
  WorkbenchService service(options);

  struct Settled {
    int calls = 0;
    std::thread::id thread;
    ServiceReply reply;
  };
  std::mutex mu;
  std::vector<Settled> settled(7);
  auto record = [&](std::size_t tag) {
    return [&, tag](ServiceReply reply) {
      std::lock_guard<std::mutex> lock(mu);
      ++settled[tag].calls;
      settled[tag].thread = std::this_thread::get_id();
      settled[tag].reply = std::move(reply);
    };
  };
  const std::string script = tripleScript(2.0);
  service.submit(SubmitSession{script}, {}, record(0));      // queued
  service.submit(RunEnsemble{script, 2}, {}, record(1));     // shed
  service.submit(CloseSession{777}, {}, record(2));          // unknown
  service.submit(OpenSession{}, {}, record(3));              // queued
  service.submit(OpenSession{}, {}, record(4));              // over limit
  service.submit(SubmitSession{script}, {}, [](ServiceReply) {
    throw std::runtime_error("a caller's bug");
  });
  {
    // Refusals at admission ran before submit() returned, on this thread.
    std::lock_guard<std::mutex> lock(mu);
    for (std::size_t tag : {1u, 2u, 4u}) {
      EXPECT_EQ(settled[tag].calls, 1) << tag;
      EXPECT_EQ(settled[tag].thread, std::this_thread::get_id()) << tag;
    }
    EXPECT_EQ(settled[1].reply.stats.rejected, Reject::kOverload);
    EXPECT_EQ(settled[2].reply.stats.rejected, Reject::kUnknownSession);
    EXPECT_EQ(settled[4].reply.stats.rejected, Reject::kSessionLimit);
    EXPECT_EQ(settled[0].calls, 0);
  }

  // The shard survives the throwing callback and serves what follows it.
  service.start();
  EXPECT_TRUE(service.submit(SubmitSession{script}).get().ok());
  EXPECT_EQ(service.admissionStats().callbacks_failed, 1u);
  service.stop();
  service.submit(SubmitSession{script}, {}, record(5));  // after stop()

  // Never served: stop() settles it on the stopping thread.
  WorkbenchService idle(options);
  idle.submit(SubmitSession{script}, {}, record(6));
  idle.stop();

  std::lock_guard<std::mutex> lock(mu);
  for (std::size_t tag = 0; tag < settled.size(); ++tag) {
    EXPECT_EQ(settled[tag].calls, 1) << tag;
  }
  EXPECT_TRUE(settled[0].reply.ok());
  EXPECT_NE(settled[0].thread, std::this_thread::get_id());  // a shard
  EXPECT_TRUE(settled[3].reply.ok());
  EXPECT_FALSE(settled[5].reply.status.isOk());
  EXPECT_NE(settled[6].reply.status.message().find("before dispatch"),
            std::string::npos);
  EXPECT_EQ(settled[6].thread, std::this_thread::get_id());
}

TEST(ServiceTest, CallerPriorityOverridesTypeDefault) {
  ServiceOptions options;
  options.shards = 1;
  WorkbenchService service(options);
  Admission batch;
  batch.priority = Priority::kBatch;
  ServiceReply demoted =
      service.submit(SubmitSession{"pipeline \"p\"\n"}, batch).get();
  EXPECT_TRUE(demoted.ok());
  EXPECT_EQ(demoted.stats.priority, Priority::kBatch);
  ServiceReply defaulted =
      service.submit(RunEnsemble{tripleScript(2.0), 1}).get();
  EXPECT_TRUE(defaulted.ok());
  EXPECT_EQ(defaulted.stats.priority, Priority::kBatch);
  ServiceReply interactive =
      service.submit(SubmitSession{"pipeline \"p\"\n"}).get();
  EXPECT_EQ(interactive.stats.priority, Priority::kInteractive);
}

}  // namespace
}  // namespace nsc::svc
