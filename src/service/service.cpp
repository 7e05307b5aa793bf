#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <type_traits>

#include "common/strings.h"
#include "sim/verify.h"

namespace nsc::svc {

namespace {

std::int64_t nowUs() { return monotonicNowUs(); }

// A reply for a request that never executed.
ServiceReply refusal(std::string message, Reject reason = Reject::kNone,
                     std::uint64_t session = 0) {
  ServiceReply reply;
  reply.status = common::Status::error(std::move(message));
  reply.stats.rejected = reason;
  reply.stats.session = session;
  return reply;
}

// The class a request is admitted at when the caller does not say:
// interactive editor/session traffic ahead of deferrable batch work.
Priority defaultPriority(const Request& request) {
  if (std::holds_alternative<RunEnsemble>(request) ||
      std::holds_alternative<RunSystemPhases>(request)) {
    return Priority::kBatch;
  }
  return Priority::kInteractive;
}

}  // namespace

WorkbenchService::WorkbenchService(ServiceOptions options)
    : options_(std::move(options)),
      context_(options_.machine, options_.pool, options_.cache),
      injector_(options_.injector != nullptr ? options_.injector
                                             : &exec::FaultInjector::global()),
      store_(options_.durability.checkpoint_dir.empty()
                 ? nullptr
                 : std::make_unique<CheckpointStore>(
                       options_.durability.checkpoint_dir, injector_)),
      sessions_(context_, std::max(options_.shards, 1), store_.get(),
                options_.durability.recover),
      queue_(options_.queue_capacity, options_.admission, injector_) {
  const int shard_count = std::max(options_.shards, 1);
  shards_.reserve(static_cast<std::size_t>(shard_count));
  for (int i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>(context_));
  }
  if (options_.start) start();
}

WorkbenchService::~WorkbenchService() { stop(); }

void WorkbenchService::start() {
  std::lock_guard<std::mutex> lock(start_mu_);
  if (started_ || stopped_.load(std::memory_order_relaxed)) return;
  started_ = true;
  // Cores exist before any thread starts, so shardLoop never races the
  // shards_ vector itself.
  for (int i = 0; i < static_cast<int>(shards_.size()); ++i) {
    shards_[static_cast<std::size_t>(i)]->thread =
        std::thread([this, i] { shardLoop(i); });
  }
}

void WorkbenchService::stop() {
  stopped_.store(true, std::memory_order_relaxed);
  queue_.close();
  std::vector<Job> unserved;
  {
    // Serialize the join phase: stop() racing the destructor (or another
    // stop()) must not double-join a shard thread.
    std::lock_guard<std::mutex> lock(start_mu_);
    for (auto& shard : shards_) {
      if (shard->thread.joinable()) shard->thread.join();
    }
    // The shards are gone (or never ran — pop(-1) honours affinity pins,
    // so a service stopped before start() leaves pinned session jobs
    // queued).
    while (std::optional<Job> job = queue_.tryPopAny()) {
      if (std::holds_alternative<OpenSession>(job->request)) {
        // Drop the core the admission path reserved — the id never reached
        // the caller.
        sessions_.close(job->session);
        job->session = 0;
      }
      unserved.push_back(std::move(*job));
    }
    // Graceful durability: flush every open session to its checkpoint file
    // so the next service incarnation pointed at the same directory adopts
    // it (SessionTable's constructor scan).
    if (store_ != nullptr) sessions_.flushAll();
  }
  // Every remaining job settles with an error reply, so no caller is ever
  // left waiting for an answer — outside the lock, since a callback may
  // call back into this service.
  for (Job& job : unserved) {
    settle(job.done, refusal("service stopped before dispatch",
                             Reject::kNone, job.session));
  }
}

void WorkbenchService::settle(const ReplyCallback& done, ServiceReply reply) {
  if (!done) return;
  try {
    done(std::move(reply));
  } catch (...) {
    // Unwinding a shard thread would leave every later job unsettled; the
    // count is the record of a caller's lost reply.
    callbacks_failed_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::future<ServiceReply> WorkbenchService::submit(Request request,
                                                   Admission admission) {
  auto promise = std::make_shared<std::promise<ServiceReply>>();
  std::future<ServiceReply> future = promise->get_future();
  submit(std::move(request), admission, [promise](ServiceReply reply) {
    promise->set_value(std::move(reply));
  });
  return future;
}

void WorkbenchService::submit(Request request, Admission admission,
                              ReplyCallback done) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (stopped_.load(std::memory_order_relaxed)) {
    settle(done, refusal("service stopped"));
    return;
  }

  Job job;
  job.done = std::move(done);
  job.priority = admission.priority.value_or(defaultPriority(request));
  job.deadline_us = admission.deadline_us;

  // Stateful requests resolve their shard affinity here, at admission:
  // OpenSession reserves a core on the least-loaded shard; commands and
  // closes follow the session to the shard that owns it.  Session ids
  // start at 1, so a default-constructed id (0) is itself unknown — it
  // must not fall through to the stateless path.
  int affinity = -1;
  bool stateful = false;
  if (std::holds_alternative<OpenSession>(request)) {
    const auto opened = sessions_.open(options_.max_sessions, nowUs());
    if (!opened.has_value()) {
      rejected_session_.fetch_add(1, std::memory_order_relaxed);
      settle(job.done,
             refusal(common::strFormat("session limit (%zu) reached",
                                       options_.max_sessions),
                     Reject::kSessionLimit));
      return;
    }
    stateful = true;
    affinity = opened->shard;
    job.session = opened->id;
  } else if (const auto* command = std::get_if<SessionCommand>(&request)) {
    stateful = true;
    affinity = sessions_.shardOf(command->session);
    job.session = command->session;
  } else if (const auto* close = std::get_if<CloseSession>(&request)) {
    stateful = true;
    affinity = sessions_.shardOf(close->session);
    job.session = close->session;
  }
  if (stateful && affinity < 0) {
    rejected_session_.fetch_add(1, std::memory_order_relaxed);
    settle(job.done,
           refusal(common::strFormat(
                       "unknown session %llu",
                       static_cast<unsigned long long>(job.session)),
                   Reject::kUnknownSession, job.session));
    return;
  }

  job.request = std::move(request);
  job.sequence = next_sequence_.fetch_add(1, std::memory_order_relaxed);
  job.admitted_us = nowUs();

  Ticket ticket;
  ticket.priority = job.priority;
  ticket.affinity = affinity;
  const std::uint64_t session = job.session;
  // A refused OpenSession must drop the core it just reserved; a refused
  // command/close must NOT touch the (still live) session it names.
  const bool reserved_here = std::holds_alternative<OpenSession>(job.request);
  switch (queue_.push(job, ticket)) {
    case PushResult::kAdmitted:
      admitted_.fetch_add(1, std::memory_order_relaxed);
      return;
    case PushResult::kShed:
      // Overload watermark: batch work is refused instead of blocked.  An
      // OpenSession is never batch by default, but a caller can mark one.
      shed_overload_.fetch_add(1, std::memory_order_relaxed);
      if (reserved_here) sessions_.close(session);
      settle(job.done, refusal("shed: queue over watermark", Reject::kOverload,
                               session));
      return;
    case PushResult::kClosed:
      // Closed while we were blocked on admission.
      if (reserved_here) sessions_.close(session);
      settle(job.done, refusal("service stopped"));
      return;
  }
}

ShardStats WorkbenchService::shardStats(int shard) const {
  const Shard& s = *shards_.at(static_cast<std::size_t>(shard));
  std::lock_guard<std::mutex> lock(s.mu);
  return s.stats;
}

AdmissionStats WorkbenchService::admissionStats() const {
  AdmissionStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.admitted = admitted_.load(std::memory_order_relaxed);
  stats.shed_overload = shed_overload_.load(std::memory_order_relaxed);
  stats.rejected_session = rejected_session_.load(std::memory_order_relaxed);
  stats.rejected_program = rejected_program_.load(std::memory_order_relaxed);
  stats.callbacks_failed = callbacks_failed_.load(std::memory_order_relaxed);
  return stats;
}

bool WorkbenchService::admitCompiled(
    const std::shared_ptr<const sim::CompiledProgram>& program,
    ServiceReply& reply) {
  if (program == nullptr || program->verify == nullptr ||
      program->verify->clean()) {
    return true;
  }
  rejected_program_.fetch_add(1, std::memory_order_relaxed);
  reply.stats.rejected = Reject::kInvalidProgram;
  reply.status = common::Status::error(
      "program rejected by static verification: " +
      program->verify->firstError());
  return false;
}

bool WorkbenchService::withinDeadline(const Job& job, std::int64_t now_us) {
  if (job.deadline_us == 0) return true;
  if (job.deadline_us < 0) return false;  // admitted already expired
  return now_us - job.admitted_us <= job.deadline_us;
}

void WorkbenchService::shardLoop(int shard_index) {
  Shard& shard = *shards_[static_cast<std::size_t>(shard_index)];
  while (std::optional<Job> job = queue_.pop(shard_index)) {
    const std::int64_t start_us = nowUs();
    ServiceReply reply;
    if (!withinDeadline(*job, start_us)) {
      // Shed before dispatch: the deadline passed while the request sat in
      // the queue, so executing it would waste shard time on an answer the
      // caller has given up on.  A shed OpenSession drops the core it
      // reserved at admission — the caller never learns the id.
      const bool opened_here =
          std::holds_alternative<OpenSession>(job->request);
      if (opened_here) sessions_.close(job->session);
      reply = refusal("deadline expired before dispatch", Reject::kDeadline,
                      opened_here ? 0 : job->session);
    } else {
      reply = serveWithRecovery(shard, shard_index, *job);
    }
    const std::int64_t end_us = nowUs();
    reply.stats.shard = shard_index;
    reply.stats.sequence = job->sequence;
    reply.stats.priority = job->priority;
    reply.stats.queue_us = start_us - job->admitted_us;
    reply.stats.run_us = end_us - start_us;

    // Idle-session sweep: only the owning shard evicts (spills, with a
    // checkpoint store), so a sweep can never race a claim — both run on
    // this thread, between requests.  The injector's forced eviction rides
    // the same sweep point.
    SessionTable::SweepResult swept;
    if (options_.session_ttl_us > 0) {
      swept = sessions_.sweepIdle(shard_index, nowUs(),
                                  options_.session_ttl_us);
    }
    if (store_ != nullptr && injector_->shouldForceEvict()) {
      const SessionTable::SweepResult forced =
          sessions_.forceSpill(shard_index);
      swept.spilled += forced.spilled;
      swept.destroyed += forced.destroyed;
      swept.write_failures += forced.write_failures;
    }

    {
      std::lock_guard<std::mutex> lock(shard.mu);
      reply.stats.shard_sequence = shard.stats.requests;
      ++shard.stats.requests;
      if (!reply.ok()) ++shard.stats.failures;
      if (reply.stats.program_cache_hit) ++shard.stats.cache_hits;
      shard.stats.busy_us += end_us - start_us;
      if (reply.stats.rejected == Reject::kDeadline) {
        ++shard.stats.shed_deadline;
      }
      if (!reply.rejected()) {
        if (std::holds_alternative<OpenSession>(job->request)) {
          ++shard.stats.sessions_opened;
        } else if (std::holds_alternative<CloseSession>(job->request)) {
          ++shard.stats.sessions_closed;
        } else if (job->session != 0) {
          ++shard.stats.session_commands;
        }
      }
      shard.stats.checker_session_hits += reply.stats.checker_session_hits;
      shard.stats.sessions_evicted += swept.spilled + swept.destroyed;
      shard.stats.sessions_spilled += swept.spilled;
      shard.stats.spill_failures += swept.write_failures;
      if (reply.stats.restored_from_disk) ++shard.stats.sessions_restored;
    }
    settle(job->done, std::move(reply));
  }
}

ServiceReply WorkbenchService::serveWithRecovery(Shard& shard,
                                                 int shard_index, Job& job) {
  const DurabilityOptions& durability = options_.durability;
  const int max_retries =
      durability.recover ? std::max(durability.max_retries, 0) : 0;
  for (int attempt = 0;; ++attempt) {
    std::string what;
    try {
      if (attempt == 0) return serve(shard, shard_index, job);
      // Retry: run suppressed so an *injected* fault fires at most once
      // per request — real faults still propagate and exhaust the budget.
      exec::FaultInjector::Suppress suppress;
      ServiceReply reply = serve(shard, shard_index, job);
      reply.stats.retries = attempt;
      std::lock_guard<std::mutex> lock(shard.mu);
      ++shard.stats.faults_recovered;
      return reply;
    } catch (const std::exception& e) {
      what = e.what();
    } catch (...) {
      // Anything escaping the shard thread would terminate the process and
      // abandon every pending future; everything becomes a reply instead.
      what = "unknown error";
    }
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      ++shard.stats.dispatch_faults;
    }
    bool can_retry = attempt < max_retries;
    bool quarantined = false;
    if (job.session != 0) {
      // The session's core may be half-mutated by the failed attempt; it
      // must not serve anything again as-is.  Either rebuild it from the
      // last-good snapshot and retry, or destroy it — an honest
      // kUnknownSession later beats silently corrupt state.
      const int consecutive = sessions_.noteFault(job.session, shard_index);
      const bool over_threshold =
          consecutive >= std::max(durability.quarantine_after, 1);
      if (!can_retry || over_threshold) {
        sessions_.close(job.session);
        quarantined = true;
        can_retry = false;
      } else if (sessions_.rebuild(job.session, shard_index)) {
        std::lock_guard<std::mutex> lock(shard.mu);
        ++shard.stats.cores_rebuilt;
      } else {
        // No usable snapshot; rebuild() destroyed the session.
        quarantined = true;
        can_retry = false;
      }
    }
    if (quarantined) {
      std::lock_guard<std::mutex> lock(shard.mu);
      ++shard.stats.sessions_quarantined;
    }
    if (can_retry) continue;
    ServiceReply reply;
    reply.stats.session = job.session;
    reply.stats.retries = attempt;
    reply.stats.rejected = Reject::kInternal;
    reply.status = common::Status::error(
        common::strFormat("internal error during dispatch: %s", what.c_str()));
    std::lock_guard<std::mutex> lock(shard.mu);
    ++shard.stats.internal_rejects;
    return reply;
  }
}

ServiceReply WorkbenchService::serve(Shard& shard, int shard_index, Job& job) {
  // Chaos hook: an injected dispatch fault at the very top models a shard
  // blowing up before any request work — the recovery loop around serve()
  // must absorb it.
  injector_->maybeThrow(exec::FaultSite::kDispatch);
  ServiceReply reply;
  reply.stats.pool_queue_depth = context_.pool().queueDepth();
  reply.stats.session = job.session;

  if (const auto* close = std::get_if<CloseSession>(&job.request)) {
    if (sessions_.close(close->session)) {
      reply.complete_ = true;
    } else {
      reply.status = common::Status::error("unknown session");
      reply.stats.rejected = Reject::kUnknownSession;
    }
    return reply;
  }

  WorkbenchCore* core = nullptr;
  if (job.session != 0) {
    // A session core is only ever touched by its affine shard, one request
    // at a time.  The claim transparently restores a spilled session from
    // its checkpoint (possibly migrated here from another shard); it fails
    // only when the session was closed, idle-evicted without a store, or
    // its checkpoint proved unusable.
    SessionTable::ClaimInfo info;
    core = sessions_.claim(job.session, shard_index, nowUs(), &info);
    if (core == nullptr) {
      if (info.restore_error != CheckpointError::kNone) {
        {
          std::lock_guard<std::mutex> lock(shard.mu);
          ++shard.stats.restore_failures;
        }
        reply.status = common::Status::error(common::strFormat(
            "session %llu checkpoint unusable (%s): %s",
            static_cast<unsigned long long>(job.session),
            checkpointErrorName(info.restore_error), info.message.c_str()));
      } else {
        reply.status = common::Status::error("session expired");
      }
      reply.stats.rejected = Reject::kUnknownSession;
      return reply;
    }
    reply.stats.restored_from_disk = info.restored;
  } else {
    // Stateless requests replay against freshly-constructed state: replies
    // are bit-identical to a fresh single-user Workbench serving the same
    // request, independent of what this shard served before.
    core = &shard.core;
    core->reset();
  }

  const WorkbenchCore::Checkpoint before = core->checkpoint();
  std::visit(
      [&](const auto& typed) {
        using Tp = std::decay_t<decltype(typed)>;
        if constexpr (!std::is_same_v<Tp, CloseSession>) {
          serveOne(*core, typed, reply);
        }
      },
      job.request);
  reply.stats.checker_session_hits =
      core->checkpoint().editor.checker_session_hits -
      before.editor.checker_session_hits;
  if (job.session != 0) {
    // Record the post-request state as the session's last-good snapshot:
    // if the *next* request faults mid-flight, the core is rebuilt from
    // exactly this state and the retry replays against what a fault-free
    // run would have seen.
    if (options_.durability.recover) {
      sessions_.recordGood(job.session, shard_index,
                           core->serializeState().dump());
    }
    // Re-stamp after serving: a session's idle clock starts when its last
    // request *finished*, so a long-running command can't age it toward
    // the TTL while it is being served.
    sessions_.claim(job.session, shard_index, nowUs());
  }
  return reply;
}

void WorkbenchService::serveOne(WorkbenchCore& core,
                                const SubmitSession& request,
                                ServiceReply& reply) {
  reply.session = core.runSession(request.script);
  reply.complete_ = reply.session.clean();
}

void WorkbenchService::serveOne(WorkbenchCore& core,
                                const GenerateAndRun& request,
                                ServiceReply& reply) {
  reply.session = core.runSession(request.script);
  for (const PlaneImage& input : request.inputs) {
    core.node().writePlane(input.plane, input.base, input.values);
  }
  // Compile, pass the verification gate, and only then touch an engine: a
  // program the verifier proves faulty is refused here and never runs.
  CompileOutcome compiled = core.compileProgram(core.editor().program());
  reply.generation = std::move(compiled.generation);
  reply.program = compiled.program;
  reply.verify = compiled.program != nullptr ? compiled.program->verify
                                             : nullptr;
  reply.stats.program_cache_hit = compiled.cache_hit;
  bool ran_ok = reply.generation.ok;
  if (reply.generation.ok && admitCompiled(compiled.program, reply)) {
    core.node().load(compiled.program);
    reply.run = core.node().run();
    ran_ok = !reply.run.error;
  }
  // Read-backs stay unconditional, exactly like the pre-gate behaviour:
  // a refused request returns the (untouched) plane contents.
  reply.outputs.reserve(request.outputs.size());
  for (const PlaneRange& range : request.outputs) {
    reply.outputs.push_back(
        core.node().readPlane(range.plane, range.base, range.count));
  }
  reply.complete_ = reply.session.clean() && ran_ok && !reply.rejected();
}

void WorkbenchService::serveOne(WorkbenchCore& core,
                                const RunEnsemble& request,
                                ServiceReply& reply) {
  if (request.replicas < 0) {
    reply.status = common::Status::error("RunEnsemble: negative replicas");
    return;
  }
  reply.session = core.runSession(request.script);
  CompileOutcome compiled = core.compileProgram(core.editor().program());
  reply.generation = std::move(compiled.generation);
  reply.program = compiled.program;
  reply.verify = compiled.program != nullptr ? compiled.program->verify
                                             : nullptr;
  reply.stats.program_cache_hit = compiled.cache_hit;
  bool runs_ok = reply.generation.ok;
  if (reply.generation.ok && admitCompiled(compiled.program, reply)) {
    EnsembleOptions options;
    options.lanes = request.lanes;
    WorkbenchCore::ReplicaRunOutcome ensemble =
        core.runReplicas(compiled.program, request.replicas, options);
    reply.ensemble = std::move(ensemble.runs);
    reply.stats.ensemble_lanes = ensemble.lanes_used;
    reply.stats.replicas_batched = ensemble.replicas_batched;
    reply.stats.replicas_scalar = ensemble.replicas_scalar;
    for (const sim::RunStats& run : reply.ensemble) {
      runs_ok = runs_ok && !run.error;
    }
  }
  reply.complete_ = reply.session.clean() && runs_ok && !reply.rejected();
}

void WorkbenchService::serveOne(WorkbenchCore& core,
                                const RunSystemPhases& request,
                                ServiceReply& reply) {
  if (request.dimension < 0 || request.dimension > 12) {
    reply.status = common::Status::error(
        common::strFormat("RunSystemPhases: bad dimension %d",
                          request.dimension));
    return;
  }
  if (request.phases < 0) {
    reply.status = common::Status::error("RunSystemPhases: negative phases");
    return;
  }
  reply.session = core.runSession(request.script);
  CompileOutcome compiled = core.compileProgram(core.editor().program());
  reply.generation = std::move(compiled.generation);
  reply.program = compiled.program;
  reply.verify = compiled.program != nullptr ? compiled.program->verify
                                             : nullptr;
  reply.stats.program_cache_hit = compiled.cache_hit;
  if (reply.generation.ok && admitCompiled(compiled.program, reply)) {
    sim::HypercubeSystem system = core.makeSystem(
        request.dimension, sim::SystemOptions{.router = request.router,
                                              .node_lanes =
                                                  request.node_lanes});
    system.loadAll(reply.program);
    for (int phase = 0; phase < request.phases && !reply.system.error;
         ++phase) {
      // Phase-synchronous SPMD: every node re-runs its program to halt;
      // the makespan accumulates max-over-nodes per phase.
      if (phase > 0) system.restartAll();
      system.runPhase(reply.system);
    }
    reply.stats.node_lanes = system.nodeLanes();
    reply.stats.nodes_batched = system.nodesBatched();
    reply.stats.nodes_scalar = system.nodesScalar();
  }
  reply.complete_ = reply.session.clean() && reply.generation.ok &&
                    !reply.system.error && !reply.rejected();
}

void WorkbenchService::serveOne(WorkbenchCore& core,
                                const OpenSession& request,
                                ServiceReply& reply) {
  // The core was constructed fresh at admission; an empty initial script
  // leaves it at the editor's initial state.
  if (!request.script.empty()) {
    reply.session = core.runSession(request.script);
  }
  reply.complete_ = reply.session.clean();
}

void WorkbenchService::serveOne(WorkbenchCore& core,
                                const SessionCommand& request,
                                ServiceReply& reply) {
  // No reset: the script continues where the session's previous request
  // left off, against the same editor documents and warm checker session.
  if (!request.script.empty()) {
    reply.session = core.runSession(request.script);
  }
  // Chaos hook: a mid-request fault *after* the script replay has mutated
  // the session — recovery must roll the core back to the last-good
  // snapshot, not retry against the half-applied state.
  injector_->maybeThrow(exec::FaultSite::kSession);
  for (const PlaneImage& input : request.inputs) {
    core.node().writePlane(input.plane, input.base, input.values);
  }
  bool ran_ok = true;
  if (request.run) {
    // Same compile -> verify-gate -> run split as GenerateAndRun, against
    // the session's persistent node.
    CompileOutcome compiled = core.compileProgram(core.editor().program());
    reply.generation = std::move(compiled.generation);
    reply.program = compiled.program;
    reply.verify = compiled.program != nullptr ? compiled.program->verify
                                               : nullptr;
    reply.stats.program_cache_hit = compiled.cache_hit;
    ran_ok = reply.generation.ok;
    if (reply.generation.ok && admitCompiled(compiled.program, reply)) {
      core.node().load(compiled.program);
      reply.run = core.node().run();
      ran_ok = !reply.run.error;
    }
  }
  reply.outputs.reserve(request.outputs.size());
  for (const PlaneRange& range : request.outputs) {
    reply.outputs.push_back(
        core.node().readPlane(range.plane, range.base, range.count));
  }
  reply.complete_ = reply.session.clean() && ran_ok && !reply.rejected();
}

}  // namespace nsc::svc
