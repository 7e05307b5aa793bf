// WorkbenchService: the request-oriented serving layer over the workbench.
//
// The paper's environment is one user at a Sun-3 driving one editor and one
// simulated NSC.  This layer serves that workflow to many concurrent
// callers: requests arrive through a bounded admission queue and are
// dispatched across N workbench *shards*.  Each shard owns the cheap
// mutable half of a workbench (WorkbenchCore: editor + persistent
// SessionRunner + NodeSim) and processes one request at a time; all shards
// reference one shared immutable WorkbenchContext (machine model, the
// process execution pool, the compiled-program cache), so the expensive
// state — worker threads and lowered SPMD images — exists once no matter
// how many shards serve.
//
// Two request families ride the same queue:
//
//   Stateless (SubmitSession, GenerateAndRun, RunEnsemble,
//   RunSystemPhases): a shard resets its core before serving, so a reply
//   is bit-identical to running the same request on a fresh single-user
//   Workbench, regardless of shard count, submission order, queue
//   capacity, or NSC_THREADS (tests/test_service.cpp asserts this).  Only
//   the RequestStats timing fields are nondeterministic.
//
//   Stateful (OpenSession, SessionCommand, CloseSession): OpenSession
//   allocates a per-session WorkbenchCore in the SessionTable, pinned to
//   the least-loaded shard; every subsequent request for that session is
//   routed to the same shard (affinity), so the session's diagram state,
//   warm memoized checker session, and compiled-program handles survive
//   across requests.  A script split across N SessionCommands produces
//   bit-identical editor/run results to the same script submitted whole.
//   Idle sessions are evicted after ServiceOptions::session_ttl_us.
//
// Admission control (AdmissionPolicy, request_queue.h): per-request
// deadlines shed expired work before dispatch with a Rejected reply;
// priority classes serve interactive traffic ahead of batch (aging keeps
// batch starvation-free); shed-on-overload mode refuses batch work past a
// queue-depth watermark instead of blocking the producer.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "exec/fault_injection.h"
#include "nsc/workbench.h"
#include "service/checkpoint.h"
#include "service/request_queue.h"
#include "service/session_table.h"

namespace nsc::net {
// Wire codec (net/wire.h): needs to serialize ServiceReply::complete_ so a
// reply decoded client-side answers ok() exactly like the in-process one.
struct ReplyAccess;
}  // namespace nsc::net

namespace nsc::svc {

// ---------------------------------------------------------------------------
// Typed requests.
// ---------------------------------------------------------------------------

// Replay a session script through a shard's editor and return the replay
// record (commands, refusals, message log) without executing anything.
struct SubmitSession {
  std::string script;
};

// A host-side write into a node memory plane before execution (problem
// data), and a read-back range after execution (result vectors).
struct PlaneImage {
  arch::PlaneId plane = 0;
  std::uint64_t base = 0;
  std::vector<double> values;
};
struct PlaneRange {
  arch::PlaneId plane = 0;
  std::uint64_t base = 0;
  std::uint64_t count = 0;
};

// Replay a script, deposit `inputs`, generate microcode, run to halt on the
// shard's node, and read back `outputs`.
struct GenerateAndRun {
  std::string script;
  std::vector<PlaneImage> inputs;
  std::vector<PlaneRange> outputs;
};

// Replay a script, generate once, and run `replicas` independent copies of
// the program on the shared pool (one compiled image, per-replica memory).
struct RunEnsemble {
  std::string script;
  int replicas = 1;
  // SoA lane width for the batched ensemble engine: 0 = auto
  // (NSC_ENSEMBLE_LANES, else the built-in default), 1 = one replica per
  // batch (see EnsembleOptions::lanes).
  int lanes = 0;
};

// Replay a script, load the generated executable SPMD on a 2^dimension-node
// hypercube bound to the shared pool, and run `phases` compute phases.
struct RunSystemPhases {
  std::string script;
  int dimension = 2;
  int phases = 1;
  sim::RouterOptions router{};
  // SPMD lane width for the system's compute phases (see
  // sim::SystemOptions::node_lanes): 0 resolves via NSC_NODE_LANES, 1
  // runs one node per lane group.  Replies are bit-identical across
  // widths; only RequestStats engine counters differ.
  int node_lanes = 0;
};

// Open a stateful session: allocates a dedicated WorkbenchCore pinned to a
// shard and optionally replays an initial script into it.  The reply's
// stats.session carries the new session id.
struct OpenSession {
  std::string script;  // initial script; empty is fine
};

// One command batch against a live session: replays `script` against the
// session's *persistent* editor (no reset — state accumulates), then
// optionally deposits inputs, generates + runs to halt, and reads back
// outputs, exactly like GenerateAndRun but on the session's node.
struct SessionCommand {
  std::uint64_t session = 0;
  std::string script;
  bool run = false;
  std::vector<PlaneImage> inputs;
  std::vector<PlaneRange> outputs;
};

// Close a stateful session, destroying its core.
struct CloseSession {
  std::uint64_t session = 0;
};

using Request =
    std::variant<SubmitSession, GenerateAndRun, RunEnsemble, RunSystemPhases,
                 OpenSession, SessionCommand, CloseSession>;

// Per-request admission parameters.
struct Admission {
  // nullopt = by request type: session/editor traffic (SubmitSession,
  // GenerateAndRun, Open/SessionCommand/CloseSession) is interactive,
  // RunEnsemble / RunSystemPhases are batch.
  std::optional<Priority> priority;
  // Dispatch deadline relative to admission, in microseconds.  0 = none.
  // A request still queued past its deadline is shed with a Rejected reply
  // instead of executing; a negative value is already expired (rejected at
  // dispatch without running — the admission-control contract tests use
  // this).
  std::int64_t deadline_us = 0;
};

// ---------------------------------------------------------------------------
// Replies and stats.
// ---------------------------------------------------------------------------

// Why a request was refused without executing.
enum class Reject {
  kNone = 0,
  kDeadline,        // still queued past its deadline; shed before dispatch
  kOverload,        // shed at admission by the overload watermark
  kUnknownSession,  // no live session with that id (never opened / closed /
                    // idle-evicted)
  kSessionLimit,    // ServiceOptions::max_sessions live sessions already
  kInvalidProgram,  // static verification proved the compiled program
                    // faults or is hardware-infeasible; never dispatched to
                    // an engine (reply.verify carries the diagnostics)
  kInternal,        // dispatch raised an exception and recovery (if
                    // configured) could not produce a trustworthy reply;
                    // the request still settles — exceptions never kill
                    // a shard thread or leave a caller unanswered
};

struct RequestStats {
  int shard = -1;               // shard that served the request
  std::uint64_t sequence = 0;   // admission order (0-based)
  std::uint64_t shard_sequence = 0;  // dispatch order on that shard (0-based)
  Priority priority = Priority::kInteractive;  // class it was admitted at
  std::int64_t queue_us = 0;    // admission -> dispatch wait
  std::int64_t run_us = 0;      // dispatch -> reply
  bool program_cache_hit = false;  // compiled image reused from the cache
  std::size_t pool_queue_depth = 0;  // exec pool backlog at dispatch
  std::uint64_t session = 0;    // session id (stateful requests only)
  // Checker queries this request answered from the editor's still-warm
  // memoized checker session — the witness that a SessionCommand reused
  // state a previous request built, instead of re-running the checker.
  std::uint64_t checker_session_hits = 0;
  // RunEnsemble only: the resolved SoA lane width, and how the replicas
  // split between batched (lockstep inside a ReplicaBatch) and scalar
  // (width-1 batches + lanes that left their batch after divergence).
  int ensemble_lanes = 0;
  int replicas_batched = 0;
  int replicas_scalar = 0;
  // RunSystemPhases only: the resolved SPMD node-lane width, and how many
  // node-phase executions ran batched (SoA lane groups) vs scalar (every
  // node of a width-1 system, or nodes that diverged / retired mid-phase),
  // summed over the request's compute phases.
  int node_lanes = 0;
  std::uint64_t nodes_batched = 0;
  std::uint64_t nodes_scalar = 0;
  // Durability: how many dispatch attempts faulted and were retried from
  // the session's last-good snapshot before this reply, and whether the
  // session's core was restored from an on-disk checkpoint to serve it.
  int retries = 0;
  bool restored_from_disk = false;
  Reject rejected = Reject::kNone;
};

struct ServiceReply {
  // Service-level failure (service stopped before admission, or the
  // request was shed/rejected — see stats.rejected).  Script- and
  // program-level problems surface through `session` / `generation` /
  // the run stats instead, exactly as on a single-user Workbench.
  common::Status status = common::Status::ok();
  ed::SessionResult session;     // every script-carrying request replays one
  mc::GenerateResult generation; // GenerateAndRun / RunEnsemble / SystemPhases
  sim::RunStats run;             // GenerateAndRun / SessionCommand{run}
  std::vector<sim::RunStats> ensemble;  // RunEnsemble, one per replica
  sim::SystemStats system;       // RunSystemPhases
  std::vector<std::vector<double>> outputs;  // plane read-backs
  // The compiled image the request executed (empty for SubmitSession and
  // failed generations).  Pointer-equal across requests that ran the same
  // program on the same machine config — the cache-sharing witness.
  std::shared_ptr<const sim::CompiledProgram> program;
  // The image's static-verification report (pointer-equal to
  // program->verify, and across shards serving the same program).  Set
  // whenever a program compiled — including rejections, where it carries
  // the diagnostics that justified Reject::kInvalidProgram.
  std::shared_ptr<const sim::VerifyReport> verify;
  RequestStats stats;

  // True when the request was refused by admission control (deadline,
  // overload shed, unknown session, session limit) without executing.
  bool rejected() const { return stats.rejected != Reject::kNone; }

  // True when the request did everything it was asked without refusals,
  // generation diagnostics, or run errors.
  bool ok() const { return status.isOk() && complete_; }

 private:
  friend class WorkbenchService;
  friend struct nsc::net::ReplyAccess;
  bool complete_ = false;
};

// Receives one request's reply.  The service runs it exactly once per
// submit(), on whichever thread settles the request: a shard thread, the
// submitting thread for an admission-time refusal, or the thread inside
// stop().  A shard serves nothing else while it runs, so it should be
// brief; anything it throws stops at the service and is counted in
// AdmissionStats::callbacks_failed.
using ReplyCallback = std::function<void(ServiceReply)>;

// Per-shard serving counters (monotonic over the service lifetime).
struct ShardStats {
  std::uint64_t requests = 0;
  std::uint64_t failures = 0;       // replies with ok() == false
  std::uint64_t cache_hits = 0;     // compiled-program cache hits
  std::int64_t busy_us = 0;         // total time spent serving
  std::uint64_t shed_deadline = 0;  // popped jobs rejected: expired deadline
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_closed = 0;
  std::uint64_t sessions_evicted = 0;   // idle past session_ttl_us (spilled
                                        // or destroyed)
  std::uint64_t session_commands = 0;   // requests served on a live session
  std::uint64_t checker_session_hits = 0;  // warm checker reuse, summed
  // ---- Durability & failure isolation ----
  std::uint64_t dispatch_faults = 0;     // exceptions caught during dispatch
  std::uint64_t faults_recovered = 0;    // requests retried to success
  std::uint64_t internal_rejects = 0;    // Reject::kInternal replies
  std::uint64_t cores_rebuilt = 0;       // suspect cores quarantined and
                                         // rebuilt from a last-good snapshot
  std::uint64_t sessions_quarantined = 0;  // destroyed: repeated faults or
                                           // no usable snapshot
  std::uint64_t sessions_spilled = 0;    // checkpointed to disk and dropped
  std::uint64_t spill_failures = 0;      // spill aborted (torn/corrupt/io),
                                         // session kept resident
  std::uint64_t sessions_restored = 0;   // restored from disk on claim
  std::uint64_t restore_failures = 0;    // checkpoint unusable at claim
};

// Service-wide admission counters (what never reached a shard).
struct AdmissionStats {
  std::uint64_t submitted = 0;       // submit() calls
  std::uint64_t admitted = 0;        // entered the queue
  std::uint64_t shed_overload = 0;   // batch work refused at the watermark
  std::uint64_t rejected_session = 0;  // unknown session / session limit
  // Programs refused by the static-verification gate (Reject::kInvalidProgram)
  // after compiling but before any engine dispatch.
  std::uint64_t rejected_program = 0;
  // Reply callbacks that threw.  The exception stops at the service so the
  // settling thread survives; that caller's reply is lost.
  std::uint64_t callbacks_failed = 0;
};

// Durable-session and failure-recovery knobs.  Both default off: with the
// defaults the service behaves exactly as before (idle sessions are
// destroyed, dispatch exceptions become error replies) and the hot path
// pays nothing.
struct DurabilityOptions {
  // Non-empty enables evict-to-disk: the idle sweep (and graceful stop())
  // *spills* sessions to verified checkpoint files in this directory
  // instead of destroying them; the next command transparently restores
  // the session — possibly onto a different, less-loaded shard — and a
  // restarted service adopts the directory's checkpoints wholesale.
  std::string checkpoint_dir;
  // Enables last-good snapshots + rebuild/retry: a dispatch exception on a
  // session request quarantines the suspect core, rebuilds it from the
  // snapshot taken after the session's last successful request, and
  // retries; the retried reply is bit-identical to a fault-free run.
  bool recover = false;
  // Faulted-request retry budget (attempts beyond the first).
  int max_retries = 1;
  // Consecutive faults on one session before it is destroyed outright.
  int quarantine_after = 3;
};

struct ServiceOptions {
  int shards = 4;
  std::size_t queue_capacity = 64;  // bounded admission (backpressure)
  AdmissionPolicy admission{};      // overload mode, watermark, aging
  // Stateful sessions: idle eviction TTL (0 = never evict; sweeps run on
  // the owning shard between requests) and the live-session cap.
  std::int64_t session_ttl_us = 0;
  std::size_t max_sessions = 256;
  DurabilityOptions durability{};
  // Fault-injection hooks for the chaos harness (tests/test_chaos.cpp);
  // null uses the process-wide injector, which is inert unless the
  // NSC_FAULTS environment variable configured it.
  exec::FaultInjector* injector = nullptr;
  // When false, the constructor admits but does not serve until start() —
  // lets tests and warm-up code stage a queue deterministically.
  bool start = true;
  arch::MachineConfig machine{};
  exec::ThreadPool* pool = nullptr;           // null -> process shared pool
  sim::CompiledProgramCache* cache = nullptr; // null -> process shared cache
};

// ---------------------------------------------------------------------------
// The service.
// ---------------------------------------------------------------------------

class WorkbenchService {
 public:
  explicit WorkbenchService(ServiceOptions options = {});
  ~WorkbenchService();  // stop(): drains admitted requests, joins shards
  WorkbenchService(const WorkbenchService&) = delete;
  WorkbenchService& operator=(const WorkbenchService&) = delete;

  // Launches the shard threads.  Idempotent; the constructor calls it
  // unless ServiceOptions::start is false.
  void start();

  // Admits a request; blocks while the queue is full (backpressure),
  // except batch-class work past the shed watermark in kShed mode, which
  // is refused at once with a Rejected reply.  `done` receives the reply
  // when a shard has served (or shed) the request; a refusal at admission
  // (and any submit after stop(), whose reply status is an error) runs it
  // before submit() returns.  An empty `done` discards the reply.
  void submit(Request request, Admission admission, ReplyCallback done);

  // The same, with the reply delivered through a future.
  std::future<ServiceReply> submit(Request request, Admission admission = {});

  // Closes admission, serves everything already admitted, joins the shard
  // threads, settles any job the shards never popped (a never-start()ed
  // service leaves affinity-pinned jobs in the queue) with an error reply
  // — no request is ever left unanswered — and, when evict-to-disk is on,
  // flushes every open session to its checkpoint file.  Idempotent; the
  // destructor calls it.
  void stop();

  int shards() const { return static_cast<int>(shards_.size()); }
  const WorkbenchContext& context() const { return context_; }

  // Queue saturation: current depth and lifetime high-water mark.
  std::size_t queueDepth() const { return queue_.depth(); }
  std::size_t peakQueueDepth() const { return queue_.peakDepth(); }

  ShardStats shardStats(int shard) const;
  AdmissionStats admissionStats() const;
  std::size_t sessionCount() const { return sessions_.size(); }

 private:
  struct Job {
    Request request;
    ReplyCallback done;
    std::uint64_t sequence = 0;
    Priority priority = Priority::kInteractive;
    std::int64_t admitted_us = 0;  // steady-clock stamp at admission
    std::int64_t deadline_us = 0;  // relative to admitted_us; 0 = none
    std::uint64_t session = 0;     // stateful requests only
  };

  struct Shard {
    explicit Shard(const WorkbenchContext& context) : core(context) {}
    WorkbenchCore core;
    std::thread thread;
    mutable std::mutex mu;
    ShardStats stats;
  };

  void shardLoop(int shard_index);
  // serve() wrapped in the failure-isolation loop: an exception during
  // dispatch is caught, counted, and — when DurabilityOptions::recover is
  // on — the session core is rebuilt from its last-good snapshot and the
  // request retried under FaultInjector::Suppress.  When recovery is off
  // or exhausted, the reply is a structured Reject::kInternal; the shard
  // thread and the caller's future always survive.
  ServiceReply serveWithRecovery(Shard& shard, int shard_index, Job& job);
  // True when `job` is still within its dispatch deadline.
  static bool withinDeadline(const Job& job, std::int64_t now_us);
  // The verification gate every execute path passes after compiling:
  // returns true when the program's report is clean (admit), else stamps
  // the reply with Reject::kInvalidProgram + the report and returns false.
  bool admitCompiled(const std::shared_ptr<const sim::CompiledProgram>& program,
                     ServiceReply& reply);
  // Runs a job's callback: the one place a reply leaves the service.
  void settle(const ReplyCallback& done, ServiceReply reply);
  ServiceReply serve(Shard& shard, int shard_index, Job& job);
  void serveOne(WorkbenchCore& core, const SubmitSession& request,
                ServiceReply& reply);
  void serveOne(WorkbenchCore& core, const GenerateAndRun& request,
                ServiceReply& reply);
  void serveOne(WorkbenchCore& core, const RunEnsemble& request,
                ServiceReply& reply);
  void serveOne(WorkbenchCore& core, const RunSystemPhases& request,
                ServiceReply& reply);
  void serveOne(WorkbenchCore& core, const OpenSession& request,
                ServiceReply& reply);
  void serveOne(WorkbenchCore& core, const SessionCommand& request,
                ServiceReply& reply);

  const ServiceOptions options_;
  WorkbenchContext context_;
  exec::FaultInjector* injector_;          // never null (global() fallback)
  std::unique_ptr<CheckpointStore> store_; // null unless checkpoint_dir set
  SessionTable sessions_;
  BoundedQueue<Job> queue_;
  std::atomic<std::uint64_t> next_sequence_{0};
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> shed_overload_{0};
  std::atomic<std::uint64_t> rejected_session_{0};
  std::atomic<std::uint64_t> rejected_program_{0};
  std::atomic<std::uint64_t> callbacks_failed_{0};
  std::mutex start_mu_;  // serializes start() and the join phase of stop()
  bool started_ = false;

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace nsc::svc
