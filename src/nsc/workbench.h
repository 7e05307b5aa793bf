// Workbench: the assembled visual programming environment of Figure 3 —
// graphical editor + checker + microcode generator — joined to the
// simulated NSC backend, so a program can go from diagrams to executed
// vectors in one object.  This is the library's top-level entry point.
//
// The workbench is split request-service style:
//
//   WorkbenchContext — the shared *immutable* half: machine model, the
//     execution pool, and the compiled-program cache.  One context serves
//     any number of concurrent consumers (the service layer's shards all
//     reference one).
//   WorkbenchCore — the cheap *mutable* half: one editor document set, a
//     persistent SessionRunner (keeps the editor's memoized checker
//     session warm across scripts), and one NodeSim.  A core is
//     single-consumer; reset() returns it to the freshly-constructed
//     state so independent requests replay against identical initial
//     conditions.
//   Workbench — context + one core in a single object: the original
//     in-process, one-user-at-a-Sun-3 API, unchanged.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/machine.h"
#include "common/json.h"
#include "common/status.h"
#include "editor/editor.h"
#include "editor/session.h"
#include "exec/thread_pool.h"
#include "microcode/generator.h"
#include "sim/batch.h"
#include "sim/hypercube.h"
#include "sim/node.h"
#include "sim/program_cache.h"

namespace nsc {

struct RunOutcome {
  mc::GenerateResult generation;
  sim::RunStats run;
  // The compiled image the run executed, as returned by the shared program
  // cache — pointer-equal across runs of the same program on the same
  // machine config.  `cache_hit` is true when the image was reused.
  std::shared_ptr<const sim::CompiledProgram> program;
  bool cache_hit = false;
  bool ok() const { return generation.ok && !run.error; }
};

// Generation plus the cached compiled image: the common front half of
// every execution path (single run, ensemble, system load).
struct CompileOutcome {
  mc::GenerateResult generation;
  std::shared_ptr<const sim::CompiledProgram> program;  // null if !ok
  bool cache_hit = false;
  bool ok() const { return generation.ok; }
};

// Knobs for an ensemble run.  `lanes` is the SoA batch width: 0 resolves
// the auto default (the NSC_ENSEMBLE_LANES environment variable, else 8),
// 1 runs one replica per ReplicaBatch, anything larger batches that many
// replicas per ReplicaBatch.  `init` (optional) seeds replica `i`'s memory
// through the ReplicaStore interface before it runs; it is invoked from
// pool threads (possibly concurrently for different replicas) and must be
// thread-safe.  Results are bit-identical at every width.
struct EnsembleOptions {
  int lanes = 0;
  std::function<void(int replica, sim::ReplicaStore&)> init;
};

// Result of an ensemble run: the (single, shared) generation plus one
// RunStats per replica — the microcode image is not duplicated per run.
struct EnsembleOutcome {
  mc::GenerateResult generation;
  std::shared_ptr<const sim::CompiledProgram> program;  // shared by replicas
  bool cache_hit = false;
  std::vector<sim::RunStats> runs;  // runs[i] belongs to replica i
  // How the replicas executed: the resolved SoA lane width, and how many
  // replicas finished in lockstep inside a ReplicaBatch vs counted scalar
  // (the replica of a width-1 batch, and lanes that left their batch after
  // divergence).
  int lanes_used = 1;
  int replicas_batched = 0;
  int replicas_scalar = 0;
  bool ok() const {
    if (!generation.ok) return false;
    for (const sim::RunStats& r : runs) {
      if (r.error) return false;
    }
    return true;
  }
};

// The shared immutable context every core (and service shard) references:
// the machine model plus the process-level execution resources.  `pool` and
// `cache` are borrowed when given, else the process-wide singletons.  A
// context must outlive every core built on it.
class WorkbenchContext {
 public:
  explicit WorkbenchContext(arch::MachineConfig config = {},
                            exec::ThreadPool* pool = nullptr,
                            sim::CompiledProgramCache* cache = nullptr)
      : machine_(config),
        pool_(pool != nullptr ? pool : &exec::ThreadPool::shared()),
        cache_(cache != nullptr ? cache : &sim::CompiledProgramCache::shared()) {}

  const arch::Machine& machine() const { return machine_; }
  exec::ThreadPool& pool() const { return *pool_; }
  sim::CompiledProgramCache& cache() const { return *cache_; }

 private:
  arch::Machine machine_;
  exec::ThreadPool* pool_;
  sim::CompiledProgramCache* cache_;
};

// The per-consumer mutable state: editor + persistent session runner +
// node simulator.  Cores are cheap; a service shard owns one and resets it
// between requests.
class WorkbenchCore {
 public:
  explicit WorkbenchCore(const WorkbenchContext& context);

  const WorkbenchContext& context() const { return context_; }
  ed::Editor& editor() { return *editor_; }
  const ed::Editor& editor() const { return *editor_; }
  sim::NodeSim& node() { return *node_; }
  const sim::NodeSim& node() const { return *node_; }

  // Replays a session script through the persistent SessionRunner, so
  // consecutive scripts against the same diagram reuse the editor's
  // memoized checker session (see editor/session.h).
  ed::SessionResult runSession(const std::string& script);

  // Generates microcode and resolves the compiled image through the shared
  // cache, without running anything — the front half runProgram /
  // runEnsemble / the service's system requests all share.  The image
  // carries its static-verification report (CompiledProgram::verify,
  // computed once at cache insert and pointer-shared by every holder);
  // error-severity verifier findings are appended to the generation
  // diagnostics so they surface in the editor's message strip.
  CompileOutcome compileProgram(const prog::Program& program);

  // Runs `replicas` independent copies of an already-compiled image on the
  // shared pool — the back half of runEnsemble, exposed so the service
  // layer can verify/gate between compile and run.  Replicas partition into
  // SoA ReplicaBatch groups of `options.lanes` width (see EnsembleOptions),
  // dispatched one pool task per batch; results are index-stable and
  // bit-identical to per-replica execution.
  struct ReplicaRunOutcome {
    std::vector<sim::RunStats> runs;
    int lanes_used = 1;
    int replicas_batched = 0;
    int replicas_scalar = 0;
  };
  ReplicaRunOutcome runReplicas(
      const std::shared_ptr<const sim::CompiledProgram>& program,
      int replicas, const EnsembleOptions& options);
  // Back-compat shorthand: default options, stats only.
  std::vector<sim::RunStats> runReplicas(
      const std::shared_ptr<const sim::CompiledProgram>& program,
      int replicas);

  // Generates microcode from the edited program, loads it, runs to halt.
  RunOutcome generateAndRun();

  // Runs an externally built semantic program instead of the editor's.
  // Compilation goes through the shared program cache, so repeated runs of
  // the same program (from this core or any other) lower it once.
  RunOutcome runProgram(const prog::Program& program);

  // Generates once, then runs `replicas` independent copies of the program
  // (parameter-ensemble style: same microcode, per-replica memory) as
  // submitted pool tasks, one per SoA batch.  runs[i] is replica i's stats,
  // deterministically; concurrent ensembles from different cores interleave
  // batch-by-batch on the shared pool.
  EnsembleOutcome runEnsemble(const prog::Program& program, int replicas,
                              const EnsembleOptions& options = {});

  // A multi-node system bound to this context's machine, pool, and
  // program cache.  The SystemOptions form exposes the SPMD lane width
  // (SystemOptions::node_lanes); the legacy form resolves it from the
  // environment like a default-constructed SystemOptions would.
  sim::HypercubeSystem makeSystem(int dimension, sim::SystemOptions options);
  sim::HypercubeSystem makeSystem(int dimension,
                                  sim::RouterOptions router = {},
                                  sim::NodeSim::Options node_options = {});

  // Returns the core to its freshly-constructed state (empty editor
  // documents, zeroed node memory, cold undo history).  Requests served
  // after a reset are bit-identical to requests served by a new core.
  void reset();

  // A cheap observable snapshot of the core's lifetime: how many times it
  // was reset, how many scripts it replayed, and the editor's cumulative
  // action/checker counters.  The service layer diffs two checkpoints
  // around a request to attribute per-request work — in particular
  // `editor.checker_session_hits`, the witness that a stateful session's
  // second command reused the still-warm memoized checker session instead
  // of re-running the checker.
  struct Checkpoint {
    std::uint64_t resets = 0;        // reset() calls (construction is one)
    std::uint64_t scripts_run = 0;   // runSession() calls since construction
    ed::EditorStats editor;          // cumulative editor counters
  };
  Checkpoint checkpoint() const;

  // ---- Durable session state ----
  //
  // serializeState() captures everything a later restoreState() needs to
  // resume the session on a *fresh* core, bit-identically:
  //
  //   * the session's script log — every runSession() script since the last
  //     reset, in order.  Editor state is restored by *replay* rather than
  //     by serializing editor data structures: PR 5's split-session parity
  //     guarantees replaying the same scripts reproduces the same editor
  //     (documents, undo history, memoized checker sessions) exactly.
  //   * the NodeSim durable snapshot (plane/cache memory, condition
  //     registers, sequencer position), with every double encoded as its
  //     16-hex-digit IEEE-754 bit pattern so the round trip is bit-exact —
  //     JSON decimal text is not.
  //   * the lifetime counters (resets, scripts_run), so checkpoint() diffs
  //     stay meaningful across a restore.
  //
  // The payload is a versioned common::Json document (kStateFormat /
  // kStateVersion); restoreState() rejects unknown formats and versions
  // with a descriptive error and leaves the core reset-but-usable on any
  // failure.  A session checkpointed mid-script-sequence and restored on a
  // fresh core replies to the remaining commands bit-identically to one
  // that never moved.
  static constexpr const char* kStateFormat = "nsc-session-checkpoint";
  static constexpr int kStateVersion = 1;
  common::Json serializeState() const;
  common::Status restoreState(const common::Json& state);

 private:
  const WorkbenchContext& context_;
  // optional<> so reset() can reconstruct in place: Editor, SessionRunner,
  // and NodeSim all hold references fixed at construction.
  std::optional<ed::Editor> editor_;
  std::optional<ed::SessionRunner> runner_;
  std::optional<sim::NodeSim> node_;
  std::uint64_t resets_ = 0;
  std::uint64_t scripts_run_ = 0;
  // Scripts replayed since the last reset, in order — the replay log that
  // serializeState() persists in place of the editor's internal state.
  std::vector<std::string> script_log_;
};

// The classic single-user workbench: owns a context and one core and
// forwards to them.
class Workbench {
 public:
  // `pool` is the execution pool every run this workbench drives shares
  // (ensemble runs, hypercube systems built via makeSystem); nullptr means
  // the process-wide exec::ThreadPool::shared().  Likewise `cache` for the
  // compiled-program cache.
  explicit Workbench(arch::MachineConfig config = {},
                     exec::ThreadPool* pool = nullptr,
                     sim::CompiledProgramCache* cache = nullptr)
      : context_(config, pool, cache), core_(context_) {}

  const arch::Machine& machine() const { return context_.machine(); }
  const WorkbenchContext& context() const { return context_; }
  WorkbenchCore& core() { return core_; }
  ed::Editor& editor() { return core_.editor(); }
  const ed::Editor& editor() const { return core_.editor(); }
  sim::NodeSim& node() { return core_.node(); }
  exec::ThreadPool& pool() const { return context_.pool(); }

  // Replays a session script into the editor (see editor/session.h) via
  // the core's persistent runner, keeping memoized checker sessions warm
  // across scripts.
  ed::SessionResult runSession(const std::string& script) {
    return core_.runSession(script);
  }

  RunOutcome generateAndRun() { return core_.generateAndRun(); }
  RunOutcome runProgram(const prog::Program& program) {
    return core_.runProgram(program);
  }
  EnsembleOutcome runEnsemble(const prog::Program& program, int replicas,
                              const EnsembleOptions& options = {}) {
    return core_.runEnsemble(program, replicas, options);
  }
  sim::HypercubeSystem makeSystem(int dimension, sim::SystemOptions options) {
    return core_.makeSystem(dimension, options);
  }
  sim::HypercubeSystem makeSystem(int dimension,
                                  sim::RouterOptions router = {},
                                  sim::NodeSim::Options node_options = {}) {
    return core_.makeSystem(dimension, router, node_options);
  }

 private:
  WorkbenchContext context_;
  WorkbenchCore core_;
};

// Builds an editor document from an existing semantic program, placing
// icons automatically on a grid (used to display generated or hand-built
// programs — e.g. the Figure 11 diagram — and by the visual debugger).
ed::Editor editorForProgram(const arch::Machine& machine,
                            const prog::Program& program);

}  // namespace nsc
