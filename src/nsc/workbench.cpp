#include "nsc/workbench.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <future>

#include "common/strings.h"
#include "sim/verify.h"

namespace nsc {

namespace {

// Bit-exact double <-> text: every word is its 16-hex-digit IEEE-754 bit
// pattern.  JSON decimal text does not round-trip doubles exactly; this
// does, which is what makes checkpoint/restore bit-identical.
void appendWordHex(std::string& out, double word) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(word));
  std::memcpy(&bits, &word, sizeof(bits));
  static constexpr char kDigits[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out.push_back(kDigits[(bits >> static_cast<unsigned>(shift)) & 0xfULL]);
  }
}

std::string encodeWords(const std::vector<double>& words) {
  std::string out;
  out.reserve(words.size() * 16);
  for (const double w : words) appendWordHex(out, w);
  return out;
}

bool decodeWords(const std::string& hex, std::vector<double>& out) {
  if (hex.size() % 16 != 0) return false;
  out.clear();
  out.reserve(hex.size() / 16);
  for (std::size_t i = 0; i < hex.size(); i += 16) {
    std::uint64_t bits = 0;
    for (std::size_t j = 0; j < 16; ++j) {
      const char c = hex[i + j];
      std::uint64_t digit = 0;
      if (c >= '0' && c <= '9') {
        digit = static_cast<std::uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<std::uint64_t>(10 + (c - 'a'));
      } else {
        return false;
      }
      bits = (bits << 4) | digit;
    }
    double word = 0.0;
    std::memcpy(&word, &bits, sizeof(word));
    out.push_back(word);
  }
  return true;
}

// True when every word is bit-pattern zero (+0.0; -0.0 and denormals count
// as data).  Freshly-constructed cache buffers are all +0.0, so buffers
// that still look fresh are omitted from the payload.
bool allZeroBits(const std::vector<double>& words) {
  for (const double w : words) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &w, sizeof(bits));
    if (bits != 0) return false;
  }
  return true;
}

}  // namespace

WorkbenchCore::WorkbenchCore(const WorkbenchContext& context)
    : context_(context) {
  reset();
}

void WorkbenchCore::reset() {
  // Order matters: the runner holds a reference to the editor, so it is
  // re-bound after the editor is reconstructed.
  editor_.emplace(context_.machine());
  runner_.emplace(*editor_);
  node_.emplace(context_.machine());
  script_log_.clear();
  ++resets_;
}

ed::SessionResult WorkbenchCore::runSession(const std::string& script) {
  ++scripts_run_;
  script_log_.push_back(script);
  return runner_->runScript(script);
}

common::Json WorkbenchCore::serializeState() const {
  common::JsonObject root;
  root["format"] = common::Json(kStateFormat);
  root["version"] = common::Json(kStateVersion);
  root["resets"] = common::Json(resets_);
  root["scripts_run"] = common::Json(scripts_run_);

  common::JsonArray scripts;
  scripts.reserve(script_log_.size());
  for (const std::string& script : script_log_) {
    scripts.emplace_back(script);
  }
  root["scripts"] = common::Json(std::move(scripts));

  const sim::NodeSim::Snapshot snap = node_->snapshot();
  common::JsonObject node;
  node["pc"] = common::Json(snap.pc);
  node["halted"] = common::Json(snap.halted);
  common::JsonArray cond;
  cond.reserve(snap.cond_regs.size());
  for (const bool b : snap.cond_regs) cond.emplace_back(b);
  node["cond"] = common::Json(std::move(cond));
  // Planes allocate on first touch, so untouched planes are empty vectors
  // and omitted; allocated planes are stored whole (including trailing
  // zeros) so the restored backing-store sizes match exactly.
  common::JsonArray planes;
  for (std::size_t p = 0; p < snap.planes.size(); ++p) {
    if (snap.planes[p].empty()) continue;
    common::JsonObject entry;
    entry["plane"] = common::Json(static_cast<std::uint64_t>(p));
    entry["words"] = common::Json(encodeWords(snap.planes[p]));
    planes.emplace_back(std::move(entry));
  }
  node["planes"] = common::Json(std::move(planes));
  // Cache buffers are fixed-size and zero-filled at construction; only
  // buffers holding data are stored.
  common::JsonArray caches;
  for (std::size_t c = 0; c < snap.caches.size(); ++c) {
    for (std::size_t b = 0; b < snap.caches[c].size(); ++b) {
      if (allZeroBits(snap.caches[c][b])) continue;
      common::JsonObject entry;
      entry["cache"] = common::Json(static_cast<std::uint64_t>(c));
      entry["buffer"] = common::Json(static_cast<std::uint64_t>(b));
      entry["words"] = common::Json(encodeWords(snap.caches[c][b]));
      caches.emplace_back(std::move(entry));
    }
  }
  node["caches"] = common::Json(std::move(caches));
  root["node"] = common::Json(std::move(node));
  return common::Json(std::move(root));
}

common::Status WorkbenchCore::restoreState(const common::Json& state) {
  using common::strFormat;
  // Validate the envelope before touching any state, so a wrong-version
  // payload leaves the core exactly as it was.
  if (!state.isObject()) {
    return common::Status::error("checkpoint: payload is not an object");
  }
  if (state.getString("format") != kStateFormat) {
    return common::Status::error(strFormat(
        "checkpoint: unsupported format '%s' (expected '%s')",
        state.getString("format").c_str(), kStateFormat));
  }
  if (state.getInt("version", -1) != kStateVersion) {
    return common::Status::error(strFormat(
        "checkpoint: unsupported version %lld (this build reads version %d)",
        static_cast<long long>(state.getInt("version", -1)), kStateVersion));
  }
  if (!state.has("scripts") || !state.at("scripts").isArray() ||
      !state.has("node") || !state.at("node").isObject()) {
    return common::Status::error("checkpoint: missing scripts/node sections");
  }
  for (const common::Json& script : state.at("scripts").asArray()) {
    if (!script.isString()) {
      return common::Status::error("checkpoint: script entry is not a string");
    }
  }

  // From here on the core is mutated; any failure resets it back to the
  // freshly-constructed state so it stays usable (just empty).
  reset();
  const auto fail = [this](std::string message) {
    reset();
    return common::Status::error(std::move(message));
  };

  // Editor state restores by replay: PR 5's split-session parity makes the
  // replayed editor (documents, undo history, warm checker sessions)
  // bit-identical to the one that was checkpointed.
  for (const common::Json& script : state.at("scripts").asArray()) {
    runSession(script.asString());
  }

  // Node memory restores by direct image adoption, starting from the fresh
  // node's snapshot so every shape matches this machine config.
  sim::NodeSim::Snapshot snap = node_->snapshot();
  const common::Json& node = state.at("node");
  snap.pc = static_cast<int>(node.getInt("pc", 0));
  snap.halted = node.getBool("halted", false);
  if (node.has("cond")) {
    const common::JsonArray& cond = node.at("cond").asArray();
    if (cond.size() != snap.cond_regs.size()) {
      return fail("checkpoint: condition-register count mismatch");
    }
    for (std::size_t i = 0; i < cond.size(); ++i) {
      if (!cond[i].isBool()) {
        return fail("checkpoint: condition register is not a bool");
      }
      snap.cond_regs[i] = cond[i].asBool();
    }
  }
  if (node.has("planes")) {
    for (const common::Json& entry : node.at("planes").asArray()) {
      const std::int64_t plane = entry.getInt("plane", -1);
      if (plane < 0 || plane >= static_cast<std::int64_t>(snap.planes.size())) {
        return fail(strFormat("checkpoint: plane %lld out of range",
                              static_cast<long long>(plane)));
      }
      if (!decodeWords(entry.getString("words"),
                       snap.planes[static_cast<std::size_t>(plane)])) {
        return fail(strFormat("checkpoint: plane %lld has malformed words",
                              static_cast<long long>(plane)));
      }
    }
  }
  if (node.has("caches")) {
    for (const common::Json& entry : node.at("caches").asArray()) {
      const std::int64_t cache = entry.getInt("cache", -1);
      const std::int64_t buffer = entry.getInt("buffer", -1);
      if (cache < 0 || cache >= static_cast<std::int64_t>(snap.caches.size())) {
        return fail(strFormat("checkpoint: cache %lld out of range",
                              static_cast<long long>(cache)));
      }
      auto& buffers = snap.caches[static_cast<std::size_t>(cache)];
      if (buffer < 0 || buffer >= static_cast<std::int64_t>(buffers.size())) {
        return fail(strFormat("checkpoint: cache buffer %lld out of range",
                              static_cast<long long>(buffer)));
      }
      auto& words = buffers[static_cast<std::size_t>(buffer)];
      const std::size_t expected = words.size();
      if (!decodeWords(entry.getString("words"), words) ||
          words.size() != expected) {
        return fail(strFormat("checkpoint: cache %lld/%lld has malformed words",
                              static_cast<long long>(cache),
                              static_cast<long long>(buffer)));
      }
    }
  }
  node_->restoreSnapshot(std::move(snap));

  // Lifetime counters carry over so checkpoint() diffs stay continuous
  // across the migration (the replay above bumped them; overwrite with the
  // source core's values).
  resets_ = static_cast<std::uint64_t>(state.getInt("resets", 1));
  scripts_run_ =
      static_cast<std::uint64_t>(state.getInt("scripts_run",
                                              static_cast<std::int64_t>(
                                                  script_log_.size())));
  return common::Status::ok();
}

WorkbenchCore::Checkpoint WorkbenchCore::checkpoint() const {
  Checkpoint checkpoint;
  checkpoint.resets = resets_;
  checkpoint.scripts_run = scripts_run_;
  checkpoint.editor = editor_->stats();
  return checkpoint;
}

RunOutcome WorkbenchCore::generateAndRun() {
  return runProgram(editor_->program());
}

CompileOutcome WorkbenchCore::compileProgram(const prog::Program& program) {
  CompileOutcome outcome;
  mc::Generator generator(context_.machine());
  outcome.generation = generator.generate(program);
  if (!outcome.generation.ok) return outcome;
  outcome.program = context_.cache().get(context_.machine(),
                                         outcome.generation.exe,
                                         &outcome.cache_hit);
  // Surface verifier errors next to the generator's own diagnostics (the
  // report itself rides outcome.program->verify).  Warnings stay in the
  // report only; generation.ok is untouched — execution still runs and
  // faults exactly as it always did, the service layer is what gates.
  if (outcome.program != nullptr && outcome.program->verify != nullptr &&
      !outcome.program->verify->clean()) {
    const check::DiagnosticList bridged =
        outcome.program->verify->toDiagnostics();
    for (const check::Diagnostic& d : bridged.all()) {
      if (d.severity == check::Severity::kError) {
        outcome.generation.diagnostics.add(d.rule, d.severity, d.message,
                                           d.pipeline);
      }
    }
  }
  return outcome;
}

RunOutcome WorkbenchCore::runProgram(const prog::Program& program) {
  RunOutcome outcome;
  CompileOutcome compiled = compileProgram(program);
  outcome.generation = std::move(compiled.generation);
  outcome.program = std::move(compiled.program);
  outcome.cache_hit = compiled.cache_hit;
  if (!outcome.generation.ok) return outcome;
  node_->load(outcome.program);
  outcome.run = node_->run();
  return outcome;
}

EnsembleOutcome WorkbenchCore::runEnsemble(const prog::Program& program,
                                           int replicas,
                                           const EnsembleOptions& options) {
  EnsembleOutcome outcome;
  CompileOutcome compiled_outcome = compileProgram(program);
  outcome.generation = std::move(compiled_outcome.generation);
  outcome.program = std::move(compiled_outcome.program);
  outcome.cache_hit = compiled_outcome.cache_hit;
  if (!outcome.generation.ok) return outcome;
  ReplicaRunOutcome replicas_outcome =
      runReplicas(outcome.program, replicas, options);
  outcome.runs = std::move(replicas_outcome.runs);
  outcome.lanes_used = replicas_outcome.lanes_used;
  outcome.replicas_batched = replicas_outcome.replicas_batched;
  outcome.replicas_scalar = replicas_outcome.replicas_scalar;
  return outcome;
}

std::vector<sim::RunStats> WorkbenchCore::runReplicas(
    const std::shared_ptr<const sim::CompiledProgram>& program,
    int replicas) {
  return runReplicas(program, replicas, EnsembleOptions{}).runs;
}

WorkbenchCore::ReplicaRunOutcome WorkbenchCore::runReplicas(
    const std::shared_ptr<const sim::CompiledProgram>& program, int replicas,
    const EnsembleOptions& options) {
  ReplicaRunOutcome outcome;
  if (program == nullptr || replicas <= 0) return outcome;
  const int lanes = sim::resolveEnsembleLanes(options.lanes);
  outcome.lanes_used = lanes;
  // One compiled image shared by every replica (and, through the cache, by
  // every other consumer of the same program); the pool only simulates.
  std::vector<sim::RunStats>& runs = outcome.runs;
  runs.resize(static_cast<std::size_t>(replicas));
  // Replicas partition into contiguous SoA batches of `lanes` width, each
  // an independent submitted task rather than one parallelFor job:
  // concurrent ensembles from different cores (service shards) then
  // interleave batch-by-batch instead of serializing on the pool's
  // one-job-at-a-time range path.  Each result lands in its own slot, so
  // scheduling order cannot affect the outcome.  A width-1 batch (a
  // remainder, or lanes == 1) runs its replica on its own and counts it
  // scalar.
  std::atomic<int> scalar_replicas{0};
  std::vector<std::future<void>> pending;
  pending.reserve((runs.size() + static_cast<std::size_t>(lanes) - 1) /
                  static_cast<std::size_t>(lanes));
  for (int base = 0; base < replicas; base += lanes) {
    const int width = std::min(lanes, replicas - base);
    pending.push_back(context_.pool().submit(
        [this, &runs, &program, &options, base, width, &scalar_replicas] {
          sim::ReplicaBatch batch(context_.machine(), width);
          batch.load(program);
          if (options.init) {
            for (int w = 0; w < width; ++w) {
              sim::ReplicaBatch::LaneStore store(batch, w);
              options.init(base + w, store);
            }
          }
          sim::BatchRunResult result = batch.run();
          for (int w = 0; w < width; ++w) {
            runs[static_cast<std::size_t>(base + w)] =
                std::move(result.runs[static_cast<std::size_t>(w)]);
          }
          scalar_replicas.fetch_add(width == 1 ? 1 : result.drained_scalar,
                                    std::memory_order_relaxed);
        }));
  }
  // The caller participates instead of idling: drain queued pool tasks
  // (this ensemble's batches, or anyone else's work) until the queue is
  // empty, then settle the futures.  Every task references
  // `runs`/`program`, so all futures must settle before this frame can
  // unwind — collect the first failure and rethrow only after the whole
  // ensemble has drained.
  while (context_.pool().tryRunOneTask()) {
  }
  std::exception_ptr error;
  for (std::future<void>& f : pending) {
    try {
      f.get();
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
  outcome.replicas_scalar = scalar_replicas.load(std::memory_order_relaxed);
  outcome.replicas_batched = replicas - outcome.replicas_scalar;
  return outcome;
}

sim::HypercubeSystem WorkbenchCore::makeSystem(int dimension,
                                               sim::SystemOptions options) {
  return sim::HypercubeSystem(context_.machine(), dimension, options,
                              &context_.pool(), &context_.cache());
}

sim::HypercubeSystem WorkbenchCore::makeSystem(
    int dimension, sim::RouterOptions router,
    sim::NodeSim::Options node_options) {
  return makeSystem(dimension,
                    sim::SystemOptions{.router = router, .node = node_options});
}

ed::Editor editorForProgram(const arch::Machine& machine,
                            const prog::Program& program) {
  ed::Editor editor(machine);
  bool first = true;
  for (const prog::PipelineDiagram& diagram : program.pipelines) {
    if (first) {
      editor.renamePipeline(diagram.name);
      first = false;
    } else {
      editor.insertPipeline(diagram.name);
    }
    // Grid placement: two columns inside the drawing area.
    const ed::WindowLayout& layout = editor.layout();
    int col = 0, row = 0;
    for (const prog::AlsUse& use : diagram.als_uses) {
      const arch::AlsKind kind = machine.als(use.als).kind;
      ed::IconKind icon = ed::IconKind::kSinglet;
      if (kind == arch::AlsKind::kDoublet) {
        icon = use.bypass ? ed::IconKind::kDoubletBypass : ed::IconKind::kDoublet;
      } else if (kind == arch::AlsKind::kTriplet) {
        icon = ed::IconKind::kTriplet;
      }
      const ed::Point pos{layout.drawing.x + 30 + col * 190,
                          layout.drawing.y + 30 + row * 210};
      editor.placeIcon(icon, use.als, pos);
      if (++col == 4) {
        col = 0;
        ++row;
      }
    }
    // Copy the full semantic state (ops, DMA, connections) and rebuild the
    // wires: re-apply connections through the editor for wire geometry,
    // then overwrite the semantic record wholesale so register-file
    // details match exactly.
    for (const prog::Connection& c : diagram.connections) {
      editor.connect(c.from, c.to);
    }
    editor.overwriteSemantic(diagram);
  }
  editor.jumpTo(0);
  return editor;
}

}  // namespace nsc
