// ReplicaBatch: lockstep lanes over one LaneState, with per-lane
// retirement into NodeSims where the sequencer's branches disagree.
#include "sim/batch.h"

#include <algorithm>

#include "common/env.h"

namespace nsc::sim {

namespace {

int resolveLanes(int requested, const char* env_var, int fallback) {
  if (requested > 0) return std::min(requested, kMaxLanes);
  // Strict parse (common/env.h): non-numeric, negative, zero, or overflowed
  // values warn once and fall back to the default instead of silently
  // running a different experiment.
  if (const std::optional<long long> v =
          common::envInt(env_var, 1, kMaxLanes)) {
    return static_cast<int>(*v);
  }
  return fallback;
}

}  // namespace

int resolveEnsembleLanes(int requested) {
  return resolveLanes(requested, "NSC_ENSEMBLE_LANES", kDefaultEnsembleLanes);
}

int resolveNodeLanes(int requested) {
  return resolveLanes(requested, "NSC_NODE_LANES", kDefaultNodeLanes);
}

ReplicaBatch::ReplicaBatch(const arch::Machine& machine, int lanes,
                           NodeSim::Options options)
    : options_(options), state_(machine, lanes) {
  retired_.resize(static_cast<std::size_t>(state_.lanes()));
}

void ReplicaBatch::load(std::shared_ptr<const CompiledProgram> program) {
  program_ = std::move(program);
  loop_counters_.assign(program_ ? program_->size() : 0, std::nullopt);
  pc_ = 0;
  halted_ = false;
  std::fill(state_.cond.begin(), state_.cond.end(), 0);
  for (auto& node : retired_) {
    if (node == nullptr) continue;
    // A retired lane's continuation node was created with the budget that
    // remained at its retirement; a fresh load grants the full per-run
    // budget again, exactly like any node being (re)loaded.
    node->options_.max_instructions = options_.max_instructions;
    node->load(program_);
  }
}

void ReplicaBatch::restart() {
  // NodeSim::restart across every lockstep lane: the lanes share one
  // sequencer, so one reset covers them all; memory is untouched.
  pc_ = 0;
  halted_ = false;
  std::fill(state_.cond.begin(), state_.cond.end(), 0);
  std::fill(loop_counters_.begin(), loop_counters_.end(), std::nullopt);
  for (auto& node : retired_) {
    if (node == nullptr) continue;
    node->options_.max_instructions = options_.max_instructions;
    node->restart();
  }
}

void ReplicaBatch::writePlane(int lane, arch::PlaneId plane,
                              std::uint64_t base,
                              std::span<const double> values) {
  if (NodeSim* node = retired_[static_cast<std::size_t>(lane)].get()) {
    node->writePlane(plane, base, values);
  } else {
    state_.writePlane(lane, plane, base, values);
  }
}

void ReplicaBatch::writeCache(int lane, arch::CacheId cache, int buffer,
                              std::uint64_t base,
                              std::span<const double> values) {
  if (NodeSim* node = retired_[static_cast<std::size_t>(lane)].get()) {
    node->writeCache(cache, buffer, base, values);
  } else {
    state_.writeCache(lane, cache, buffer, base, values);
  }
}

std::vector<double> ReplicaBatch::readPlane(int lane, arch::PlaneId plane,
                                            std::uint64_t base,
                                            std::uint64_t count) const {
  std::vector<double> out(count, 0.0);
  readPlaneInto(lane, plane, base, out);
  return out;
}

void ReplicaBatch::readPlaneInto(int lane, arch::PlaneId plane,
                                 std::uint64_t base,
                                 std::span<double> out) const {
  if (const NodeSim* node = retired_[static_cast<std::size_t>(lane)].get()) {
    node->readPlaneInto(plane, base, out);
  } else {
    state_.readPlaneInto(lane, plane, base, out);
  }
}

std::vector<double> ReplicaBatch::readCache(int lane, arch::CacheId cache,
                                            int buffer, std::uint64_t base,
                                            std::uint64_t count) const {
  std::vector<double> out(count, 0.0);
  if (const NodeSim* node = retired_[static_cast<std::size_t>(lane)].get()) {
    node->readCacheInto(cache, buffer, base, out);
  } else {
    state_.readCacheInto(lane, cache, buffer, base, out);
  }
  return out;
}

std::unique_ptr<NodeSim> ReplicaBatch::extractLane(
    int w, int lane_pc, bool lane_halted, std::uint64_t executed) const {
  NodeSim::Options opts = options_;
  opts.max_instructions = options_.max_instructions - executed;
  auto node = std::make_unique<NodeSim>(state_.machine(), opts);
  node->program_ = program_;
  node->loop_counters_ = loop_counters_;
  node->pc_ = lane_pc;
  node->halted_ = lane_halted;
  state_.copyLaneTo(w, node->state_);
  return node;
}

BatchRunResult ReplicaBatch::run() {
  const int W = lanes();
  std::vector<std::uint64_t>& fu_launches = state_.fu_launches;
  const std::size_t n_fus = fu_launches.size();
  BatchRunResult out;
  runs_.assign(static_cast<std::size_t>(W), RunStats{});
  for (RunStats& r : runs_) r.fu_launches.assign(n_fus, 0);
  std::fill(fu_launches.begin(), fu_launches.end(), 0);
  active_.assign(static_cast<std::size_t>(W), 1);
  int active_count = W;
  std::uint64_t executed = 0;

  // Lanes that left the batch in an earlier run stay out for good: their
  // continuation nodes already hold the lane's exact state, so each further
  // run (a new SPMD phase after restart()) simply executes there and
  // reports that run's stats, like any node would.
  for (int w = 0; w < W; ++w) {
    const auto lane = static_cast<std::size_t>(w);
    if (retired_[lane] == nullptr) continue;
    active_[lane] = 0;
    --active_count;
    RunStats cont = retired_[lane]->run();
    if (cont.instructions_executed > 0) ++out.drained_scalar;
    runs_[lane] = std::move(cont);
  }

  const auto forActive = [&](auto&& fn) {
    for (int w = 0; w < W; ++w) {
      if (active_[static_cast<std::size_t>(w)]) fn(w);
    }
  };
  // Retires lane `w` into a private NodeSim that finishes the run; the node
  // also keeps the lane's final memory for post-run readPlane/readCache.
  const auto retire = [&](int w, int lane_pc, bool lane_halted) {
    RunStats& r = runs_[static_cast<std::size_t>(w)];
    r.fu_launches = fu_launches;
    auto node = extractLane(w, lane_pc, lane_halted, executed);
    RunStats cont = node->run();
    if (cont.instructions_executed > 0) ++out.drained_scalar;
    r.absorbContinuation(std::move(cont));
    retired_[static_cast<std::size_t>(w)] = std::move(node);
    active_[static_cast<std::size_t>(w)] = 0;
    --active_count;
  };

  const std::size_t program_size = program_ ? program_->size() : 0;
  if (!options_.use_compiled || (program_size == 0 && !halted_)) {
    // The interpreter oracle runs per lane, and so does the degenerate
    // empty program NodeSim spins on deterministically: retire every lane
    // rather than replicating either here.
    forActive([&](int w) { retire(w, pc_, halted_); });
    out.runs = std::move(runs_);
    return out;
  }

  while (active_count > 0) {
    if (halted_) {
      forActive([&](int w) {
        RunStats& r = runs_[static_cast<std::size_t>(w)];
        r.halted = true;
        r.fu_launches = fu_launches;
        active_[static_cast<std::size_t>(w)] = 0;
      });
      break;
    }
    if (executed >= options_.max_instructions) {
      forActive([&](int w) {
        RunStats& r = runs_[static_cast<std::size_t>(w)];
        r.error = true;
        r.error_message = "instruction budget exhausted";
        r.fu_launches = fu_launches;
        active_[static_cast<std::size_t>(w)] = 0;
      });
      break;
    }

    const int index = pc_;
    const auto slot = static_cast<std::size_t>(index);
    static const std::string kUnnamed;
    const std::string& name =
        slot < program_->names.size() ? program_->names[slot] : kUnnamed;
    InstrStats instr =
        state_.executeCompiledBatch(program_->instrs[slot], index, name,
                                    options_.max_cycles_per_instruction);
    ++executed;
    forActive([&](int w) {
      RunStats& r = runs_[static_cast<std::size_t>(w)];
      r.total_cycles += instr.cycles;
      r.total_flops += instr.flops;
      r.total_hazards += instr.hazards;
      ++r.instructions_executed;
      r.trace.push_back(instr);
    });
    if (instr.error) {
      // Shape-level faults hit every lockstep lane identically, exactly as
      // each replica would fault on its own.  The shared sequencer halts
      // like NodeSim::run does on error, so a later restart()+run() (the
      // next SPMD phase) replays identically to nodes restarted after the
      // same fault.
      halted_ = true;
      forActive([&](int w) {
        RunStats& r = runs_[static_cast<std::size_t>(w)];
        r.error = true;
        r.fault = instr.fault;
        r.error_message = instr.error_message;
        r.halted = true;
        r.fu_launches = fu_launches;
        active_[static_cast<std::size_t>(w)] = 0;
      });
      break;
    }

    // --- Sequencer (sequencerStep, the rule NodeSim steps by): per lane
    // only where a branch consults a condition register. ---
    const InstrPlan& plan = program_->plans[slot];
    std::optional<int>& counter = loop_counters_[slot];
    if (plan.seq_op != arch::SeqOp::kBranchIf &&
        plan.seq_op != arch::SeqOp::kBranchNot) {
      // Lockstep lanes share one loop counter; one step covers all.
      const SequencerStep step =
          sequencerStep(plan, index, false, counter, program_size);
      if (step.halt) {
        halted_ = true;
      } else {
        pc_ = step.pc;
      }
      continue;
    }

    // Per-lane branch: partition active lanes by outcome.
    const std::uint8_t* regs =
        state_.cond.data() + static_cast<std::size_t>(plan.seq_cond_reg) *
                           static_cast<std::size_t>(W);
    int keys[2] = {0, 0};
    int counts[2] = {0, 0};
    int n_keys = 0;
    std::vector<int> lane_key(static_cast<std::size_t>(W), -1);
    forActive([&](int w) {
      // Lane outcome key: next pc, or -1 for halt.
      const SequencerStep step =
          sequencerStep(plan, index, regs[w] != 0, counter, program_size);
      const int key = step.halt ? -1 : step.pc;
      lane_key[static_cast<std::size_t>(w)] = key;
      for (int i = 0; i < n_keys; ++i) {
        if (keys[i] == key) {
          ++counts[i];
          return;
        }
      }
      keys[n_keys] = key;
      counts[n_keys] = 1;
      ++n_keys;
    });
    if (n_keys == 1) {
      if (keys[0] == -1) {
        halted_ = true;
      } else {
        pc_ = keys[0];
      }
      continue;
    }
    // Keep the largest live group in the batch (ties favour the group seen
    // first, i.e. containing the lowest lane index); every other lane
    // leaves for a private NodeSim.
    int keep = -1;
    int keep_count = -1;
    for (int i = 0; i < n_keys; ++i) {
      if (keys[i] != -1 && counts[i] > keep_count) {
        keep = keys[i];
        keep_count = counts[i];
      }
    }
    forActive([&](int w) {
      const int key = lane_key[static_cast<std::size_t>(w)];
      if (key == keep) return;
      retire(w, key == -1 ? index : key, key == -1);
    });
    if (keep == -1) break;  // every lane halted or left the batch
    pc_ = keep;
  }

  out.runs = std::move(runs_);
  return out;
}

}  // namespace nsc::sim
