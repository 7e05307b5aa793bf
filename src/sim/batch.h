// ReplicaBatch: W lanes of one CompiledProgram stepped in lockstep — the
// ensemble axis (runEnsemble replicas) and the SPMD axis (the node lane
// groups of a HypercubeSystem) alike.
//
// Every lane runs the same compiled instruction stream over its own data,
// and in this machine the timing of every token is data-independent, so a
// batch owns one W-lane sim::LaneState and runs each instruction's value
// program over it (LaneState::executeCompiledBatch): one list of windowed
// loads, evaluations and stores, values W-wide.  A width-1 batch runs
// exactly what a NodeSim runs.
//
// Lanes run in exact lockstep until the *sequencer* consults a condition
// register (kBranchIf / kBranchNot) whose per-lane values disagree.  At
// that instruction boundary the batch keeps the largest agreeing lane group
// and retires every other lane into a private NodeSim — seeded with an
// exact de-interleaved copy of the lane's memory, condition registers, and
// loop counters — which finishes the run on the same value programs at
// W = 1.  Both advance control by one rule (sequencerStep, sim/node.h).
// Faults (compile-time DMA bounds, cycle timeouts) are shape-level and hit
// every lockstep lane identically, exactly as the same replicas would fault
// one by one.  The golden tests in test_compiled.cpp / test_hypercube.cpp
// pin every lane's InstrStats, fu_launches, planes, and caches
// bit-identical to the legacy interpreter run one replica at a time.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "arch/machine.h"
#include "sim/compiled.h"
#include "sim/lane_state.h"
#include "sim/node.h"
#include "sim/stats.h"

namespace nsc::sim {

struct BatchRunResult {
  std::vector<RunStats> runs;  // runs[w] is lane w's full-run stats
  // Lanes that left the batch (at a divergence point, or all of them under
  // use_compiled = false) and executed at least one instruction on a
  // private NodeSim.
  int drained_scalar = 0;
};

class ReplicaBatch {
 public:
  static constexpr int kMaxLanes = sim::kMaxLanes;

  // `lanes` is clamped to [1, kMaxLanes].
  ReplicaBatch(const arch::Machine& machine, int lanes,
               NodeSim::Options options = {});

  int lanes() const { return state_.lanes(); }

  // Loads a compiled program (shared, immutable) and re-arms the sequencer;
  // lane memory is untouched, like NodeSim::load.  Lanes already retired to
  // continuation nodes load the same image (with a fresh instruction
  // budget), exactly as per-node load would.
  void load(std::shared_ptr<const CompiledProgram> program);

  // Re-arms the sequencer at instruction 0 for the next phase without
  // touching lane memory — NodeSim::restart applied to every lane at once
  // (pc, halt flag, condition registers, loop counters).  Retired lanes
  // restart their continuation nodes with the full per-run instruction
  // budget restored, exactly like a node re-entering a phase; the SPMD
  // phase driver (sim/hypercube.h) calls this between compute phases.
  void restart();

  // ---- Per-lane host memory access (NodeSim semantics per lane) ----
  void writePlane(int lane, arch::PlaneId plane, std::uint64_t base,
                  std::span<const double> values);
  void writeCache(int lane, arch::CacheId cache, int buffer,
                  std::uint64_t base, std::span<const double> values);
  std::vector<double> readPlane(int lane, arch::PlaneId plane,
                                std::uint64_t base, std::uint64_t count) const;
  // Copy-free gather of one lane's plane words (NodeSim::readPlaneInto
  // semantics: zero-fill beyond the lane's backing store) — the exchange
  // staging path of hypercube systems reads halo vectors this way.
  void readPlaneInto(int lane, arch::PlaneId plane, std::uint64_t base,
                     std::span<double> out) const;
  std::vector<double> readCache(int lane, arch::CacheId cache, int buffer,
                                std::uint64_t base, std::uint64_t count) const;
  // The seeding view of one lane (for EnsembleOptions::init callbacks).
  class LaneStore final : public ReplicaStore {
   public:
    LaneStore(ReplicaBatch& batch, int lane) : batch_(batch), lane_(lane) {}
    void writePlane(arch::PlaneId plane, std::uint64_t base,
                    std::span<const double> values) override {
      batch_.writePlane(lane_, plane, base, values);
    }
    void writeCache(arch::CacheId cache, int buffer, std::uint64_t base,
                    std::span<const double> values) override {
      batch_.writeCache(lane_, cache, buffer, base, values);
    }

   private:
    ReplicaBatch& batch_;
    int lane_;
  };

  // Runs every lane from the current pc to halt / error / budget, batched
  // while lanes agree and on private NodeSims after divergence.  Per-lane
  // results are index-stable.  Re-runnable across load()/restart()
  // boundaries: each call reports that run only, and lanes retired in an
  // earlier run continue on their continuation nodes (counted in
  // BatchRunResult::drained_scalar), so a multi-phase SPMD driver can
  // restart() + run() per phase with per-phase stats identical to
  // per-node runs.
  BatchRunResult run();

 private:
  // De-interleaves lane `w` into a private NodeSim carrying the lane's
  // exact mid-run state; the node finishes the run on its own.
  std::unique_ptr<NodeSim> extractLane(int w, int lane_pc, bool lane_halted,
                                       std::uint64_t executed) const;

  NodeSim::Options options_;
  std::shared_ptr<const CompiledProgram> program_;

  // Per-lane machine state (SoA) and the shared lockstep sequencer.
  LaneState state_;
  std::vector<std::optional<int>> loop_counters_;  // shared: lanes in lockstep
  int pc_ = 0;
  bool halted_ = false;

  // Lanes retired mid-run (divergence): the NodeSim holds the lane's final
  // memory, so readPlane/readCache route through it after run().
  std::vector<std::unique_ptr<NodeSim>> retired_;
  std::vector<std::uint8_t> active_;
  std::vector<RunStats> runs_;
};

// Resolve the effective lane width of ensemble batches
// (NSC_ENSEMBLE_LANES) and of hypercube node groups (NSC_NODE_LANES): an
// explicit request >= 1 wins (clamped to kMaxLanes), else the environment
// variable, else the default.  1 runs one lane per batch.
inline constexpr int kDefaultEnsembleLanes = 8;
inline constexpr int kDefaultNodeLanes = 8;
int resolveEnsembleLanes(int requested);
int resolveNodeLanes(int requested);

}  // namespace nsc::sim
