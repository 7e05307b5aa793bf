// Multi-node NSC: nodes "arranged in a hypercube configuration" whose
// "communication between nodes is handled by means of a hyperspace router"
// (paper, Sections 1-2).  The router's internals were never published; we
// model dimension-ordered (e-cube) wormhole routing with a startup cost,
// a per-hop cost, and a per-word streaming cost — the standard model for
// 1980s hypercubes.  RouterOptions below states the model and its
// parameters.
//
// Nodes execute their own microcode programs independently (each node has
// its own sequencer); the system tracks a phase-synchronous makespan:
// run-phase cost is the maximum node cycle count, exchange-phase cost is
// the maximum routed-message cost, matching barrier-style SPMD CFD codes.
//
// Execution engine: because the machine is SPMD (loadAll gives every node
// the same compiled image), the nodes of one compute phase are the same
// workload shape the lockstep lane engine (sim/batch.h) vectorizes.  The
// system packs its nodes into ReplicaBatch lane groups of node_lanes
// width — per-node planes/caches/condition registers interleaved
// address-major, one shared instruction stream stepped once per cycle for
// W nodes — and runPhase steps one group per pool task; node_lanes == 1
// means width-1 groups.  Exchange phases stage per lane: sendVector
// gathers the source halo out of the SoA columns into the router scratch
// buffer and scatters it into the destination lane, so routing code and
// cost model are unchanged.  A node whose branch diverges from its group
// retires into an exact NodeSim continuation; results (SystemStats,
// planes, caches, faults) are bit-identical for every lane width.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "arch/machine.h"
#include "exec/thread_pool.h"
#include "microcode/generator.h"
#include "sim/batch.h"
#include "sim/node.h"
#include "sim/stats.h"

namespace nsc::sim {

class CompiledProgramCache;

// The router cost model, in node clock cycles.  A message of n words from
// node s to node t corrects the differing address bits lowest first
// (e-cube order, deadlock-free), so it crosses popcount(s ^ t) links.
// Wormhole switching moves the header across those links one after
// another while the body streams behind it, so one message costs
//
//   message_startup_cycles + hops * hop_latency_cycles
//       + floor(n / words_per_cycle)
//
// and a message to the sending node itself costs nothing.  Messages into
// one node serialize at its receiving end; an exchange phase costs the
// largest such per-node sum, added to SystemStats::comm_cycles.  The paper
// gives no router figures, so the defaults are modelling choices; the
// RunSystemPhases request can override all three.
struct RouterOptions {
  std::uint64_t message_startup_cycles = 32;
  std::uint64_t hop_latency_cycles = 8;
  double words_per_cycle = 1.0;  // link bandwidth
};

struct SystemOptions {
  RouterOptions router{};
  NodeSim::Options node{};
  // SPMD lane width: how many hypercube nodes one lane group steps together
  // during a compute phase.  0 resolves through NSC_NODE_LANES (default
  // kDefaultNodeLanes); 1 runs one node per group; any value is clamped to
  // the node count, so a 1-node system is one width-1 group.
  int node_lanes = 0;
};

struct SystemStats {
  std::vector<RunStats> node_stats;
  std::uint64_t compute_makespan_cycles = 0;  // sum over phases of max node
  std::uint64_t comm_cycles = 0;              // sum over exchange phases
  std::uint64_t total_flops = 0;
  bool error = false;
  std::string error_message;

  std::uint64_t makespanCycles() const {
    return compute_makespan_cycles + comm_cycles;
  }
  double aggregateMflops(double clock_mhz) const {
    const std::uint64_t cycles = makespanCycles();
    return cycles == 0 ? 0.0
                       : static_cast<double>(total_flops) * clock_mhz /
                             static_cast<double>(cycles);
  }
};

class HypercubeSystem {
 public:
  // dimension d gives 2^d nodes (the paper quotes a 64-node NSC, d = 6).
  // `pool` is the execution pool phase stepping runs on; nullptr means the
  // process-wide exec::ThreadPool::shared().  The pool outlives the system
  // and is reused across every phase — runPhase never creates threads.
  // `cache` is the compiled-program cache loadAll(exe) resolves images
  // through; nullptr means CompiledProgramCache::shared().
  HypercubeSystem(const arch::Machine& machine, int dimension,
                  SystemOptions options = {},
                  exec::ThreadPool* pool = nullptr,
                  CompiledProgramCache* cache = nullptr);

  exec::ThreadPool& pool() const { return *pool_; }

  int dimension() const { return dimension_; }
  int numNodes() const { return 1 << dimension_; }
  // Effective SPMD lane width (nodes per lane group).
  int nodeLanes() const { return node_lanes_; }

  // ---- Per-node memory facade ----
  // NodeSim semantics per node (lanes gather / scatter through the SoA
  // columns; retired lanes route to their continuation nodes).  Used by
  // exchange staging, problem seeding, and result readback.  Node ids are
  // checked (std::out_of_range).
  void writePlane(int node, arch::PlaneId plane, std::uint64_t base,
                  std::span<const double> values);
  void writeCache(int node, arch::CacheId cache, int buffer,
                  std::uint64_t base, std::span<const double> values);
  std::vector<double> readPlane(int node, arch::PlaneId plane,
                                std::uint64_t base, std::uint64_t count) const;
  void readPlaneInto(int node, arch::PlaneId plane, std::uint64_t base,
                     std::span<double> out) const;
  std::vector<double> readCache(int node, arch::CacheId cache, int buffer,
                                std::uint64_t base, std::uint64_t count) const;
  // The ReplicaStore seeding view of one node, so per-node init code (cfd
  // problem loaders, ensemble-style callbacks) seeds a system like a node.
  class NodeStore final : public ReplicaStore {
   public:
    NodeStore(HypercubeSystem& system, int node)
        : system_(system), node_(node) {}
    void writePlane(arch::PlaneId plane, std::uint64_t base,
                    std::span<const double> values) override {
      system_.writePlane(node_, plane, base, values);
    }
    void writeCache(arch::CacheId cache, int buffer, std::uint64_t base,
                    std::span<const double> values) override {
      system_.writeCache(node_, cache, buffer, base, values);
    }

   private:
    HypercubeSystem& system_;
    int node_;
  };
  NodeStore nodeStore(int node) { return NodeStore(*this, node); }

  // e-cube (dimension-ordered) routing: number of hops and the node path.
  static int hopCount(int a, int b);
  static std::vector<int> ecubePath(int a, int b);

  // Modelled cost (cycles) of routing `words` data between two nodes.
  std::uint64_t transferCycles(int src, int dst, std::uint64_t words) const;

  // Moves a vector between node memory planes through the router, charging
  // the modelled cost to the current exchange phase.  Returns the cost.
  std::uint64_t sendVector(int src_node, arch::PlaneId src_plane,
                           std::uint64_t src_base, std::uint64_t count,
                           int dst_node, arch::PlaneId dst_plane,
                           std::uint64_t dst_base);

  // Loads the same executable on every node (SPMD): resolves one immutable
  // compiled image through `cache` (first form: the cache this system was
  // constructed with) and every lane group shares it.
  void loadAll(const mc::Executable& exe);
  void loadAll(const mc::Executable& exe, CompiledProgramCache& cache);
  void loadAll(std::shared_ptr<const CompiledProgram> program);

  // Re-arms every node's sequencer for the next compute phase without
  // touching node memory (NodeSim::restart system-wide); multi-phase
  // drivers call this between runPhase calls.
  void restartAll();

  // Runs every node's program to halt (lane groups in parallel on the
  // shared pool); adds max(node cycles) to the compute makespan and folds
  // stats into `stats`.  Stats are folded on the calling thread in node
  // order, so the result is bit-identical for any pool thread count — and
  // for any lane width.
  void runPhase(SystemStats& stats);

  // Cumulative engine counters, summed over runPhase calls: nodes stepped
  // in lockstep inside lane groups vs nodes counted scalar (every node when
  // node_lanes is 1, else lanes that diverged and finished on their own
  // NodeSim).
  std::uint64_t nodesBatched() const { return nodes_batched_; }
  std::uint64_t nodesScalar() const { return nodes_scalar_; }

  // Marks the start of an exchange phase: subsequent sendVector costs are
  // accumulated as max-over-destination-node, then folded at the next
  // endExchange().
  void beginExchange();
  void endExchange(SystemStats& stats);

 private:
  // Node ids are ints (hypercube addresses); containers want size_t.
  static constexpr std::size_t idx(int i) {
    return static_cast<std::size_t>(i);
  }
  // Node id -> owning lane group / lane within it.  Groups are contiguous
  // id ranges of node_lanes_ nodes (the tail group may be narrower if the
  // width doesn't divide the node count).
  std::size_t groupOf(int node) const {
    if (node < 0 || node >= numNodes()) {
      throw std::out_of_range("hypercube node id out of range");
    }
    return idx(node / node_lanes_);
  }
  ReplicaBatch& group(int node) { return *groups_[groupOf(node)]; }
  const ReplicaBatch& group(int node) const { return *groups_[groupOf(node)]; }
  int laneOf(int node) const { return node % node_lanes_; }

  const arch::Machine& machine_;
  int dimension_;
  RouterOptions router_;
  int node_lanes_;
  exec::ThreadPool* pool_;
  CompiledProgramCache* cache_;
  std::vector<std::unique_ptr<ReplicaBatch>> groups_;
  std::uint64_t nodes_batched_ = 0;
  std::uint64_t nodes_scalar_ = 0;
  // Per-destination-node accumulated exchange cost in the open phase.
  std::vector<std::uint64_t> exchange_cost_;
  bool exchange_open_ = false;
  // Reusable staging buffer for sendVector (exchanges are single-threaded).
  std::vector<double> send_scratch_;
};

}  // namespace nsc::sim
