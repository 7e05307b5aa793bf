#include "sim/hypercube.h"

#include <algorithm>
#include <bit>

#include "sim/program_cache.h"

namespace nsc::sim {

HypercubeSystem::HypercubeSystem(const arch::Machine& machine, int dimension,
                                 SystemOptions options,
                                 exec::ThreadPool* pool,
                                 CompiledProgramCache* cache)
    : machine_(machine),
      dimension_(dimension),
      router_(options.router),
      node_lanes_(
          std::min(resolveNodeLanes(options.node_lanes), 1 << dimension)),
      pool_(pool != nullptr ? pool : &exec::ThreadPool::shared()),
      cache_(cache != nullptr ? cache : &CompiledProgramCache::shared()) {
  const int n = 1 << dimension_;
  // Contiguous-id lane groups: node (g * W + w) is lane w of group g.  The
  // tail group narrows when W doesn't divide 2^d (non-power-of-two widths
  // from NSC_NODE_LANES).
  for (int base = 0; base < n; base += node_lanes_) {
    const int width = std::min(node_lanes_, n - base);
    groups_.push_back(
        std::make_unique<ReplicaBatch>(machine_, width, options.node));
  }
  exchange_cost_.assign(idx(n), 0);
}

int HypercubeSystem::hopCount(int a, int b) {
  return std::popcount(static_cast<unsigned>(a ^ b));
}

std::vector<int> HypercubeSystem::ecubePath(int a, int b) {
  std::vector<int> path{a};
  int current = a;
  unsigned diff = static_cast<unsigned>(a ^ b);
  // Correct dimensions lowest-first: classic deadlock-free e-cube order.
  for (int bit = 0; diff != 0; ++bit) {
    const unsigned mask = 1u << bit;
    if (diff & mask) {
      current ^= static_cast<int>(mask);
      path.push_back(current);
      diff &= ~mask;
    }
  }
  return path;
}

std::uint64_t HypercubeSystem::transferCycles(int src, int dst,
                                              std::uint64_t words) const {
  if (src == dst) return 0;
  const int hops = hopCount(src, dst);
  const auto stream_cycles = static_cast<std::uint64_t>(
      static_cast<double>(words) / router_.words_per_cycle);
  // Wormhole: header traverses hops serially; the body streams behind it.
  return router_.message_startup_cycles +
         static_cast<std::uint64_t>(hops) * router_.hop_latency_cycles +
         stream_cycles;
}

void HypercubeSystem::writePlane(int node, arch::PlaneId plane,
                                 std::uint64_t base,
                                 std::span<const double> values) {
  group(node).writePlane(laneOf(node), plane, base, values);
}

void HypercubeSystem::writeCache(int node, arch::CacheId cache, int buffer,
                                 std::uint64_t base,
                                 std::span<const double> values) {
  group(node).writeCache(laneOf(node), cache, buffer, base, values);
}

std::vector<double> HypercubeSystem::readPlane(int node, arch::PlaneId plane,
                                               std::uint64_t base,
                                               std::uint64_t count) const {
  return group(node).readPlane(laneOf(node), plane, base, count);
}

void HypercubeSystem::readPlaneInto(int node, arch::PlaneId plane,
                                    std::uint64_t base,
                                    std::span<double> out) const {
  group(node).readPlaneInto(laneOf(node), plane, base, out);
}

std::vector<double> HypercubeSystem::readCache(int node, arch::CacheId cache,
                                               int buffer, std::uint64_t base,
                                               std::uint64_t count) const {
  return group(node).readCache(laneOf(node), cache, buffer, base, count);
}

std::uint64_t HypercubeSystem::sendVector(int src_node,
                                          arch::PlaneId src_plane,
                                          std::uint64_t src_base,
                                          std::uint64_t count, int dst_node,
                                          arch::PlaneId dst_plane,
                                          std::uint64_t dst_base) {
  // Stage through a reusable buffer instead of a per-message allocation;
  // exchanges run on the calling thread (beginExchange/endExchange are not
  // concurrent), so one scratch vector per system suffices.  This is the
  // per-lane staging step: the facade gathers the source halo lane-major
  // out of its group's SoA columns and scatters it into the destination
  // lane, so the router never sees the interleaved layout.
  send_scratch_.resize(count);
  readPlaneInto(src_node, src_plane, src_base, send_scratch_);
  writePlane(dst_node, dst_plane, dst_base, send_scratch_);
  const std::uint64_t cycles = transferCycles(src_node, dst_node, count);
  if (exchange_open_) {
    // dst_node was already bounds-checked by the facade write above; this
    // is the exchange hot path, so skip the checked access.
    exchange_cost_[idx(dst_node)] += cycles;
  }
  return cycles;
}

void HypercubeSystem::loadAll(const mc::Executable& exe) {
  // The program cache owns compiled-image sharing: a second system (or a
  // workbench shard / ensemble call) loading the same SPMD executable
  // reuses this system's image instead of re-lowering it.
  loadAll(exe, *cache_);
}

void HypercubeSystem::loadAll(const mc::Executable& exe,
                              CompiledProgramCache& cache) {
  loadAll(cache.get(machine_, exe));
}

void HypercubeSystem::loadAll(std::shared_ptr<const CompiledProgram> program) {
  // SPMD: every lane group aliases the same immutable compiled image;
  // nothing is decoded or copied per node.
  for (auto& g : groups_) g->load(program);
}

void HypercubeSystem::restartAll() {
  for (auto& g : groups_) g->restart();
}

void HypercubeSystem::runPhase(SystemStats& stats) {
  const int n = numNodes();
  std::vector<RunStats> results(idx(n));
  // Groups are fully independent between exchanges (distributed-memory
  // model): one pool task per lane group, each stepping up to node_lanes_
  // nodes through the shared instruction stream.  Each result lands in its
  // own slot, so scheduling order cannot affect the outcome.
  std::vector<BatchRunResult> group_results(groups_.size());
  pool_->parallelFor(0, groups_.size(), 1,
                     [&group_results, this](std::size_t begin,
                                            std::size_t end) {
                       for (std::size_t g = begin; g < end; ++g) {
                         group_results[g] = groups_[g]->run();
                       }
                     });
  // Lane results scatter into node-id order for the folding loop below.
  std::size_t node_id = 0;
  for (std::size_t g = 0; g < group_results.size(); ++g) {
    BatchRunResult& gr = group_results[g];
    const int width = groups_[g]->lanes();
    // With one node per group every node runs on its own: count it scalar.
    const int scalar = node_lanes_ == 1 ? 1 : gr.drained_scalar;
    nodes_scalar_ += static_cast<std::uint64_t>(scalar);
    nodes_batched_ += static_cast<std::uint64_t>(width - scalar);
    for (auto& run : gr.runs) results[node_id++] = std::move(run);
  }

  std::uint64_t max_cycles = 0;
  if (stats.node_stats.size() != idx(n)) {
    stats.node_stats.assign(idx(n), RunStats{});
  }
  for (int i = 0; i < n; ++i) {
    const RunStats& r = results[idx(i)];
    max_cycles = std::max(max_cycles, r.total_cycles);
    stats.total_flops += r.total_flops;
    RunStats& agg = stats.node_stats[idx(i)];
    agg.total_cycles += r.total_cycles;
    agg.total_flops += r.total_flops;
    agg.total_hazards += r.total_hazards;
    agg.instructions_executed += r.instructions_executed;
    if (r.error && !stats.error) {
      stats.error = true;
      stats.error_message = r.error_message;
    }
  }
  stats.compute_makespan_cycles += max_cycles;
}

void HypercubeSystem::beginExchange() {
  std::fill(exchange_cost_.begin(), exchange_cost_.end(), 0);
  exchange_open_ = true;
}

void HypercubeSystem::endExchange(SystemStats& stats) {
  exchange_open_ = false;
  std::uint64_t max_cost = 0;
  for (const std::uint64_t c : exchange_cost_) max_cost = std::max(max_cost, c);
  stats.comm_cycles += max_cost;
}

}  // namespace nsc::sim
