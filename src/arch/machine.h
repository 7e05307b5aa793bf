// MachineConfig: every architectural parameter of one NSC node, with
// defaults taken from the paper (Section 2).  Machine: the concrete
// instance — ALS/FU layout with capabilities and the switch-network
// endpoint catalogue — that the checker, microcode generator, simulator,
// and editor all consult.
//
// The paper's quoted numbers: 32 functional units per node grouped into
// singlets/doublets/triplets; 16 memory planes x 128 MB = 2 GB; 16
// double-buffered data caches (8 KB x 16 x 2 in Figure 1); 2 shift/delay
// units; peak 640 MFLOPS per node (=> 20 MHz with one FP result per FU per
// cycle); 64 nodes => 128 GB and ~40 GFLOPS.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/ops.h"
#include "arch/types.h"

namespace nsc::arch {

struct MachineConfig {
  // ALS composition.  4*1 + 8*2 + 4*3 = 32 FUs.  The paper gives the total
  // (32) but not the split; this default split is a modelling choice of
  // this reproduction, configurable here.
  int num_singlets = 4;
  int num_doublets = 8;
  int num_triplets = 4;

  // Memory system.
  int num_memory_planes = 16;
  std::uint64_t plane_bytes = 128ull * 1024 * 1024;
  int word_bytes = 8;  // 64-bit floating point words

  int num_caches = 16;
  std::uint64_t cache_bytes = 8ull * 1024;  // per buffer
  int cache_buffers = 2;                    // double buffered

  int num_shift_delay = 2;
  int sd_taps = 3;        // simultaneous delayed copies of one stream
  int sd_max_delay = 255; // cycles

  int register_file_words = 64;  // per FU
  int rf_max_delay = 63;         // usable circular-queue depth

  double clock_mhz = 20.0;

  // Constraint parameters enforced by the checker.
  int plane_streams_per_instruction = 1;  // one DMA stream per plane
  int max_switch_fanout = 8;              // copies of one source stream

  // In the simulator, only elements actually clocked through memory exist;
  // this caps per-plane simulated backing storage (words), far below the
  // architectural 16M words, so tests stay small.
  std::uint64_t sim_plane_words = 1ull << 22;

  int numFus() const {
    return num_singlets + 2 * num_doublets + 3 * num_triplets;
  }
  int numAls() const { return num_singlets + num_doublets + num_triplets; }
  std::uint64_t planeWords() const { return plane_bytes / word_bytes; }
  std::uint64_t cacheWords() const { return cache_bytes / word_bytes; }
  std::uint64_t totalMemoryBytes() const {
    return plane_bytes * static_cast<std::uint64_t>(num_memory_planes);
  }
  // One FP result per functional unit per cycle at peak.
  double peakMflopsPerNode() const { return numFus() * clock_mhz; }

  // The paper's restricted-subset study (Section 6): a simpler model that
  // trades performance for programmability.  Singlet-only ALS mix, no
  // caches, no shift/delay units.
  static MachineConfig restrictedSubset();

  // Two configs are interchangeable iff every parameter matches; the
  // microword-spec cache keys on this.
  bool operator==(const MachineConfig&) const = default;
};

struct FuInfo {
  FuId id = 0;
  AlsId als = 0;
  int slot = 0;  // position within the ALS (0 = first)
  CapMask caps = kCapFp;
};

struct AlsInfo {
  AlsId id = 0;
  AlsKind kind = AlsKind::kSinglet;
  std::vector<FuId> fus;  // in slot order
};

// Immutable machine instance built from a config.  Also provides the dense
// numbering of switch sources/destinations used by the microword and the
// simulator's crossbar.
class Machine {
 public:
  explicit Machine(MachineConfig config = {});

  const MachineConfig& config() const { return config_; }
  const std::vector<AlsInfo>& als() const { return als_; }
  const std::vector<FuInfo>& fus() const { return fus_; }
  const AlsInfo& als(AlsId id) const { return als_.at(static_cast<std::size_t>(id)); }
  const FuInfo& fu(FuId id) const { return fus_.at(static_cast<std::size_t>(id)); }

  // All endpoints that can source a switch stream, in dense index order.
  const std::vector<Endpoint>& sources() const { return sources_; }
  // All endpoints that can terminate a switch stream, in dense index order.
  const std::vector<Endpoint>& destinations() const { return destinations_; }

  // Dense indices (-1 if the endpoint is not of the right class).
  int sourceIndex(const Endpoint& e) const;
  int destinationIndex(const Endpoint& e) const;

  bool fuHasCap(FuId fu, CapMask cap) const {
    return (this->fu(fu).caps & cap) == cap;
  }
  bool fuCanExecute(FuId fu, OpCode op) const {
    return fuHasCap(fu, opInfo(op).required_cap);
  }

  // True if `from` FU feeds `to` FU over the hardwired internal ALS chain
  // path (same ALS, consecutive slots).
  bool isChainPath(FuId from, FuId to) const;

  std::string describe() const;  // human-readable inventory

 private:
  MachineConfig config_;
  std::vector<AlsInfo> als_;
  std::vector<FuInfo> fus_;
  std::vector<Endpoint> sources_;
  std::vector<Endpoint> destinations_;
};

}  // namespace nsc::arch
