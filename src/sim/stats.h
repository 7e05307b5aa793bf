// Execution statistics reported by the node simulator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace nsc::sim {

// Structured classification of the (few) ways an instruction can fault at
// runtime.  Both execution engines set it alongside the legacy error
// message; the static verifier (sim/verify.h) predicts these kinds, and the
// soundness property in test_property.cpp pins prediction to reality.
enum class FaultKind : std::uint8_t {
  kNone = 0,
  kDmaBounds,  // plane DMA provably walks past the simulated capacity
  kTimeout,    // instruction did not complete within the cycle budget
};

inline const char* faultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kDmaBounds: return "dma-bounds";
    case FaultKind::kTimeout: return "timeout";
  }
  return "?";
}

struct InstrStats {
  int instruction = 0;  // program counter value executed
  std::string name;
  std::uint64_t cycles = 0;
  std::uint64_t flops = 0;
  std::uint64_t hazards = 0;  // valid/invalid operand pairings observed
  bool error = false;
  FaultKind fault = FaultKind::kNone;  // typed cause when error is set
  std::string error_message;
};

struct RunStats {
  std::uint64_t total_cycles = 0;
  std::uint64_t total_flops = 0;
  std::uint64_t total_hazards = 0;
  std::uint64_t instructions_executed = 0;
  // Valid result launches per functional unit over the whole run
  // (utilization = launches / (cycles * numFus)).
  std::vector<std::uint64_t> fu_launches;
  std::vector<InstrStats> trace;  // one entry per executed instruction
  bool halted = false;
  bool error = false;
  FaultKind fault = FaultKind::kNone;  // fault kind of the erroring instruction
  std::string error_message;

  // Achieved MFLOPS at the given hardware clock.
  double mflops(double clock_mhz) const {
    return total_cycles == 0
               ? 0.0
               : static_cast<double>(total_flops) * clock_mhz /
                     static_cast<double>(total_cycles);
  }
  double fuUtilization() const {
    if (total_cycles == 0 || fu_launches.empty()) return 0.0;
    std::uint64_t launches = 0;
    for (std::uint64_t l : fu_launches) launches += l;
    return static_cast<double>(launches) /
           (static_cast<double>(total_cycles) *
            static_cast<double>(fu_launches.size()));
  }

  // Folds a continuation of the same run (e.g. a diverged ensemble lane
  // finishing on its own NodeSim after leaving its ReplicaBatch) onto the
  // stats accumulated so far: totals and launch counts add, traces append,
  // terminal flags come from the continuation.
  void absorbContinuation(RunStats&& continuation) {
    total_cycles += continuation.total_cycles;
    total_flops += continuation.total_flops;
    total_hazards += continuation.total_hazards;
    instructions_executed += continuation.instructions_executed;
    if (fu_launches.size() < continuation.fu_launches.size()) {
      fu_launches.resize(continuation.fu_launches.size(), 0);
    }
    for (std::size_t i = 0; i < continuation.fu_launches.size(); ++i) {
      fu_launches[i] += continuation.fu_launches[i];
    }
    for (InstrStats& t : continuation.trace) trace.push_back(std::move(t));
    halted = continuation.halted;
    error = continuation.error;
    fault = continuation.fault;
    error_message = std::move(continuation.error_message);
  }
};

}  // namespace nsc::sim
