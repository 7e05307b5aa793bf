// Pipeline timing analysis and automatic delay balancing.
//
// "Timing delays, needed for proper alignment of vector streams, may be
// introduced by routing input data into a circular queue in a register
// file and then retrieving the value a number of clock cycles later."
// (paper, Section 5.)
//
// The analysis assigns each stream endpoint an element-0 production/arrival
// time, assuming all DMA read engines start at cycle 0.  A functional unit
// combining two streams requires both operands of the same element index to
// arrive in the same cycle; `balanceDelays` inserts register-file delays on
// the earlier input to make that hold.  Both the checker (validation) and
// the microcode generator (automatic insertion) build on this module.
//
// Model:
//   - plane/cache reads produce element 0 at cycle 0;
//   - a switch hop costs 1 cycle; the hardwired ALS chain path costs 0;
//   - a functional unit adds opInfo(op).latency cycles;
//   - a register-file delay queue adds fu.rf_delay cycles on one input;
//   - a shift/delay unit tap contributes *no* structural delay: its
//     configured tap delay is a semantic element shift (it changes which
//     element pairs with its siblings, the mechanism stencil programs use
//     to form neighbor streams), not a skew to be corrected;
//   - an accumulator feedback input is available every cycle and does not
//     constrain timing.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "arch/machine.h"
#include "program/pipeline.h"

namespace nsc::prog {

struct FuSkew {
  arch::FuId fu = 0;
  int arrival_a = 0;  // after register-file delay is applied
  int arrival_b = 0;
};

struct TimingResult {
  bool ok = false;  // analysis completed (no cycles / missing drivers)
  std::vector<std::string> errors;

  // Element-0 production time of each source endpoint (FU outputs, SD taps,
  // plane/cache reads) and arrival time at each destination endpoint.
  std::map<arch::Endpoint, int> time;

  // FUs whose two stream inputs arrive misaligned (empty for a balanced
  // diagram).
  std::vector<FuSkew> misaligned;

  // Pipeline fill depth: latest element-0 arrival at any write endpoint.
  int depth = 0;

  bool aligned() const { return ok && misaligned.empty(); }
};

TimingResult analyzeTiming(const arch::Machine& machine,
                           const PipelineDiagram& diagram);

// Inserts register-file delays so every dual-stream FU is aligned.  Returns
// the number of delays inserted, or -1 if the diagram cannot be balanced
// (cycle, missing driver, or required delay exceeds rf_max_delay).
int balanceDelays(const arch::Machine& machine, PipelineDiagram& diagram);

}  // namespace nsc::prog
