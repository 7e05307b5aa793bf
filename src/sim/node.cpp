#include "sim/node.h"

#include <algorithm>
#include <cassert>

#include "common/strings.h"

namespace nsc::sim {

using arch::Endpoint;
using common::strFormat;

NodeSim::NodeSim(const arch::Machine& machine, Options options)
    : machine_(machine), options_(options), state_(machine, 1) {}

void NodeSim::load(const mc::Executable& exe) {
  load(CompiledProgram::compile(machine_, exe));
}

void NodeSim::load(std::shared_ptr<const CompiledProgram> program) {
  program_ = std::move(program);
  loop_counters_.assign(program_ ? program_->size() : 0, std::nullopt);
  restart();
}

void NodeSim::restart() {
  pc_ = 0;
  halted_ = false;
  std::fill(state_.cond.begin(), state_.cond.end(), 0);
  std::fill(loop_counters_.begin(), loop_counters_.end(), std::nullopt);
}

NodeSim::Snapshot NodeSim::snapshot() const {
  Snapshot snap;
  snap.planes = state_.planes;
  snap.caches = state_.caches;
  // Cache buffers allocate lazily; the snapshot shows every buffer at its
  // architectural size, untouched ones as zeros.
  const std::size_t cache_words = machine_.config().cacheWords();
  for (auto& cache : snap.caches) {
    for (auto& buffer : cache) {
      if (buffer.empty()) buffer.assign(cache_words, 0.0);
    }
  }
  snap.cond_regs.assign(state_.cond.begin(), state_.cond.end());
  snap.pc = pc_;
  snap.halted = halted_;
  return snap;
}

void NodeSim::restoreSnapshot(Snapshot snapshot) {
  // Shape mismatches (a checkpoint from a different machine config) are the
  // caller's to reject — the serialization layer validates counts against
  // the machine before handing the snapshot over.  Here we adopt the images
  // wholesale so restored memory is bit-identical to the source node's.
  state_.adopt(std::move(snapshot.planes), std::move(snapshot.caches),
               snapshot.cond_regs);
  pc_ = snapshot.pc;
  halted_ = snapshot.halted;
  program_.reset();
  loop_counters_.clear();
}

// ---------------------------------------------------------------------------
// Memory access
// ---------------------------------------------------------------------------

void NodeSim::writePlane(arch::PlaneId plane, std::uint64_t base,
                         std::span<const double> values) {
  state_.writePlane(0, plane, base, values);
}

std::vector<double> NodeSim::readPlane(arch::PlaneId plane, std::uint64_t base,
                                       std::uint64_t count) const {
  std::vector<double> out(count, 0.0);
  readPlaneInto(plane, base, out);
  return out;
}

void NodeSim::readPlaneInto(arch::PlaneId plane, std::uint64_t base,
                            std::span<double> out) const {
  state_.readPlaneInto(0, plane, base, out);
}

double NodeSim::readPlaneWord(arch::PlaneId plane, std::uint64_t addr) const {
  const auto& mem = state_.planes.at(static_cast<std::size_t>(plane));
  return addr < mem.size() ? mem[addr] : 0.0;
}

void NodeSim::fillPlane(arch::PlaneId plane, double value) {
  auto& mem = state_.planes.at(static_cast<std::size_t>(plane));
  std::fill(mem.begin(), mem.end(), value);
}

void NodeSim::writeCache(arch::CacheId cache, int buffer, std::uint64_t base,
                         std::span<const double> values) {
  state_.writeCache(0, cache, buffer, base, values);
}

std::vector<double> NodeSim::readCache(arch::CacheId cache, int buffer,
                                       std::uint64_t base,
                                       std::uint64_t count) const {
  std::vector<double> out(count, 0.0);
  readCacheInto(cache, buffer, base, out);
  return out;
}

void NodeSim::readCacheInto(arch::CacheId cache, int buffer,
                            std::uint64_t base, std::span<double> out) const {
  state_.readCacheInto(0, cache, buffer, base, out);
}

// ---------------------------------------------------------------------------
// Execute (legacy interpreter — the semantic oracle that compiled execution
// in lane_state.cpp is golden-tested against)
// ---------------------------------------------------------------------------

namespace {

// Streaming address generator over a two-level DMA pattern.
struct DmaCursor {
  std::uint64_t base = 0;
  std::int64_t stride = 1;
  std::uint64_t count = 1;
  std::uint64_t count2 = 1;
  std::int64_t stride2 = 0;
  std::uint64_t element = 0;  // elements issued so far
  std::uint64_t row = 0;
  std::uint64_t in_row = 0;

  std::uint64_t total() const { return count * count2; }
  bool done() const { return element >= total(); }
  std::uint64_t nextAddr() {
    const std::int64_t addr = static_cast<std::int64_t>(base) +
                              static_cast<std::int64_t>(row) * stride2 +
                              static_cast<std::int64_t>(in_row) * stride;
    ++element;
    if (++in_row == count) {
      in_row = 0;
      ++row;
    }
    return static_cast<std::uint64_t>(addr);
  }
};

struct Ring {
  std::vector<Token> slots;
  std::size_t pos = 0;
  void init(std::size_t depth) {
    slots.assign(std::max<std::size_t>(depth, 1), Token::invalid());
    pos = 0;
  }
  // Pushes `in`, returns the token pushed slots.size() cycles ago.
  Token shift(const Token& in) {
    Token out = slots[pos];
    slots[pos] = in;
    pos = (pos + 1) % slots.size();
    return out;
  }
};

}  // namespace

InstrStats NodeSim::execute(const InstrPlan& plan, int instr_index,
                            const std::string& name) {
  const arch::MachineConfig& cfg = machine_.config();
  InstrStats stats;
  stats.instruction = instr_index;
  stats.name = name;

  // --- Per-instruction dataflow state ---
  const std::size_t n_src = machine_.sources().size();
  const std::size_t n_dst = machine_.destinations().size();
  std::vector<Token> src_out(n_src);
  std::vector<Token> dst_in(n_dst);

  struct FuState {
    Ring pipe;
    Ring rf_queue;
    bool has_queue = false;
    double acc = 0.0;
  };
  std::vector<FuState> fu_state(plan.fu.size());
  for (std::size_t f = 0; f < plan.fu.size(); ++f) {
    const FuPlan& fu = plan.fu[f];
    if (!fu.enabled) continue;
    fu_state[f].pipe.init(static_cast<std::size_t>(fu.latency));
    if (fu.rf_mode == arch::RfMode::kDelay && fu.rf_delay > 0) {
      fu_state[f].rf_queue.init(static_cast<std::size_t>(fu.rf_delay));
      fu_state[f].has_queue = true;
    }
    if (fu.rf_mode == arch::RfMode::kAccum) fu_state[f].acc = fu.rf_value;
  }

  // --- Active DMA engines ---
  struct ReadEngine {
    DmaCursor cursor;
    std::size_t src_index;
    bool is_cache = false;
    int unit = 0;
    int buffer = 0;
  };
  struct WriteEngine {
    DmaCursor cursor;
    std::size_t dst_index;
    bool is_cache = false;
    int unit = 0;
    int buffer = 0;
    bool done() const { return cursor.done(); }
  };
  std::vector<ReadEngine> reads;
  std::vector<WriteEngine> writes;

  for (int p = 0; p < cfg.num_memory_planes; ++p) {
    const DmaPlan& dma = plan.plane[static_cast<std::size_t>(p)];
    if (dma.mode == 0) continue;
    DmaCursor cursor{dma.base, dma.stride, dma.count, dma.count2,
                     dma.stride2};
    // Grow the simulated backing store to cover the touched range.
    const std::int64_t row_span = dma.stride * static_cast<std::int64_t>(dma.count - 1);
    const std::int64_t col_span = dma.stride2 * static_cast<std::int64_t>(dma.count2 - 1);
    std::int64_t hi = static_cast<std::int64_t>(dma.base);
    for (const std::int64_t corner :
         {hi + row_span, hi + col_span, hi + row_span + col_span}) {
      hi = std::max(hi, corner);
    }
    if (static_cast<std::uint64_t>(hi) >= cfg.sim_plane_words) {
      stats.error = true;
      stats.fault = FaultKind::kDmaBounds;
      stats.error_message = strFormat(
          "plane %d DMA touches word %lld beyond the simulated capacity %llu "
          "(raise MachineConfig::sim_plane_words)",
          p, static_cast<long long>(hi),
          static_cast<unsigned long long>(cfg.sim_plane_words));
      return stats;
    }
    state_.ensurePlaneSize(p, static_cast<std::uint64_t>(hi) + 1);
    if (dma.mode == 1) {
      reads.push_back({cursor,
                       static_cast<std::size_t>(
                           machine_.sourceIndex(Endpoint::planeRead(p))),
                       false, p, 0});
    } else {
      writes.push_back({cursor,
                        static_cast<std::size_t>(machine_.destinationIndex(
                            Endpoint::planeWrite(p))),
                        false, p, 0});
    }
  }
  for (int c = 0; c < cfg.num_caches; ++c) {
    const DmaPlan& dma = plan.cache[static_cast<std::size_t>(c)];
    if (dma.mode == 0) continue;
    DmaCursor cursor{dma.base, dma.stride, dma.count, 1, 0};
    if (dma.mode & 1) {
      reads.push_back({cursor,
                       static_cast<std::size_t>(
                           machine_.sourceIndex(Endpoint::cacheRead(c))),
                       true, c, dma.read_buffer});
    }
    if (dma.mode & 2) {
      const int fill_buffer = (dma.read_buffer + 1) % cfg.cache_buffers;
      state_.cacheStore(static_cast<std::size_t>(c),
                        static_cast<std::size_t>(fill_buffer));
      writes.push_back({cursor,
                        static_cast<std::size_t>(machine_.destinationIndex(
                            Endpoint::cacheWrite(c))),
                        true, c, fill_buffer});
    }
  }

  // --- Shift/delay units ---
  struct SdState {
    Ring hist;
    std::vector<std::pair<std::size_t, int>> taps;  // (source index, delay)
    std::size_t in_index = 0;
  };
  std::vector<SdState> sd_state;
  for (int s = 0; s < cfg.num_shift_delay; ++s) {
    const SdPlan& sd = plan.sd[static_cast<std::size_t>(s)];
    if (!sd.enabled) continue;
    SdState state;
    state.hist.init(static_cast<std::size_t>(cfg.sd_max_delay) + 2);
    state.in_index = static_cast<std::size_t>(
        machine_.destinationIndex(Endpoint::sdInput(s)));
    for (std::size_t t = 0; t < sd.taps.size(); ++t) {
      state.taps.push_back(
          {static_cast<std::size_t>(machine_.sourceIndex(
               Endpoint::sdOutput(s, static_cast<int>(t)))),
           sd.taps[t]});
    }
    sd_state.push_back(std::move(state));
  }

  // --- Switch routing table (skip self-managed chain paths) ---
  std::vector<std::pair<std::size_t, std::size_t>> routes;  // (dst, src)
  for (std::size_t d = 0; d < plan.route.size(); ++d) {
    if (plan.route[d] > 0) {
      routes.push_back({d, static_cast<std::size_t>(plan.route[d] - 1)});
    }
  }

  // List of enabled FUs in id order (ALS slot order, so chain inputs are
  // computed before their consumers within one cycle).
  std::vector<int> active_fus;
  for (std::size_t f = 0; f < plan.fu.size(); ++f) {
    if (plan.fu[f].enabled) active_fus.push_back(static_cast<int>(f));
  }

  const int cond_src_index =
      plan.cond_enable
          ? machine_.sourceIndex(Endpoint::fuOutput(plan.cond_src_fu))
          : -1;
  bool cond_fired = false;

  const std::uint64_t drain_budget = drainBudget(cfg);
  std::uint64_t drain = 0;

  std::uint64_t cycle = 0;
  for (;; ++cycle) {
    if (cycle >= options_.max_cycles_per_instruction) {
      stats.error = true;
      stats.fault = FaultKind::kTimeout;
      stats.error_message = strFormat(
          "instruction %d did not complete within %llu cycles", instr_index,
          static_cast<unsigned long long>(options_.max_cycles_per_instruction));
      stats.cycles = cycle;
      return stats;
    }

    // Phase 1a: DMA read engines produce this cycle's tokens.
    for (ReadEngine& rd : reads) {
      Token tok = Token::invalid();
      if (!rd.cursor.done()) {
        const std::uint64_t element = rd.cursor.element;
        const std::uint64_t addr = rd.cursor.nextAddr();
        double value = 0.0;
        if (rd.is_cache) {
          const auto& mem = state_.caches[static_cast<std::size_t>(rd.unit)]
                                         [static_cast<std::size_t>(rd.buffer)];
          if (addr < mem.size()) value = mem[addr];
        } else {
          const auto& mem = state_.planes[static_cast<std::size_t>(rd.unit)];
          if (addr < mem.size()) value = mem[addr];
        }
        tok = Token{value, true, rd.cursor.done(),
                    static_cast<std::int32_t>(element)};
      }
      src_out[rd.src_index] = tok;
    }

    // Phase 1b: shift/delay taps produce delayed copies.
    for (SdState& sd : sd_state) {
      for (const auto& [src_index, delay] : sd.taps) {
        const std::size_t n = sd.hist.slots.size();
        const std::size_t at =
            (sd.hist.pos + n - 1 - static_cast<std::size_t>(delay) % n) % n;
        src_out[src_index] = sd.hist.slots[at];
      }
    }

    // Phase 1c: functional units consume and launch.
    for (const int f : active_fus) {
      const FuPlan& fu = plan.fu[static_cast<std::size_t>(f)];
      FuState& state = fu_state[static_cast<std::size_t>(f)];

      auto operand = [&](int port, arch::InputSelect sel) -> Token {
        switch (sel) {
          case arch::InputSelect::kSwitch:
          case arch::InputSelect::kChain: {
            Token tok;
            if (sel == arch::InputSelect::kChain) {
              // Hardwired path from the previous slot's output, same cycle.
              const int prev = f - 1;
              const int src = machine_.sourceIndex(Endpoint::fuOutput(prev));
              tok = src >= 0 ? src_out[static_cast<std::size_t>(src)]
                             : Token::invalid();
            } else {
              const int dst =
                  machine_.destinationIndex(Endpoint::fuInput(f, port));
              tok = dst >= 0 ? dst_in[static_cast<std::size_t>(dst)]
                             : Token::invalid();
            }
            if (state.has_queue && fu.rf_delay_port == port) {
              tok = state.rf_queue.shift(tok);
            }
            return tok;
          }
          case arch::InputSelect::kRegisterFile:
            return Token::constant(fu.rf_value);
          case arch::InputSelect::kFeedback:
            return Token{state.acc, true, false, -1};
          case arch::InputSelect::kNone:
            return Token::invalid();
        }
        return Token::invalid();
      };

      const Token a = operand(0, fu.in_a);
      const Token b = operand(1, fu.in_b);

      Token result = Token::invalid();
      if (fu.rf_mode == arch::RfMode::kAccum) {
        // One stream input plus the feedback accumulator; the unit emits
        // the running value tagged valid only on the final element.
        const bool a_is_stream = fu.in_a != arch::InputSelect::kFeedback;
        const Token& stream = a_is_stream ? a : b;
        if (stream.valid) {
          state.acc = arch::evalOp(fu.op, a.value, b.value);
          if (fu.counts_flop) ++stats.flops;
          ++state_.fu_launches[static_cast<std::size_t>(f)];
        }
        result = Token{state.acc, stream.valid && stream.last,
                       stream.valid && stream.last, stream.index};
      } else {
        const bool a_wired = fu.in_a != arch::InputSelect::kNone;
        const bool b_wired = fu.arity >= 2 && fu.in_b != arch::InputSelect::kNone;
        bool valid = a_wired ? a.valid : false;
        if (b_wired) valid = valid && b.valid;
        // Hazards: two *stream* operands whose validity disagrees (pipeline
        // fill/drain bubbles or genuine misprogramming).  Register-file
        // constants and feedback are valid every cycle by construction and
        // do not count.
        const bool a_stream = fu.in_a == arch::InputSelect::kSwitch ||
                              fu.in_a == arch::InputSelect::kChain;
        const bool b_stream = fu.in_b == arch::InputSelect::kSwitch ||
                              fu.in_b == arch::InputSelect::kChain;
        if (a_stream && b_stream && a.valid != b.valid) ++stats.hazards;
        if (valid) {
          result.value = arch::evalOp(fu.op, a.value, b.value);
          result.valid = true;
          result.last = (a_wired && a.last) || (b_wired && b.last);
          result.index = a.index >= 0 ? a.index : b.index;
          if (fu.counts_flop) ++stats.flops;
          ++state_.fu_launches[static_cast<std::size_t>(f)];
        }
      }

      const int src = machine_.sourceIndex(Endpoint::fuOutput(f));
      src_out[static_cast<std::size_t>(src)] = state.pipe.shift(result);
    }

    // Phase 2a: write engines capture arriving tokens.
    bool writes_done = true;
    for (WriteEngine& wr : writes) {
      if (!wr.done()) {
        const Token tok = dst_in[wr.dst_index];
        if (tok.valid) {
          const std::uint64_t addr = wr.cursor.nextAddr();
          if (wr.is_cache) {
            auto& mem = state_.caches[static_cast<std::size_t>(wr.unit)]
                                     [static_cast<std::size_t>(wr.buffer)];
            if (addr < mem.size()) mem[addr] = tok.value;
          } else {
            auto& mem = state_.planes[static_cast<std::size_t>(wr.unit)];
            if (addr < mem.size()) mem[addr] = tok.value;
          }
        }
      }
      writes_done = writes_done && wr.done();
    }

    // Phase 2b: condition latch watches the source FU's emerging stream.
    if (plan.cond_enable && cond_src_index >= 0) {
      const Token tok = src_out[static_cast<std::size_t>(cond_src_index)];
      if (tok.valid && tok.last) {
        state_.cond[static_cast<std::size_t>(plan.cond_reg)] =
            tok.value > 0.5 ? 1 : 0;
        cond_fired = true;
      }
    }

    if (trace_) {
      TraceFrame frame;
      frame.instruction = instr_index;
      frame.cycle = cycle;
      frame.source_tokens = src_out;
      trace_(frame);
    }

    // Phase 3: switch network transfers (registered: consumers see these
    // tokens next cycle).
    for (const auto& [dst, src] : routes) {
      dst_in[dst] = src_out[src];
    }

    // Phase 4: shift/delay history advances on the freshly routed input.
    for (SdState& sd : sd_state) {
      sd.hist.shift(dst_in[sd.in_index]);
    }

    // Completion: "an elaborate interrupt scheme is used to signal pipeline
    // completions".
    bool reads_done = true;
    for (const ReadEngine& rd : reads) {
      reads_done = reads_done && rd.cursor.done();
    }
    const bool cond_ok = !plan.cond_enable || cond_fired;
    if (!writes.empty()) {
      if (writes_done && cond_ok) {
        ++cycle;
        break;
      }
    } else if (!reads.empty()) {
      if (reads_done && cond_ok) {
        if (++drain > drain_budget) {
          ++cycle;
          break;
        }
      }
    } else {
      ++cycle;
      break;  // control-only instruction
    }
  }

  // Double-buffered caches swap at instruction end when requested.
  for (int c = 0; c < cfg.num_caches; ++c) {
    const DmaPlan& dma = plan.cache[static_cast<std::size_t>(c)];
    if (dma.mode != 0 && dma.swap && cfg.cache_buffers == 2) {
      std::swap(state_.caches[static_cast<std::size_t>(c)][0],
                state_.caches[static_cast<std::size_t>(c)][1]);
    }
  }

  stats.cycles = cycle;
  return stats;
}

SequencerStep sequencerStep(const InstrPlan& plan, int pc, bool cond,
                            std::optional<int>& counter,
                            std::size_t program_size) {
  int next = pc + 1;
  switch (plan.seq_op) {
    case arch::SeqOp::kNext:
      break;
    case arch::SeqOp::kJump:
      next = plan.seq_target;
      break;
    case arch::SeqOp::kBranchIf:
      next = cond ? plan.seq_target : pc + 1;
      break;
    case arch::SeqOp::kBranchNot:
      next = cond ? pc + 1 : plan.seq_target;
      break;
    case arch::SeqOp::kLoop:
      if (!counter.has_value()) counter = plan.seq_count;
      if (--*counter > 0) {
        next = plan.seq_target;
      } else {
        counter.reset();
      }
      break;
    case arch::SeqOp::kHalt:
      return {pc, true};
  }
  return {next, next < 0 || next >= static_cast<int>(program_size)};
}

void NodeSim::applySequencer(const InstrPlan& plan) {
  const bool branch = plan.seq_op == arch::SeqOp::kBranchIf ||
                      plan.seq_op == arch::SeqOp::kBranchNot;
  const SequencerStep step = sequencerStep(
      plan, pc_, branch && cond(plan.seq_cond_reg),
      loop_counters_.at(static_cast<std::size_t>(pc_)), program_->size());
  pc_ = step.pc;
  halted_ = step.halt;
}

InstrStats NodeSim::stepInstruction() {
  const std::size_t program_size = program_ ? program_->size() : 0;
  if (halted_ || program_size == 0) {
    InstrStats stats;
    stats.error = halted_ && program_size == 0;
    return stats;
  }
  const int index = pc_;
  const auto slot = static_cast<std::size_t>(index);
  static const std::string kUnnamed;
  const std::string& name =
      slot < program_->names.size() ? program_->names[slot] : kUnnamed;
  InstrStats stats =
      options_.use_compiled
          ? state_.executeCompiledBatch(program_->instrs[slot], index, name,
                                        options_.max_cycles_per_instruction,
                                        trace_ ? &trace_ : nullptr)
          : execute(program_->plans[slot], index, name);
  if (!stats.error) {
    applySequencer(program_->plans[slot]);
  } else {
    halted_ = true;
  }
  return stats;
}

RunStats NodeSim::run() {
  RunStats stats;
  std::fill(state_.fu_launches.begin(), state_.fu_launches.end(), 0);
  while (!halted_) {
    if (stats.instructions_executed >= options_.max_instructions) {
      stats.error = true;
      stats.error_message = "instruction budget exhausted";
      break;
    }
    InstrStats instr = stepInstruction();
    stats.total_cycles += instr.cycles;
    stats.total_flops += instr.flops;
    stats.total_hazards += instr.hazards;
    ++stats.instructions_executed;
    if (instr.error) {
      stats.error = true;
      stats.fault = instr.fault;
      stats.error_message = instr.error_message;
      stats.trace.push_back(std::move(instr));
      break;
    }
    stats.trace.push_back(std::move(instr));
  }
  stats.halted = halted_;
  stats.fu_launches = state_.fu_launches;
  return stats;
}

}  // namespace nsc::sim
