#include "sim/compiled.h"

#include <algorithm>
#include <mutex>

#include "arch/microword_spec.h"
#include "common/strings.h"
#include "sim/value_program.h"
#include "sim/verify.h"

namespace nsc::sim {

using arch::Endpoint;
using arch::MicrowordSpec;
using common::strFormat;

namespace {

// A microword field resolved to its bit range.  decode runs per word (and
// the same program is recompiled per bench iteration), so the name-keyed
// spec lookups — strFormat plus a hash probe per field — are hoisted into
// a table built once per compile.
struct FieldRef {
  std::size_t offset = 0;
  std::size_t width = 0;
  std::uint64_t get(const common::BitVector& w) const {
    return w.field(offset, width);
  }
  std::int64_t getSigned(const common::BitVector& w) const {
    std::uint64_t raw = w.field(offset, width);
    if (width < 64 && (raw & (std::uint64_t{1} << (width - 1)))) {
      raw |= ~((std::uint64_t{1} << width) - 1);  // sign extend
    }
    return static_cast<std::int64_t>(raw);
  }
};

struct DecodeTable {
  struct FuFields {
    FieldRef enable, opcode, in_a_sel, in_b_sel, rf_mode, rf_delay, rf_addr;
  };
  struct PlaneFields {
    FieldRef mode, base, stride, count, count2, stride2;
  };
  struct CacheFields {
    FieldRef mode, base, stride, count, read_buffer, swap;
  };
  struct SdFields {
    FieldRef enable;
    std::vector<FieldRef> taps;
  };
  std::vector<FuFields> fu;
  std::vector<FieldRef> sw;  // per destination
  std::vector<PlaneFields> plane;
  std::vector<CacheFields> cache;
  std::vector<SdFields> sd;
  FieldRef cond_enable, cond_src_fu, cond_reg;
  FieldRef seq_op, seq_target, seq_cond_reg, seq_count;

  DecodeTable(const arch::Machine& machine, const MicrowordSpec& spec) {
    const arch::MachineConfig& cfg = machine.config();
    const auto ref = [&spec](const std::string& name) {
      const arch::MicroField& f = spec.field(name);
      return FieldRef{f.offset, f.width};
    };
    fu.resize(static_cast<std::size_t>(cfg.numFus()));
    for (const arch::FuInfo& info : machine.fus()) {
      FuFields& f = fu[static_cast<std::size_t>(info.id)];
      f.enable = ref(MicrowordSpec::fuField(info.id, "enable"));
      f.opcode = ref(MicrowordSpec::fuField(info.id, "opcode"));
      f.in_a_sel = ref(MicrowordSpec::fuField(info.id, "in_a_sel"));
      f.in_b_sel = ref(MicrowordSpec::fuField(info.id, "in_b_sel"));
      f.rf_mode = ref(MicrowordSpec::fuField(info.id, "rf_mode"));
      f.rf_delay = ref(MicrowordSpec::fuField(info.id, "rf_delay"));
      f.rf_addr = ref(MicrowordSpec::fuField(info.id, "rf_addr"));
    }
    sw.resize(machine.destinations().size());
    for (std::size_t d = 0; d < sw.size(); ++d) {
      sw[d] = ref(MicrowordSpec::switchField(static_cast<int>(d)));
    }
    plane.resize(static_cast<std::size_t>(cfg.num_memory_planes));
    for (arch::PlaneId p = 0; p < cfg.num_memory_planes; ++p) {
      PlaneFields& f = plane[static_cast<std::size_t>(p)];
      f.mode = ref(MicrowordSpec::planeField(p, "mode"));
      f.base = ref(MicrowordSpec::planeField(p, "base"));
      f.stride = ref(MicrowordSpec::planeField(p, "stride"));
      f.count = ref(MicrowordSpec::planeField(p, "count"));
      f.count2 = ref(MicrowordSpec::planeField(p, "count2"));
      f.stride2 = ref(MicrowordSpec::planeField(p, "stride2"));
    }
    cache.resize(static_cast<std::size_t>(cfg.num_caches));
    for (arch::CacheId c = 0; c < cfg.num_caches; ++c) {
      CacheFields& f = cache[static_cast<std::size_t>(c)];
      f.mode = ref(MicrowordSpec::cacheField(c, "mode"));
      f.base = ref(MicrowordSpec::cacheField(c, "base"));
      f.stride = ref(MicrowordSpec::cacheField(c, "stride"));
      f.count = ref(MicrowordSpec::cacheField(c, "count"));
      f.read_buffer = ref(MicrowordSpec::cacheField(c, "read_buffer"));
      f.swap = ref(MicrowordSpec::cacheField(c, "swap"));
    }
    sd.resize(static_cast<std::size_t>(cfg.num_shift_delay));
    for (arch::SdId s = 0; s < cfg.num_shift_delay; ++s) {
      SdFields& f = sd[static_cast<std::size_t>(s)];
      f.enable = ref(MicrowordSpec::sdField(s, "enable"));
      for (int t = 0; t < cfg.sd_taps; ++t) {
        f.taps.push_back(ref(MicrowordSpec::sdField(s, strFormat("tap%d", t))));
      }
    }
    cond_enable = ref("cond.enable");
    cond_src_fu = ref("cond.src_fu");
    cond_reg = ref("cond.reg");
    seq_op = ref("seq.op");
    seq_target = ref("seq.target");
    seq_cond_reg = ref("seq.cond_reg");
    seq_count = ref("seq.count");
  }
};

// Decodes one microword into an InstrPlan.  This is the seed's
// NodeSim::decode moved to the compile phase: the same bit fields, read
// through the pre-resolved table, once per program instead of once per
// node.
InstrPlan decodePlan(const arch::Machine& machine, const DecodeTable& table,
                     const std::vector<std::vector<double>>& rf_images,
                     const common::BitVector& word) {
  const arch::MachineConfig& cfg = machine.config();
  InstrPlan plan;

  plan.fu.resize(static_cast<std::size_t>(cfg.numFus()));
  for (const arch::FuInfo& info : machine.fus()) {
    FuPlan& fu = plan.fu[static_cast<std::size_t>(info.id)];
    const DecodeTable::FuFields& f = table.fu[static_cast<std::size_t>(info.id)];
    fu.enabled = f.enable.get(word) != 0;
    if (!fu.enabled) continue;
    fu.op = static_cast<arch::OpCode>(f.opcode.get(word));
    fu.in_a = static_cast<arch::InputSelect>(f.in_a_sel.get(word));
    fu.in_b = static_cast<arch::InputSelect>(f.in_b_sel.get(word));
    fu.rf_mode = static_cast<arch::RfMode>(f.rf_mode.get(word));
    fu.rf_delay = static_cast<int>(f.rf_delay.get(word));
    const auto rf_addr = static_cast<std::size_t>(f.rf_addr.get(word));
    if (fu.rf_mode == arch::RfMode::kDelay) {
      fu.rf_delay_port = static_cast<int>(rf_addr & 1);
    }
    const bool needs_const = fu.in_a == arch::InputSelect::kRegisterFile ||
                             fu.in_b == arch::InputSelect::kRegisterFile ||
                             fu.rf_mode == arch::RfMode::kAccum;
    if (needs_const) {
      const auto& image = rf_images[static_cast<std::size_t>(info.id)];
      fu.rf_value = rf_addr < image.size() ? image[rf_addr] : 0.0;
    }
    const arch::OpInfo& op = arch::opInfo(fu.op);
    fu.latency = std::max(1, op.latency);
    fu.counts_flop = op.counts_as_flop;
    fu.arity = op.arity;
  }

  plan.route.resize(machine.destinations().size(), 0);
  for (std::size_t d = 0; d < plan.route.size(); ++d) {
    plan.route[d] = static_cast<int>(table.sw[d].get(word));
  }

  plan.plane.resize(static_cast<std::size_t>(cfg.num_memory_planes));
  for (arch::PlaneId p = 0; p < cfg.num_memory_planes; ++p) {
    DmaPlan& dma = plan.plane[static_cast<std::size_t>(p)];
    const DecodeTable::PlaneFields& f = table.plane[static_cast<std::size_t>(p)];
    dma.mode = static_cast<int>(f.mode.get(word));
    if (dma.mode == 0) continue;
    dma.base = f.base.get(word);
    dma.stride = f.stride.getSigned(word);
    dma.count = f.count.get(word);
    dma.count2 = std::max<std::uint64_t>(1, f.count2.get(word));
    dma.stride2 = f.stride2.getSigned(word);
    (dma.mode == 1 ? plan.has_reads : plan.has_writes) = true;
  }

  plan.cache.resize(static_cast<std::size_t>(cfg.num_caches));
  for (arch::CacheId c = 0; c < cfg.num_caches; ++c) {
    DmaPlan& dma = plan.cache[static_cast<std::size_t>(c)];
    const DecodeTable::CacheFields& f = table.cache[static_cast<std::size_t>(c)];
    dma.mode = static_cast<int>(f.mode.get(word));
    if (dma.mode == 0) continue;
    dma.base = f.base.get(word);
    dma.stride = f.stride.getSigned(word);
    dma.count = f.count.get(word);
    dma.read_buffer = static_cast<int>(f.read_buffer.get(word));
    dma.swap = f.swap.get(word) != 0;
    if (dma.mode & 1) plan.has_reads = true;
    if (dma.mode & 2) plan.has_writes = true;
  }

  plan.sd.resize(static_cast<std::size_t>(cfg.num_shift_delay));
  for (arch::SdId s = 0; s < cfg.num_shift_delay; ++s) {
    SdPlan& sd = plan.sd[static_cast<std::size_t>(s)];
    const DecodeTable::SdFields& f = table.sd[static_cast<std::size_t>(s)];
    sd.enabled = f.enable.get(word) != 0;
    if (!sd.enabled) continue;
    for (int t = 0; t < cfg.sd_taps; ++t) {
      sd.taps.push_back(
          static_cast<int>(f.taps[static_cast<std::size_t>(t)].get(word)));
    }
  }

  plan.cond_enable = table.cond_enable.get(word) != 0;
  plan.cond_src_fu = static_cast<int>(table.cond_src_fu.get(word));
  plan.cond_reg = static_cast<int>(table.cond_reg.get(word));
  plan.seq_op = static_cast<arch::SeqOp>(table.seq_op.get(word));
  plan.seq_target = static_cast<int>(table.seq_target.get(word));
  plan.seq_cond_reg = static_cast<int>(table.seq_cond_reg.get(word));
  plan.seq_count = static_cast<int>(table.seq_count.get(word));
  return plan;
}

CompiledOperand lowerOperand(const arch::Machine& machine, arch::FuId f,
                             int port, const FuPlan& fu,
                             arch::InputSelect sel) {
  CompiledOperand out;
  switch (sel) {
    case arch::InputSelect::kSwitch:
      out.kind = OperandKind::kSwitch;
      out.index = machine.destinationIndex(Endpoint::fuInput(f, port));
      break;
    case arch::InputSelect::kChain:
      out.kind = OperandKind::kChain;
      // Hardwired path from the previous slot's output; slot 0 of the node
      // has no predecessor and reads a permanently invalid stream.
      out.index =
          f > 0 ? machine.sourceIndex(Endpoint::fuOutput(f - 1)) : -1;
      break;
    case arch::InputSelect::kRegisterFile:
      out.kind = OperandKind::kConst;
      break;
    case arch::InputSelect::kFeedback:
      out.kind = OperandKind::kFeedback;
      break;
    case arch::InputSelect::kNone:
      out.kind = OperandKind::kNone;
      break;
  }
  // The delay queue sits on the switch/chain path of the configured port
  // only (the interpreter shifts it inside the same operand fetch).
  out.queue = (out.kind == OperandKind::kSwitch ||
               out.kind == OperandKind::kChain) &&
              fu.rf_mode == arch::RfMode::kDelay && fu.rf_delay > 0 &&
              fu.rf_delay_port == port;
  out.wired = sel != arch::InputSelect::kNone;
  out.stream = sel == arch::InputSelect::kSwitch ||
               sel == arch::InputSelect::kChain;
  return out;
}

CompiledInstr lowerPlan(const arch::Machine& machine, const InstrPlan& plan) {
  const arch::MachineConfig& cfg = machine.config();
  CompiledInstr ci;

  // Functional units: enabled only, ALS slot order (chain inputs are
  // produced before their consumers within one cycle).
  for (std::size_t f = 0; f < plan.fu.size(); ++f) {
    const FuPlan& fu = plan.fu[f];
    if (!fu.enabled) continue;
    CompiledFu cf;
    cf.fu = static_cast<arch::FuId>(f);
    cf.op = fu.op;
    cf.a = lowerOperand(machine, cf.fu, 0, fu, fu.in_a);
    cf.b = lowerOperand(machine, cf.fu, 1, fu, fu.in_b);
    // A unary op never samples its B operand for launch validity.
    cf.b.wired = cf.b.wired && fu.arity >= 2;
    cf.is_accum = fu.rf_mode == arch::RfMode::kAccum;
    cf.accum_stream_is_a = fu.in_a != arch::InputSelect::kFeedback;
    cf.rf_value = fu.rf_value;
    cf.counts_flop = fu.counts_flop;
    cf.out_src = machine.sourceIndex(Endpoint::fuOutput(cf.fu));
    cf.pipe_len = static_cast<std::uint32_t>(std::max(1, fu.latency));
    if (fu.rf_mode == arch::RfMode::kDelay && fu.rf_delay > 0) {
      cf.rfq_len = static_cast<std::uint32_t>(fu.rf_delay);
    }
    ci.fus.push_back(cf);
  }

  // Plane DMA engines, with the touched range pre-computed so the backing
  // stores grow (or the instruction faults) once at issue, not per cycle.
  for (int p = 0; p < cfg.num_memory_planes; ++p) {
    const DmaPlan& dma = plan.plane[static_cast<std::size_t>(p)];
    if (dma.mode == 0) continue;
    const std::int64_t row_span =
        dma.stride * static_cast<std::int64_t>(dma.count - 1);
    const std::int64_t col_span =
        dma.stride2 * static_cast<std::int64_t>(dma.count2 - 1);
    std::int64_t hi = static_cast<std::int64_t>(dma.base);
    for (const std::int64_t corner :
         {hi + row_span, hi + col_span, hi + row_span + col_span}) {
      hi = std::max(hi, corner);
    }
    if (static_cast<std::uint64_t>(hi) >= cfg.sim_plane_words &&
        ci.fault.kind == FaultKind::kNone) {
      ci.fault.kind = FaultKind::kDmaBounds;
      ci.fault.endpoint = dma.mode == 1 ? Endpoint::planeRead(p)
                                        : Endpoint::planeWrite(p);
      ci.fault.address = hi;
      ci.fault.message = strFormat(
          "plane %d DMA touches word %lld beyond the simulated capacity %llu "
          "(raise MachineConfig::sim_plane_words)",
          p, static_cast<long long>(hi),
          static_cast<unsigned long long>(cfg.sim_plane_words));
    }
    // The interpreter grows backing stores plane-by-plane and bails at the
    // first out-of-range engine; record grows only for planes it reaches.
    if (ci.fault.kind == FaultKind::kNone) {
      ci.plane_grows.push_back({p, static_cast<std::uint64_t>(hi) + 1});
    }
    CompiledDma eng;
    eng.base = dma.base;
    eng.stride = dma.stride;
    eng.count = dma.count;
    eng.count2 = dma.count2;
    eng.stride2 = dma.stride2;
    eng.total = dma.count * dma.count2;
    eng.is_cache = false;
    eng.unit = p;
    eng.buffer = 0;
    if (dma.mode == 1) {
      eng.endpoint = machine.sourceIndex(Endpoint::planeRead(p));
      ci.reads.push_back(eng);
    } else {
      eng.endpoint = machine.destinationIndex(Endpoint::planeWrite(p));
      ci.writes.push_back(eng);
    }
  }

  // Cache engines: single-level addressing; fills target the back buffer.
  for (int c = 0; c < cfg.num_caches; ++c) {
    const DmaPlan& dma = plan.cache[static_cast<std::size_t>(c)];
    if (dma.mode == 0) continue;
    CompiledDma eng;
    eng.base = dma.base;
    eng.stride = dma.stride;
    eng.count = dma.count;
    eng.count2 = 1;
    eng.stride2 = 0;
    eng.total = dma.count;
    eng.is_cache = true;
    eng.unit = c;
    if (dma.mode & 1) {
      eng.buffer = dma.read_buffer;
      eng.endpoint = machine.sourceIndex(Endpoint::cacheRead(c));
      ci.reads.push_back(eng);
    }
    if (dma.mode & 2) {
      eng.buffer = (dma.read_buffer + 1) % cfg.cache_buffers;
      eng.endpoint = machine.destinationIndex(Endpoint::cacheWrite(c));
      ci.writes.push_back(eng);
    }
    if (dma.swap && cfg.cache_buffers == 2) {
      ci.swaps.push_back(c);
    }
  }

  // Shift/delay units: each tap's delay behind the routed input.  The
  // history ring holds sd_max_delay + 2 tokens, so a deeper tap wraps.
  const auto history = static_cast<std::uint32_t>(cfg.sd_max_delay) + 2;
  for (int s = 0; s < cfg.num_shift_delay; ++s) {
    const SdPlan& sd = plan.sd[static_cast<std::size_t>(s)];
    if (!sd.enabled) continue;
    CompiledSd cs;
    cs.in_dst = machine.destinationIndex(Endpoint::sdInput(s));
    for (std::size_t t = 0; t < sd.taps.size(); ++t) {
      CompiledSdTap tap;
      tap.src = machine.sourceIndex(
          Endpoint::sdOutput(s, static_cast<int>(t)));
      tap.delay = static_cast<std::uint32_t>(sd.taps[t]) % history;
      cs.taps.push_back(tap);
    }
    ci.sds.push_back(std::move(cs));
  }

  // Switch routing table (route value 0 = unrouted).
  for (std::size_t d = 0; d < plan.route.size(); ++d) {
    if (plan.route[d] > 0) {
      ci.routes.push_back({static_cast<std::int32_t>(d),
                           static_cast<std::int32_t>(plan.route[d] - 1)});
    }
  }

  ci.cond_enable = plan.cond_enable;
  if (plan.cond_enable) {
    ci.cond_src = machine.sourceIndex(Endpoint::fuOutput(plan.cond_src_fu));
    ci.cond_reg = plan.cond_reg;
  }
  return ci;
}

}  // namespace

namespace {

// One decode table per (cached) spec: the spec cache already collapses
// machines with equal configs onto one immutable spec, so pointer identity
// is the key.
std::shared_ptr<const DecodeTable> sharedDecodeTable(
    const arch::Machine& machine,
    const std::shared_ptr<const MicrowordSpec>& spec) {
  struct Entry {
    const MicrowordSpec* spec;
    std::shared_ptr<const DecodeTable> table;
  };
  static std::mutex mutex;
  static std::vector<Entry> cache;
  std::lock_guard<std::mutex> lock(mutex);
  for (const Entry& e : cache) {
    if (e.spec == spec.get()) return e.table;
  }
  cache.push_back(
      {spec.get(), std::make_shared<const DecodeTable>(machine, *spec)});
  return cache.back().table;
}

}  // namespace

std::shared_ptr<const CompiledProgram> CompiledProgram::compile(
    const arch::Machine& machine, const mc::Executable& exe) {
  const std::shared_ptr<const MicrowordSpec> spec =
      MicrowordSpec::shared(machine);
  const DecodeTable& table = *sharedDecodeTable(machine, spec);
  auto program = std::make_shared<CompiledProgram>();
  program->names = exe.names;
  program->fingerprint = exe.fingerprint();

  std::vector<std::vector<double>> rf_images(
      static_cast<std::size_t>(machine.config().numFus()));
  for (const auto& [fu, image] : exe.rf_images) {
    rf_images.at(static_cast<std::size_t>(fu)) = image;
  }

  program->plans.reserve(exe.words.size());
  program->instrs.reserve(exe.words.size());
  for (std::size_t i = 0; i < exe.words.size(); ++i) {
    program->plans.push_back(
        decodePlan(machine, table, rf_images, exe.words[i]));
    program->instrs.push_back(lowerPlan(machine, program->plans.back()));
  }

  // One window analysis per instruction feeds both the verifier (its
  // report rides the shared program pointer through the cache) and the
  // value-program builder.
  std::vector<InstrWindows> windows;
  windows.reserve(program->instrs.size());
  for (const CompiledInstr& ci : program->instrs) {
    windows.push_back(analyzeWindows(machine, ci));
  }
  program->verify = std::make_shared<VerifyReport>(
      ProgramVerifier(machine).verify(*program, windows));
  for (std::size_t i = 0; i < program->instrs.size(); ++i) {
    program->instrs[i].value =
        buildValueProgram(machine, program->instrs[i], windows[i]);
  }
  return program;
}

}  // namespace nsc::sim
