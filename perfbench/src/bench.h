// perfbench workloads: what one invocation of nsc_perfbench runs.
#pragma once

#include <cstdint>
#include <string>

#include "report.h"

namespace perfbench {

struct RunOptions {
  std::string workload;      // sessions | mixed | solve
  std::uint64_t seed = 1;
  double seconds = 10.0;     // measured window
  bool trace = false;        // per-layer traced run instead of end-to-end
  std::string work_dir;      // per-run scratch: port files, checkpoints
  std::string state_dir;     // kept across runs: witnesses, traces, results
  std::string serve_path;    // the nsc_serve binary built alongside
  std::string source_digest; // keys the witness record to these sources
  // Test hook: flip one word of the in-process reference so the
  // correctness gate must fire.
  bool corrupt_reference = false;
};

// Each returns the process exit code after printing its report; nonzero
// when any reply was wrong, a witness count moved, or the run was invalid.
int runServed(const RunOptions& options, Report& report);  // sessions, mixed
int runSolve(const RunOptions& options, Report& report);

// Where the exact-count witnesses of this workload and these sources live:
// every run, whatever its seed, must reproduce them.
std::string witnessPath(const RunOptions& options);

// The end-to-end figures every workload reports (BENCHMARK.json
// "end_to_end"; METHOD.md defines each per workload).
struct EndToEnd {
  double setup_s = 0;
  double throughput_rps = 0;
  double latency_p50_ms = 0;
  double latency_tail_ms = 0;
  double cpu_ms_per_op = 0;
  double peak_rss_mb = 0;
};
// Untraced runs emit the figures as the result's metrics and keep them for
// the traced run of the same (workload, seed); traced runs print them with
// their overhead against that record instead.
void reportEndToEnd(const RunOptions& options, const EndToEnd& figures,
                    Report& report);

// The per-layer metrics every workload reports (BENCHMARK.json
// "per_layer").  A layer the workload does not reach keeps its zero.
struct LayerMetrics {
  double generate_us = 0;      // microcode.generate_us
  double compile_miss_us = 0;  // sim.compile_miss_us
  double cache_hit_us = 0;     // sim.cache_hit_us
  double verify_us = 0;        // sim.verify_us
  double engine_us = 0;        // sim.engine_us
  double host_ns_per_cycle = 0;
  double cycles = 0;           // exact, per session / batch request / solve
  double flops = 0;
  double replicas_batched = 0;
  double nodes_batched = 0;
  double comm_cycle_share = 0;
  double sweeps = 0;           // cfd.sweeps
  double checker_session_hits = 0;
  double cache_hit_share = 0;
  double restored_share = 0;
  double reject_share = 0;
  double request_bytes = 0;
  double reply_bytes = 0;
  double tasks_submitted = 0;  // exec, per engine call
  double tasks_inline = 0;
  double peak_queue_depth = 0;
};
void reportLayers(const LayerMetrics& layers, Report& report);

}  // namespace perfbench
