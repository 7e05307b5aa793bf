// nsc_perfbench: one workload run of the repository's benchmark.
//
//   nsc_perfbench --workload sessions|mixed|solve --seed N --seconds S
//                    --trace 0|1 --work-dir DIR --state-dir DIR
//                    [--git-commit C] [--source-digest D]
//
// perfbench/run.py builds this binary and nsc_serve in Release and calls it;
// perfbench/METHOD.md describes the workloads and metrics.  The last line of
// stdout is the result object; everything above it is for people.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "bench.h"
#include "common/env.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SERVE_PATH
#define PERFBENCH_SERVE_PATH "nsc_serve"
#endif

namespace perfbench {

namespace {

std::string untracedPath(const RunOptions& options) {
  return options.state_dir + "/untraced-" + options.workload + "-" +
         std::to_string(options.seed) + ".txt";
}

const char* envOr(const char* name) {
  const char* value = std::getenv(name);
  return value == nullptr ? "unset" : value;
}

}  // namespace

std::string witnessPath(const RunOptions& options) {
  return options.state_dir + "/witness-" + options.workload + "-" +
         options.source_digest + ".txt";
}

void reportEndToEnd(const RunOptions& options, const EndToEnd& figures,
                    Report& report) {
  const struct {
    const char* name;
    double value;
    const char* unit;
  } metrics[] = {
      {"setup_s", figures.setup_s, "s"},
      {"throughput_rps", figures.throughput_rps, "1/s"},
      {"latency_p50_ms", figures.latency_p50_ms, "ms"},
      {"latency_tail_ms", figures.latency_tail_ms, "ms"},
      {"cpu_ms_per_op", figures.cpu_ms_per_op, "ms"},
      {"peak_rss_mb", figures.peak_rss_mb, "MB"},
  };
  if (!options.trace) {
    std::ofstream out(untracedPath(options));
    for (const auto& m : metrics) {
      report.metric(m.name, m.value, m.unit);
      char text[64];
      std::snprintf(text, sizeof(text), "%.17g", m.value);
      out << m.name << " " << text << "\n";
    }
    return;
  }
  std::ifstream in(untracedPath(options));
  std::map<std::string, double> untraced;
  std::string name;
  double value = 0;
  while (in >> name >> value) untraced[name] = value;
  report.line("traced end-to-end figures, with tracing overhead against the "
              "untraced run of seed %llu:",
              static_cast<unsigned long long>(options.seed));
  for (const auto& m : metrics) {
    const auto it = untraced.find(m.name);
    if (it == untraced.end() || it->second == 0) {
      report.line("  %-16s %12.4f  (no untraced run of this seed recorded)",
                  m.name, m.value);
    } else {
      report.line("  %-16s %12.4f  untraced %12.4f  overhead %+7.2f%%",
                  m.name, m.value, it->second,
                  100.0 * (m.value - it->second) / it->second);
    }
  }
}

void reportLayers(const LayerMetrics& l, Report& report) {
  report.metric("microcode.generate_us", l.generate_us, "us");
  report.metric("sim.compile_miss_us", l.compile_miss_us, "us");
  report.metric("sim.cache_hit_us", l.cache_hit_us, "us");
  report.metric("sim.verify_us", l.verify_us, "us");
  report.metric("sim.engine_us", l.engine_us, "us");
  report.metric("sim.host_ns_per_cycle", l.host_ns_per_cycle, "ns");
  report.metric("sim.cycles", l.cycles, "count");
  report.metric("sim.flops", l.flops, "count");
  report.metric("sim.replicas_batched", l.replicas_batched, "count");
  report.metric("sim.nodes_batched", l.nodes_batched, "count");
  report.metric("sim.comm_cycle_share", l.comm_cycle_share, "share");
  report.metric("cfd.sweeps", l.sweeps, "count");
  report.metric("service.checker_session_hits", l.checker_session_hits,
                "count");
  report.metric("service.cache_hit_share", l.cache_hit_share, "share");
  report.metric("service.restored_share", l.restored_share, "share");
  report.metric("service.reject_share", l.reject_share, "share");
  report.metric("net.request_bytes", l.request_bytes, "bytes");
  report.metric("net.reply_bytes", l.reply_bytes, "bytes");
  report.metric("exec.tasks_submitted", l.tasks_submitted, "count");
  report.metric("exec.tasks_inline", l.tasks_inline, "count");
  report.metric("exec.peak_queue_depth", l.peak_queue_depth, "count");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::RunOptions;
  RunOptions options;
  options.serve_path = PERFBENCH_SERVE_PATH;
  std::string git_commit = "unknown";
  options.source_digest = "unknown";
  bool bad = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      const auto v = nsc::common::parseInt(argv[++i]);
      bad = bad || !v || *v < 0;
      if (v) options.seed = static_cast<std::uint64_t>(*v);
    } else if (arg == "--seconds" && has_value) {
      const auto v = nsc::common::parseInt(argv[++i]);
      bad = bad || !v || *v < 1 || *v > 600;
      if (v) options.seconds = static_cast<double>(*v);
    } else if (arg == "--trace" && has_value) {
      const std::string v = argv[++i];
      bad = bad || (v != "0" && v != "1");
      options.trace = v == "1";
    } else if (arg == "--work-dir" && has_value) {
      options.work_dir = argv[++i];
    } else if (arg == "--state-dir" && has_value) {
      options.state_dir = argv[++i];
    } else if (arg == "--git-commit" && has_value) {
      git_commit = argv[++i];
    } else if (arg == "--source-digest" && has_value) {
      options.source_digest = argv[++i];
    } else if (arg == "--corrupt-reference") {
      options.corrupt_reference = true;
    } else {
      bad = true;
    }
  }
  if (options.workload != "sessions" && options.workload != "mixed" &&
      options.workload != "solve") {
    bad = true;
  }
  if (bad || options.work_dir.empty() || options.state_dir.empty()) {
    std::fprintf(stderr,
                 "usage: nsc_perfbench --workload sessions|mixed|solve "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR "
                 "--state-dir DIR\n");
    return 2;
  }
#ifdef NDEBUG
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release" || !optimized) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  std::filesystem::create_directories(options.work_dir);
  std::filesystem::create_directories(options.state_dir);

  perfbench::Report report;
  report.line("stamp: workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
              "compiler=\"%s %s\" build_type=%s git_commit=%s "
              "source_digest=%s NSC_THREADS=%s NSC_ENSEMBLE_LANES=%s "
              "NSC_NODE_LANES=%s",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, std::thread::hardware_concurrency(),
#if defined(__clang__)
              "clang",
#elif defined(__GNUC__)
              "gcc",
#else
              "c++",
#endif
              __VERSION__, PERFBENCH_BUILD_TYPE, git_commit.c_str(),
              options.source_digest.c_str(), perfbench::envOr("NSC_THREADS"),
              perfbench::envOr("NSC_ENSEMBLE_LANES"),
              perfbench::envOr("NSC_NODE_LANES"));
  return options.workload == "solve" ? perfbench::runSolve(options, report)
                                     : perfbench::runServed(options, report);
}
