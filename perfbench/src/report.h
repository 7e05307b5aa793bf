// Measurement plumbing shared by the perfbench workloads: sample sets with
// percentiles, an in-memory span recorder for traced runs, process CPU and
// memory probes, and the result printer whose last line is the JSON object
// perfbench/run.py hands back to its caller.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// A bag of measurements (any unit); percentiles by nearest rank.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  void append(const Samples& other);
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  // p in [0, 1]; 0 when empty.
  double percentile(double p) const;
  double median() const { return percentile(0.5); }
  double sum() const;

 private:
  std::vector<double> values_;
};

// Span recorder for traced runs.  Spans stay in memory and are written once
// when the run ends.  Not thread-safe: each load thread owns one and the
// owners are merged after the threads join.  A disabled tracer records
// nothing, so untraced runs pay one branch per span.
class Tracer {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   // 0 = root
    std::uint64_t request = 0;  // spans of one request share this
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  Tracer(bool enabled, std::uint64_t id_base)
      : enabled_(enabled), next_id_(id_base) {}

  bool enabled() const { return enabled_; }
  void setRequest(std::uint64_t request) { request_ = request; }

  // Opens a span under the innermost open span.  Returns 0 when disabled.
  std::uint64_t begin(const char* name);
  void end(std::uint64_t id);
  // Records an already-measured interval as a child of the open span.
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns);

  void merge(Tracer&& other);

  // Per span name: durations, and self time (duration minus the part of it
  // its child spans cover), in microseconds.
  std::map<std::string, Samples> durationsUs() const;
  std::map<std::string, Samples> selfTimesUs() const;

  // Writes every span as one JSON document; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::uint64_t next_id_;
  std::uint64_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // indices into spans_
};

// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.begin(name)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

// FNV-1a over raw bytes: fingerprints the generated inputs, so a report
// shows that two seeds drew different inputs.
inline std::uint64_t fnv1a(const void* data, std::size_t size,
                           std::uint64_t hash = 0xcbf29ce484222325ull) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash = (hash ^ bytes[i]) * 0x100000001b3ull;
  }
  return hash;
}

// user+sys CPU seconds and peak resident set (VmHWM) of a live process, from
// /proc.  pid 0 means this process.  Negative on failure.
double processCpuSeconds(int pid);
double processPeakRssMb(int pid);

// Collects the run's output.  Human-readable lines go to stdout as they
// come; finish() prints the result object as the very last line.
class Report {
 public:
  void line(const char* format, ...) __attribute__((format(printf, 2, 3)));
  void metric(const std::string& name, double value, const std::string& unit);
  // Exact-count witnesses: printed, and checked against the record an
  // earlier run of the same sources left in `witness_path` (written when
  // absent).  Returns false when a count differs from that record.
  bool witnesses(const std::map<std::string, std::uint64_t>& counts,
                 const std::string& witness_path);
  void finish(bool correct, std::uint64_t attempted, std::uint64_t failed);

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

}  // namespace perfbench
