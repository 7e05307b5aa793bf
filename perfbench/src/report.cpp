#include "report.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace perfbench {

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(p * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double Samples::sum() const {
  double total = 0.0;
  for (const double v : values_) total += v;
  return total;
}

std::uint64_t Tracer::begin(const char* name) {
  if (!enabled_) return 0;
  Span span;
  span.id = next_id_++;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.request = request_;
  span.name = name;
  span.start_ns = nowNs();
  open_.push_back(spans_.size());
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::end(std::uint64_t id) {
  if (!enabled_ || open_.empty()) return;
  Span& span = spans_[open_.back()];
  if (span.id != id) return;  // mismatched nesting: leave the span open
  span.end_ns = nowNs();
  open_.pop_back();
}

void Tracer::record(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns) {
  if (!enabled_) return;
  Span span;
  span.id = next_id_++;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.request = request_;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
}

void Tracer::merge(Tracer&& other) {
  spans_.insert(spans_.end(), std::make_move_iterator(other.spans_.begin()),
                std::make_move_iterator(other.spans_.end()));
  other.spans_.clear();
}

std::map<std::string, Samples> Tracer::durationsUs() const {
  std::map<std::string, Samples> out;
  for (const Span& span : spans_) {
    out[span.name].add(static_cast<double>(span.end_ns - span.start_ns) /
                       1000.0);
  }
  return out;
}

std::map<std::string, Samples> Tracer::selfTimesUs() const {
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const Span& span : spans_) {
    if (span.parent != 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, Samples> out;
  for (const Span& span : spans_) {
    const auto it = child_ns.find(span.id);
    const std::int64_t children = it == child_ns.end() ? 0 : it->second;
    const std::int64_t self =
        std::max<std::int64_t>(0, span.end_ns - span.start_ns - children);
    out[span.name].add(static_cast<double>(self) / 1000.0);
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

namespace {

// The /proc file of `pid` (0 = this process).
std::string procPath(int pid, const char* file) {
  return pid == 0 ? std::string("/proc/self/") + file
                  : "/proc/" + std::to_string(pid) + "/" + file;
}

}  // namespace

double processCpuSeconds(int pid) {
  std::ifstream in(procPath(pid, "stat"));
  std::string text;
  if (!in || !std::getline(in, text)) return -1.0;
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  const long ticks = sysconf(_SC_CLK_TCK);
  return ticks <= 0 ? -1.0
                    : static_cast<double>(utime + stime) /
                          static_cast<double>(ticks);
}

double processPeakRssMb(int pid) {
  std::ifstream in(procPath(pid, "status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return -1.0;
}

void Report::line(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::printf("\n");
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

bool Report::witnesses(const std::map<std::string, std::uint64_t>& counts,
                       const std::string& witness_path) {
  std::string text;
  for (const auto& [name, value] : counts) {
    text += name + " " + std::to_string(value) + "\n";
    line("witness %s = %llu", name.c_str(),
         static_cast<unsigned long long>(value));
  }
  std::ifstream in(witness_path);
  if (in) {
    std::stringstream previous;
    previous << in.rdbuf();
    if (previous.str() != text) {
      line("witness MISMATCH against %s (an earlier run of these sources)",
           witness_path.c_str());
      return false;
    }
    line("witness counts repeat %s", witness_path.c_str());
    return true;
  }
  std::ofstream out(witness_path);
  out << text;
  line("witness counts recorded in %s", witness_path.c_str());
  return true;
}

void Report::finish(bool correct, std::uint64_t attempted,
                    std::uint64_t failed) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, value_unit] = metrics_[i];
    const double value =
        std::isfinite(value_unit.first) ? value_unit.first : -1.0;
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    json += (i == 0 ? "\"" : ", \"") + name + "\": {\"value\": " + number +
            ", \"unit\": \"" + value_unit.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
