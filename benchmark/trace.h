// Span recorder and sample statistics for amdgcnn_bench.
//
// Spans are recorded by amdgcnn_bench around its own calls into the library
// (setup stages, each timed request or epoch, each replay stage), kept in
// memory and written once at exit as Chrome trace-event JSON, which opens in
// Perfetto or chrome://tracing.  A disabled tracer records nothing, so the
// untraced run that produces the end-to-end numbers pays one branch per call.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace amdgcnn_bench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile, p in [0, 1]; 0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

class Tracer {
 public:
  struct Span {
    const char* name;  // string literal
    Clock::time_point start, end;
    std::int64_t id = 0;
    std::int64_t parent = 0;  // 0 = top level
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Record a finished span as a child of the innermost open Scope.
  void add(const char* name, Clock::time_point start, Clock::time_point end) {
    if (!enabled_) return;
    spans_.push_back({name, start, end, next_id_++,
                      open_.empty() ? 0 : open_.back()});
  }

  /// Span covering the Scope's lifetime; spans recorded meanwhile are its
  /// children.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(tracer), name_(name), start_(Clock::now()) {
      if (!tracer_.enabled_) return;
      id_ = tracer_.next_id_++;
      tracer_.open_.push_back(id_);
    }
    ~Scope() {
      if (!tracer_.enabled_) return;
      tracer_.open_.pop_back();
      tracer_.spans_.push_back({name_, start_, Clock::now(), id_,
                                tracer_.open_.empty() ? 0 : tracer_.open_.back()});
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    const char* name_;
    Clock::time_point start_;
    std::int64_t id_ = 0;
  };

  std::size_t size() const { return spans_.size(); }

  /// Durations, in microseconds, of every span called `name`.
  std::vector<double> durations_us(const std::string& name) const {
    std::vector<double> out;
    for (const auto& s : spans_)
      if (name == s.name) out.push_back(seconds_between(s.start, s.end) * 1e6);
    return out;
  }

  /// Write all spans as Chrome trace-event "complete" events on one track.
  bool write_chrome_json(const std::string& path,
                         const std::string& process_name) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    Clock::time_point origin = spans_.empty() ? Clock::now() : spans_[0].start;
    for (const auto& s : spans_) origin = std::min(origin, s.start);
    std::fprintf(f,
                 "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
                 "\"args\":{\"name\":\"%s\"}}",
                 process_name.c_str());
    for (const auto& s : spans_)
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"amdgcnn_bench\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%lld,\"parent\":%lld}}",
                   s.name, seconds_between(origin, s.start) * 1e6,
                   seconds_between(s.start, s.end) * 1e6,
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.parent));
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::int64_t next_id_ = 1;
  std::vector<std::int64_t> open_;  // ids of the open Scopes, innermost last
  std::vector<Span> spans_;
};

}  // namespace amdgcnn_bench
