// In-memory span recorder for the traced benchmark runs.
//
// Spans (name, start, end, parent, request id, numeric args) are kept in a
// vector and written once, at the end of the run, as Chrome trace-event
// JSON (viewable in Perfetto / chrome://tracing). The recorder is meant for
// the single-threaded replays of the benchmark: the parent of a span is
// whichever span was open when it began. A tracer built with recording off
// takes the same calls and keeps nothing, which is what the tracing
// overhead is measured against.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "util/json.h"

namespace psvbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool recording = true) : recording_(recording) {}

  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int id = 0;
    int parent = -1;
    std::uint64_t request = 0;
    std::vector<std::pair<std::string, double>> args;
  };

  bool recording() const { return recording_; }

  /// Open a span under the innermost open one; returns its id (-1 when
  /// not recording).
  int begin(std::string name, std::uint64_t request) {
    if (!recording_) return -1;
    Span span;
    span.name = std::move(name);
    span.id = static_cast<int>(spans_.size());
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request;
    span.start_ns = now_ns();
    spans_.push_back(std::move(span));
    open_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  /// Close span `id` (must be the innermost open one).
  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    open_.pop_back();
  }

  /// Attach a numeric argument to span `id`.
  void arg(int id, std::string key, double value) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].args.emplace_back(std::move(key), value);
  }

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::uint64_t request)
        : tracer_(tracer), id_(tracer.begin(std::move(name), request)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }
    void arg(std::string key, double value) { tracer_.arg(id_, std::move(key), value); }

   private:
    Tracer& tracer_;
    int id_;
  };

  /// Write every span as a Chrome trace "complete" event, plus `other` (a
  /// rendered JSON object) under "otherData". Returns false on an I/O error.
  bool write(const std::string& path, const std::string& other) const {
    std::ofstream out(path, std::ios::trunc);
    out.setf(std::ios::fixed);
    out.precision(3);
    const int pid = static_cast<int>(::getpid());
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << psv::json::escape(s.name)
          << "\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":1,\"ts\":"
          << static_cast<double>(s.start_ns) / 1e3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"req\":" << s.request;
      for (const auto& [key, value] : s.args) out << ",\"" << key << "\":" << value;
      out << "}}";
    }
    out << "\n],\"otherData\":" << other << "}\n";
    return out.good();
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  bool recording_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace psvbench
