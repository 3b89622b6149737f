// In-memory span recorder of the traced run.
//
// Spans are recorded by the benchmark around its own calls into each layer's
// public functions; nothing under src/ is instrumented. A span is (name,
// start, end, parent, operation); the whole list is written once, at exit,
// as Chrome trace-event JSON ("X" complete events), which Perfetto and
// chrome://tracing open directly.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int parent = -1;  ///< index into spans(), -1 for a root
    int op = -1;      ///< operation the span belongs to
    /// Extra work the trace adds to measure a layer from outside (the
    /// replayed token walks); left out of the operation's own time.
    bool replayed = false;
    double ms() const { return (end_us - start_us) / 1e3; }
  };

  int Begin(std::string name, int parent, int op, bool replayed = false) {
    spans_.push_back({std::move(name), Now(), 0, parent, op, replayed});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Closes span `id` and returns its duration in milliseconds.
  double End(int id) {
    spans_[id].end_us = Now();
    return spans_[id].ms();
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of span `id`: its duration minus what its children cover.
  double SelfMs(int id) const {
    double ms = spans_[id].ms();
    for (const Span& s : spans_) {
      if (s.parent == id) ms -= s.ms();
    }
    return ms;
  }
  /// Duration of `id` without its replayed children.
  double OwnMs(int id) const {
    double ms = spans_[id].ms();
    for (const Span& s : spans_) {
      if (s.parent == id && s.replayed) ms -= s.ms();
    }
    return ms;
  }

  /// Summed self time per span name.
  std::map<std::string, double> SelfMsByName() const {
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += SelfMs(static_cast<int>(i));
    }
    return out;
  }

  /// Writes the trace-event JSON file; returns false if it cannot be opened.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"span\":%zu,\"parent\":%d,\"op\":%d,"
                   "\"self_ms\":%.6f}}",
                   i == 0 ? "" : ",", s.name.c_str(),
                   s.replayed ? "replayed" : "layer", s.start_us,
                   s.end_us - s.start_us, i, s.parent, s.op,
                   SelfMs(static_cast<int>(i)));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  double Now() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

}  // namespace perfbench
