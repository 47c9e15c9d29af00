// perfbench/src/spans.hpp
//
// Span recording for the traced run. Every call the benchmark makes into a
// gridbw layer goes through Tracer::timed, which always returns the call's
// wall time; when recording is on it also keeps a span (name, start, end,
// parent) in memory. Spans are written out once, when the run ends.

#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock seconds since an arbitrary epoch.
[[nodiscard]] double now_s();

struct Span {
  std::string name;
  double start{0.0};
  double end{0.0};
  int parent{-1};  ///< index into Tracer::spans(), -1 for a root span
};

class Tracer {
 public:
  Tracer() = default;

  void set_recording(bool on) { recording_ = on; }
  [[nodiscard]] bool recording() const { return recording_; }

  /// Runs `fn` and returns its wall time in seconds, inside a span named
  /// `name` when recording.
  template <typename Fn>
  double timed(const char* name, Fn&& fn) {
    if (!recording_) {
      const double t0 = now_s();
      fn();
      return now_s() - t0;
    }
    const int id = open(name);
    fn();
    return close(id);
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// For every root span named `root`: the summed self time (duration minus
  /// the part covered by child spans) of its descendants named `name`, or of
  /// the root itself when `name` equals `root`. Roots with no such span
  /// contribute nothing.
  [[nodiscard]] std::vector<double> self_per_root(const std::string& root,
                                                  const std::string& name) const;

  /// Writes every span as JSON: {"spans": [{"name", "start", "end",
  /// "parent"}, ...]}, times in seconds relative to the first span.
  void write_json(const std::string& path) const;

 private:
  int open(const char* name);
  double close(int id);

  bool recording_{false};
  int current_{-1};
  std::vector<Span> spans_;
};

}  // namespace perfbench
