#include "spans.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::open(const char* name) {
  spans_.push_back(Span{name, now_s(), 0.0, current_});
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

double Tracer::close(int id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end = now_s();
  current_ = span.parent;
  return span.end - span.start;
}

std::vector<double> Tracer::self_per_root(const std::string& root,
                                          const std::string& name) const {
  const std::size_t n = spans_.size();
  std::vector<double> self(n);
  for (std::size_t i = 0; i < n; ++i) self[i] = spans_[i].end - spans_[i].start;
  for (std::size_t i = 0; i < n; ++i) {
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -= spans_[i].end - spans_[i].start;
    }
  }
  // Spans are stored in open order, so a root precedes its descendants and
  // each span's root is known once its parent's is.
  std::vector<int> root_of(n, -1);
  std::vector<double> sums;
  std::vector<int> slot(n, -1);  // root span index -> position in `sums`
  for (std::size_t i = 0; i < n; ++i) {
    const int parent = spans_[i].parent;
    root_of[i] = parent < 0 ? static_cast<int>(i) : root_of[static_cast<std::size_t>(parent)];
    const auto r = static_cast<std::size_t>(root_of[i]);
    if (spans_[r].name != root || spans_[i].name != name) continue;
    if (slot[r] < 0) {
      slot[r] = static_cast<int>(sums.size());
      sums.push_back(0.0);
    }
    sums[static_cast<std::size_t>(slot[r])] += self[i];
  }
  return sums;
}

void Tracer::write_json(const std::string& path) const {
  const std::filesystem::path p{path};
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out{p};
  if (!out) throw std::runtime_error{"cannot write trace to " + path};
  const double epoch = spans_.empty() ? 0.0 : spans_.front().start;
  out << "{\"spans\": [\n";
  char buf[128];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf, "\", \"start\": %.9f, \"end\": %.9f, \"parent\": %d}",
                  s.start - epoch, s.end - epoch, s.parent);
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name << buf
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

}  // namespace perfbench
