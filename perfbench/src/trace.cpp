#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double>(clock::now() - epoch).count();
}

int Tracer::open(std::string name) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::move(name), now_s(), 0.0, parent, run_});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = now_s();
  // Scopes nest, so the closing span is the innermost open one.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::add(std::string name, double start, double end) {
  if (!enabled_) return;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::move(name), start, end, parent, run_});
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const auto& s : spans_)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] += std::max(0.0, (s.end - s.start) - child[i]);
  }
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d", s.start * 1e6,
                  (s.end - s.start) * 1e6, s.run);
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"cat\":\""
        << s.name.substr(0, s.name.find('.')) << "\",\"ph\":\"X\"," << buf
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
}

} // namespace perfbench
