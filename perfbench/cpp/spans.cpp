#include "spans.hpp"

#include <fstream>

#include "obs/json.hpp"

namespace perfbench {

int SpanLog::add(const char* name, std::int64_t begin_ns, std::int64_t end_ns,
                 int parent, std::int64_t request) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, begin_ns, end_ns, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

int SpanLog::open(const char* name, int parent, std::int64_t request) {
  if (!enabled_) return -1;
  const std::int64_t begin = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, begin, begin, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int index) {
  if (index < 0) return;
  const std::int64_t end = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

double SpanLog::total_seconds(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  double seconds = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) {
      seconds += static_cast<double>(s.end_ns - s.begin_ns) * 1e-9;
    }
  }
  return seconds;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    pdnn::obs::JsonValue j = pdnn::obs::JsonValue::object();
    j.set("name", s.name);
    j.set("begin_ns", s.begin_ns);
    j.set("end_ns", s.end_ns);
    j.set("parent", s.parent);
    j.set("request", s.request);
    out << j.dump(0) << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
