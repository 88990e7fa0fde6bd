#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench {

int Tracer::begin(std::string name, std::string layer) {
  const int index = static_cast<int>(records_.size());
  Record r;
  r.name = std::move(name);
  r.layer = std::move(layer);
  r.start_ns = since_epoch(Clock::now());
  r.parent = open_.empty() ? -1 : open_.back();
  r.request = request_;
  records_.push_back(std::move(r));
  open_.push_back(index);
  return index;
}

void Tracer::end(int index) {
  records_[static_cast<std::size_t>(index)].end_ns = since_epoch(Clock::now());
  // Spans are scoped, so the one ending is the innermost open span.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::add(std::string name, std::string layer, Clock::time_point start,
                 Clock::time_point end) {
  if (!enabled_) return;
  Record r;
  r.name = std::move(name);
  r.layer = std::move(layer);
  r.start_ns = since_epoch(start);
  r.end_ns = since_epoch(end);
  r.parent = open_.empty() ? -1 : open_.back();
  r.request = request_;
  records_.push_back(std::move(r));
}

std::vector<Tracer::SelfTime> Tracer::self_times() const {
  std::vector<std::int64_t> child_ns(records_.size(), 0);
  for (const Record& r : records_) {
    if (r.parent >= 0) {
      child_ns[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
    }
  }
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    SelfTime& s = by_name[r.name];
    s.name = r.name;
    s.layer = r.layer;
    ++s.count;
    const double total = static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    s.total_s += total;
    s.self_s += total - static_cast<double>(child_ns[i]) * 1e-9;
  }
  std::vector<SelfTime> out;
  for (auto& [name, s] : by_name) out.push_back(s);
  std::sort(out.begin(), out.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.self_s > b.self_s;
  });
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    // Complete ("X") events in microseconds; names and layers are the
    // benchmark's own identifiers, which need no JSON escaping.
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"span\": %zu, \"parent\": %d, \"request\": "
                 "%llu}}%s\n",
                 r.name.c_str(), r.layer.c_str(),
                 static_cast<double>(r.start_ns) * 1e-3,
                 static_cast<double>(r.end_ns - r.start_ns) * 1e-3, i,
                 r.parent, static_cast<unsigned long long>(r.request),
                 i + 1 < records_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
