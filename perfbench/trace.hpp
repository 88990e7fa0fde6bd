// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark around its own calls into the
// library's layers (the library itself carries no spans yet). Each span has
// a name, the layer it belongs to, start and end on one steady clock, the
// span that was open when it began (its parent), and the repetition
// ("request") it belongs to. Everything stays in memory until the run ends,
// then goes out as Chrome trace-event JSON, which Perfetto and
// chrome://tracing open offline.
//
// A disabled Tracer records nothing: Span construction is one branch, so the
// untraced runs that give the end-to-end figures pay no tracing cost.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Record {
    std::string name;
    std::string layer;
    std::int64_t start_ns = 0;  ///< since the tracer's epoch
    std::int64_t end_ns = 0;
    int parent = -1;            ///< index into records(), -1 = root
    std::uint64_t request = 0;
  };

  /// Self time of every span sharing one name.
  struct SelfTime {
    std::string name;
    std::string layer;
    std::size_t count = 0;
    double total_s = 0;
    double self_s = 0;  ///< total minus the time its child spans cover
  };

  Tracer() : epoch_(Clock::now()) {}

  /// Spans are recorded only while enabled (off by default).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_request(std::uint64_t request) { request_ = request; }

  /// Opens a span under the innermost open one; returns its index.
  int begin(std::string name, std::string layer);
  void end(int index);
  /// Records a finished span with explicit bounds under the innermost open
  /// span — for work whose edges the benchmark only sees through a
  /// callback (one fuzz scenario ends where the next begins).
  void add(std::string name, std::string layer, Clock::time_point start,
           Clock::time_point end);

  [[nodiscard]] const std::vector<Record>& records() const { return records_; }
  /// Per-name self time, sorted by descending self time.
  [[nodiscard]] std::vector<SelfTime> self_times() const;
  /// Writes Chrome trace-event JSON; false if the file cannot be written.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t since_epoch(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  bool enabled_ = false;
  Clock::time_point epoch_;
  std::uint64_t request_ = 0;
  std::vector<Record> records_;
  std::vector<int> open_;
};

/// RAII span; a no-op on a disabled tracer.
class Span {
 public:
  Span(Tracer& tracer, std::string name, std::string layer)
      : tracer_(tracer),
        index_(tracer.enabled() ? tracer.begin(std::move(name),
                                               std::move(layer))
                                : -1) {}
  ~Span() {
    if (index_ >= 0) tracer_.end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace perfbench
