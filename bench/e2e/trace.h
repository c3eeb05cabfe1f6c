// Benchmark-side tracing: spans recorded around the calls the benchmark makes
// into each library layer (the library itself is not instrumented). Spans
// are kept in memory and written at exit as Chrome trace-event JSON, which
// chrome://tracing and Perfetto open directly. Tracing is off unless the
// run asks for it; a disabled Span costs one branch.
//
// Spans are recorded on the main thread only (the benchmark builds and
// drives every graph from there; kernel workers are never spanned).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace bench {

class Tracer {
 public:
  struct Record {
    std::string name;
    int64_t start_ns = 0;
    int64_t dur_ns = 0;
    int parent = -1;  // index of the enclosing span; -1 = a root
  };

  static Tracer& instance() {
    static Tracer t;
    return t;
  }

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  /// Drops every recorded span (open spans must not exist).
  void clear() { records_.clear(); }

  int begin(std::string name) {
    Record r;
    r.name = std::move(name);
    r.parent = open_.empty() ? -1 : open_.back();
    r.start_ns = now_ns();
    records_.push_back(std::move(r));
    open_.push_back(static_cast<int>(records_.size()) - 1);
    return open_.back();
  }

  void end(int idx) {
    records_[static_cast<size_t>(idx)].dur_ns =
        now_ns() - records_[static_cast<size_t>(idx)].start_ns;
    open_.pop_back();
  }

  const std::vector<Record>& records() const { return records_; }

  /// For every root span named `root`, the summed duration in ms of the
  /// spans named `name` in its subtree (the root included).
  std::vector<double> per_root_ms(const std::string& root,
                                  const std::string& name) const {
    std::vector<double> out;
    std::vector<int> slot(records_.size(), -1);  // root index -> out index
    for (size_t i = 0; i < records_.size(); ++i) {
      int top = static_cast<int>(i);
      while (records_[static_cast<size_t>(top)].parent >= 0)
        top = records_[static_cast<size_t>(top)].parent;
      const Record& tr = records_[static_cast<size_t>(top)];
      if (tr.name != root) continue;
      if (slot[static_cast<size_t>(top)] < 0) {
        slot[static_cast<size_t>(top)] = static_cast<int>(out.size());
        out.push_back(0.0);
      }
      if (records_[i].name != name) continue;
      out[static_cast<size_t>(slot[static_cast<size_t>(top)])] +=
          static_cast<double>(records_[i].dur_ns) * 1e-6;
    }
    return out;
  }

  /// Duration in ms of every span named `name`, in recording order.
  std::vector<double> durations_ms(const std::string& name) const {
    std::vector<double> out;
    for (const Record& r : records_)
      if (r.name == name) out.push_back(static_cast<double>(r.dur_ns) * 1e-6);
    return out;
  }

  /// Writes every span as a Chrome "complete" event (ph X, microseconds),
  /// with the parent span's index in args. Returns false on I/O failure.
  bool write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    const int64_t t0 = records_.empty() ? 0 : records_.front().start_ns;
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                   "\"parent\": %d}}%s\n",
                   r.name.c_str(), static_cast<double>(r.start_ns - t0) * 1e-3,
                   static_cast<double>(r.dur_ns) * 1e-3, i, r.parent,
                   i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool enabled_ = false;
  std::vector<Record> records_;
  std::vector<int> open_;
};

/// RAII span: records [construction, destruction) under the innermost open
/// span when tracing is on; does nothing otherwise.
class Span {
 public:
  explicit Span(const char* name) {
    if (Tracer::instance().enabled()) idx_ = Tracer::instance().begin(name);
  }
  explicit Span(const std::string& name) {
    if (Tracer::instance().enabled()) idx_ = Tracer::instance().begin(name);
  }
  ~Span() {
    if (idx_ >= 0) Tracer::instance().end(idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int idx_ = -1;
};

}  // namespace bench
