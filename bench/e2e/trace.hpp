// In-memory span recorder for the benchmark's traced runs.
//
// The benchmark wraps each of its own calls into a layer's public API in
// a span named "<layer>.<call>" (e.g. "rt.launch", "engine.commit"). A
// span records its name, start, end, parent span and the request it
// belongs to. While recording, spans are kept in memory and written at
// exit as Chrome trace-event JSON (viewable in Perfetto or
// chrome://tracing). Independently of what is kept, every closed span is
// folded into per-name aggregates — count, total time, and self time (its
// duration minus the time its child spans cover) — which is what the
// per-layer metrics are computed from.
//
// Disabled, a span costs one predictable branch at its call site: the
// wrapped call runs directly, no clock is read and nothing is stored.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace e2e {

class Tracer {
 public:
  struct Stats {
    long count = 0;
    double total_ns = 0;
    double self_ns = 0;
  };

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Turn span recording on or off (between requests, never inside one).
  void set_enabled(bool on) { enabled_ = on; }
  /// Keep closed spans for the trace file (up to `cap` of them) or only
  /// aggregate them.
  void set_keep(bool keep, std::size_t cap = 100'000) {
    keep_ = keep;
    keep_cap_ = cap;
  }
  /// Request id stamped on spans opened from now on.
  void set_request(long id) { request_ = id; }

  /// Run `f` inside a span named `name`; `name` must outlive the tracer
  /// (a string literal).
  template <typename F>
  decltype(auto) span(const char* name, F&& f) {
    if (!enabled_) return f();
    const Open open(*this, name);
    return f();
  }

  /// Aggregates of every span closed while enabled: for one span name,
  /// or rolled up by layer (the name's prefix up to the first '.').
  [[nodiscard]] Stats stats(const std::string& name) const {
    const auto all = rollup(false);
    const auto it = all.find(name);
    return it == all.end() ? Stats{} : it->second;
  }
  [[nodiscard]] std::map<std::string, Stats> by_layer() const {
    return rollup(true);
  }
  [[nodiscard]] std::size_t kept() const { return spans_.size(); }

  /// Write the kept spans as Chrome trace-event JSON ("X" complete
  /// events, microsecond timestamps). Returns false on an I/O error.
  bool write_chrome_trace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string_view name(s.name);
      const std::string_view layer = name.substr(0, name.find('.'));
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"cat\": \"%.*s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                   "\"args\": {\"span\": %zu, \"parent\": %ld, "
                   "\"request\": %ld}}",
                   i == 0 ? "" : ",\n", s.name,
                   static_cast<int>(layer.size()), layer.data(),
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent, s.request);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    long parent = -1;  ///< index into spans_, -1 for a root or unkept parent
    long request = -1;
  };
  struct Frame {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;  ///< time covered by closed child spans
    long slot = -1;             ///< index reserved in spans_, -1 if unkept
  };

  /// RAII scope of one enabled span.
  class Open {
   public:
    Open(Tracer& t, const char* name) : t_(t) { t_.open(name); }
    ~Open() { t_.close(); }
    Open(const Open&) = delete;
    Open& operator=(const Open&) = delete;

   private:
    Tracer& t_;
  };

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  void open(const char* name) {
    Frame f;
    f.name = name;
    if (keep_ && spans_.size() < keep_cap_) {
      f.slot = static_cast<long>(spans_.size());
      Span s;
      s.name = name;
      s.parent = stack_.empty() ? -1 : stack_.back().slot;
      s.request = request_;
      spans_.push_back(s);
    }
    f.start_ns = now_ns();
    stack_.push_back(f);
  }

  void close() {
    const std::int64_t end = now_ns();
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = end - f.start_ns;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (f.slot >= 0) {
      Span& s = spans_[static_cast<std::size_t>(f.slot)];
      s.start_ns = f.start_ns;
      s.end_ns = end;
    }
    Stats& st = stats_for(f.name);
    ++st.count;
    st.total_ns += static_cast<double>(dur);
    st.self_ns += static_cast<double>(dur - f.child_ns);
  }

  /// Aggregate slot of a span name. Names are string literals, so the
  /// pointer identifies the call site's name; the handful of distinct
  /// names makes a linear scan cheaper than hashing the text.
  Stats& stats_for(const char* name) {
    for (auto& [n, s] : stats_) {
      if (n == name) return s;
    }
    return stats_.emplace_back(name, Stats{}).second;
  }

  [[nodiscard]] std::map<std::string, Stats> rollup(bool by_layer) const {
    std::map<std::string, Stats> out;
    for (const auto& [n, s] : stats_) {
      const std::string_view name(n);
      Stats& o = out[std::string(by_layer ? name.substr(0, name.find('.'))
                                          : name)];
      o.count += s.count;
      o.total_ns += s.total_ns;
      o.self_ns += s.self_ns;
    }
    return out;
  }

  bool enabled_ = false;
  bool keep_ = false;
  std::size_t keep_cap_ = 0;
  long request_ = -1;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
  std::vector<std::pair<const char*, Stats>> stats_;
};

}  // namespace e2e
