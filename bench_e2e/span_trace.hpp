// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark's own code around each call into a
// library layer (the library itself is not instrumented). A span's name is
// "<layer>.<call>", where <layer> is the src/ module the call lives in;
// nesting is tracked with a stack, so every span knows the span that
// caused it, and every span carries the id of the workload run (one
// repetition of the traced loop) it belongs to. Everything is kept in
// memory and written once at the end, as Chrome trace-event JSON (opens in
// Perfetto / chrome://tracing) and as a per-layer self-time table.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.hpp"

namespace e2e {

class SpanTrace {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  ///< index of the enclosing span, -1 for a root
    int run = 0;      ///< workload run id
    std::string args;  ///< extra Chrome "args" members, pre-encoded JSON
  };

  /// RAII span: opens on construction, closes on destruction. A disabled
  /// trace records nothing.
  class Scope {
   public:
    Scope(SpanTrace& trace, std::string name, std::string args = {})
        : trace_(trace),
          index_(trace.open(std::move(name), std::move(args))) {}
    ~Scope() { trace_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanTrace& trace_;
    int index_;
  };

  explicit SpanTrace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_run(int run) { run_ = run; }

  /// Record an already-measured interval as a child of the open span (used
  /// for phase times the library reports itself).
  void add_child(std::string name, std::int64_t start_ns,
                 std::int64_t end_ns, std::string args = {}) {
    if (!enabled_) return;
    spans_.push_back(Span{std::move(name), start_ns, end_ns,
                          stack_.empty() ? -1 : stack_.back(), run_,
                          std::move(args)});
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the time its children
  /// cover. Children of one span never overlap (one recording thread).
  std::vector<std::int64_t> self_ns() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[s.parent] -= s.end_ns - s.start_ns;
    }
    return self;
  }

  void write_chrome_json(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) throw std::runtime_error("cannot write " + path);
    const std::int64_t t0 = spans_.empty() ? 0 : origin_ns();
    std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"span\": %zu, \"parent\": %d, \"run\": %d%s%s}}",
                   i == 0 ? "" : ",\n", s.name.c_str(),
                   layer_of(s.name).c_str(),
                   static_cast<double>(s.start_ns - t0) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                   s.parent, s.run, s.args.empty() ? "" : ", ",
                   s.args.c_str());
    }
    std::fprintf(out, "\n]}\n");
    if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
  }

  /// Self time per layer and per span name, grouped by the root span each
  /// span descends from (one group per kind of traced job).
  std::string self_time_table() const {
    const std::vector<std::int64_t> self = self_ns();
    struct Row {
      std::int64_t ns = 0;
      std::size_t calls = 0;
    };
    struct Group {
      std::int64_t total_ns = 0;
      std::size_t runs = 0;
      std::map<std::string, Row> layers;
      std::map<std::string, Row> names;
    };
    std::map<std::string, Group> groups;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      std::size_t root = i;
      while (spans_[root].parent >= 0) {
        root = static_cast<std::size_t>(spans_[root].parent);
      }
      Group& g = groups[spans_[root].name];
      if (root == i) {
        g.total_ns += spans_[i].end_ns - spans_[i].start_ns;
        ++g.runs;
      }
      Row& layer = g.layers[layer_of(spans_[i].name)];
      layer.ns += self[i];
      ++layer.calls;
      Row& name = g.names[spans_[i].name];
      name.ns += self[i];
      ++name.calls;
    }
    std::string text;
    char line[256];
    for (const auto& [root, g] : groups) {
      const double total = static_cast<double>(std::max<std::int64_t>(
          g.total_ns, 1));
      std::snprintf(line, sizeof line,
                    "%s: %zu runs, %.4f s total\n  %-34s %10s %8s %7s\n",
                    root.c_str(), g.runs, total * 1e-9, "layer / span",
                    "self_s", "calls", "share");
      text += line;
      for (const auto* table : {&g.layers, &g.names}) {
        std::vector<std::pair<std::string, Row>> rows(table->begin(),
                                                      table->end());
        std::stable_sort(rows.begin(), rows.end(),
                         [](const auto& a, const auto& b) {
                           return a.second.ns > b.second.ns;
                         });
        for (const auto& [name, row] : rows) {
          std::snprintf(line, sizeof line, "  %-34s %10.4f %8zu %6.1f%%\n",
                        name.c_str(), static_cast<double>(row.ns) * 1e-9,
                        row.calls, 100.0 * static_cast<double>(row.ns) / total);
          text += line;
        }
        text += "\n";
      }
    }
    return text;
  }

 private:
  static std::string layer_of(const std::string& name) {
    return name.substr(0, name.find('.'));
  }

  std::int64_t origin_ns() const {
    std::int64_t t0 = spans_.front().start_ns;
    for (const Span& s : spans_) t0 = std::min(t0, s.start_ns);
    return t0;
  }

  int open(std::string name, std::string args) {
    if (!enabled_) return -1;
    const int index = static_cast<int>(spans_.size());
    spans_.push_back(Span{std::move(name), eclat::wall_ns(), 0,
                          stack_.empty() ? -1 : stack_.back(), run_,
                          std::move(args)});
    stack_.push_back(index);
    return index;
  }

  void close(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = eclat::wall_ns();
    stack_.pop_back();
  }

  bool enabled_;
  int run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace e2e
