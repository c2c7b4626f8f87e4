// In-memory span recorder for the traced benchmark run.
//
// A span is one call the benchmark makes into a layer: name, start, end,
// and the span that was open when it started (its parent). Spans are kept
// in memory and written out once, when the benchmark ends.
//
// Self time follows the usual profiler rule: a span's self time is its
// duration minus the durations of the spans (and folded calls) that ran
// directly inside it. Summed over every span of one root, self times add
// up to the root's duration exactly.
//
// Very frequent calls (removal-policy callbacks: tens of millions per pass)
// are *folded*: each call still subtracts its duration from the innermost
// open span's self time, but instead of one record per call the tracer
// keeps one aggregate record per (name, fold anchor), where the anchor is
// an enclosing span chosen by the caller (a simulate() cell, or a whole
// replay pass). An aggregate's start/end are its first call's start and
// last call's end; `calls` and `inclusive_ns` carry the totals.
//
// Single-threaded, like every traced workload.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  using NameId = std::uint32_t;
  using SpanId = std::uint32_t;
  static constexpr SpanId kNoSpan = 0;  // span ids start at 1

  struct Record {
    SpanId id = kNoSpan;
    SpanId parent = kNoSpan;
    NameId name = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t calls = 1;
    std::int64_t inclusive_ns = 0;
    std::int64_t child_ns = 0;  // time of spans/calls that ran directly inside
    bool folded = false;
  };

  /// Per-name totals over everything recorded so far.
  struct Totals {
    std::uint64_t calls = 0;
    std::int64_t inclusive_ns = 0;
    std::int64_t self_ns = 0;
  };

  [[nodiscard]] NameId name(std::string_view text);

  /// Open a span under the innermost open span; returns its id.
  SpanId open(NameId name);
  /// Close the innermost open span (must be `span`); returns its duration.
  std::int64_t close(SpanId span);

  /// Fold one call of `name` that ran over [start, end] into the aggregate
  /// for the current fold anchor (see set_fold_anchor; parentless when no
  /// anchor is set).
  void fold(NameId name, std::int64_t start, std::int64_t end) {
    const std::int64_t duration = end - start;
    if (!stack_.empty()) stack_.back().child_ns += duration;
    Pending& agg = pending_[name];
    if (agg.calls == 0) {
      agg.start_ns = start;
      touched_.push_back(name);
    }
    agg.end_ns = end;
    ++agg.calls;
    agg.inclusive_ns += duration;
  }

  /// Folded calls go to `span` (an open span) until it closes; calls folded
  /// under the previous anchor are flushed first.
  void set_fold_anchor(SpanId span);

  /// Keep individual records for writing (true until disabled): later
  /// passes only feed the per-name totals, so memory stays bounded.
  void keep_records(bool keep) noexcept { keep_records_ = keep; }

  [[nodiscard]] Totals totals(std::string_view name) const;
  [[nodiscard]] const std::vector<std::string>& names() const noexcept { return names_; }

  /// Tab-separated span table: id, parent, name, start_ns, end_ns, calls,
  /// inclusive_ns, self_ns, folded. Returns false when the file cannot be
  /// written.
  bool write(const std::string& path) const;

 private:
  struct Pending {
    std::uint64_t calls = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t inclusive_ns = 0;
  };

  void finish(const Record& record);
  void flush_folded(SpanId anchor);

  std::vector<std::string> names_;
  std::map<std::string, NameId, std::less<>> name_ids_;
  std::vector<Record> stack_;             // open spans, innermost last
  SpanId anchor_ = kNoSpan;               // parent of the pending aggregates
  std::vector<Pending> pending_;          // by NameId: folded calls for the current anchor
  std::vector<NameId> touched_;           // names with pending folded calls
  std::vector<Record> records_;
  std::vector<Totals> totals_;            // by NameId
  SpanId next_id_ = 1;
  bool keep_records_ = true;
};

/// Opens a span on construction and closes it on destruction (no-op when
/// the tracer is null, so untraced passes pay one pointer test).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Tracer::NameId name)
      : tracer_(tracer), span_(tracer != nullptr ? tracer->open(name) : Tracer::kNoSpan) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] Tracer::SpanId id() const noexcept { return span_; }

 private:
  Tracer* tracer_;
  Tracer::SpanId span_;
};

}  // namespace perfbench
