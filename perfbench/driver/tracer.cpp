#include "perfbench/driver/tracer.h"

#include <fstream>
#include <stdexcept>

namespace perfbench {

Tracer::NameId Tracer::name(std::string_view text) {
  const auto found = name_ids_.find(text);
  if (found != name_ids_.end()) return found->second;
  const auto id = static_cast<NameId>(names_.size());
  names_.emplace_back(text);
  name_ids_.emplace(std::string{text}, id);
  pending_.emplace_back();
  totals_.emplace_back();
  return id;
}

Tracer::SpanId Tracer::open(NameId name) {
  Record record;
  record.id = next_id_++;
  record.parent = stack_.empty() ? kNoSpan : stack_.back().id;
  record.name = name;
  record.start_ns = now_ns();
  stack_.push_back(record);
  return record.id;
}

std::int64_t Tracer::close(SpanId span) {
  const std::int64_t end = now_ns();
  if (stack_.empty() || stack_.back().id != span) {
    throw std::logic_error{"Tracer::close: span is not the innermost open span"};
  }
  Record record = stack_.back();
  stack_.pop_back();
  record.end_ns = end;
  record.inclusive_ns = end - record.start_ns;
  if (!stack_.empty()) stack_.back().child_ns += record.inclusive_ns;
  if (span == anchor_ || stack_.empty()) flush_folded(anchor_);
  if (span == anchor_) anchor_ = kNoSpan;
  finish(record);
  return record.inclusive_ns;
}

void Tracer::set_fold_anchor(SpanId span) {
  flush_folded(anchor_);
  anchor_ = span;
}

void Tracer::flush_folded(SpanId anchor) {
  for (const NameId name : touched_) {
    Pending& agg = pending_[name];
    Record record;
    record.id = next_id_++;
    record.parent = anchor;
    record.name = name;
    record.start_ns = agg.start_ns;
    record.end_ns = agg.end_ns;
    record.calls = agg.calls;
    record.inclusive_ns = agg.inclusive_ns;
    record.folded = true;
    finish(record);
    agg = Pending{};
  }
  touched_.clear();
}

void Tracer::finish(const Record& record) {
  Totals& totals = totals_[record.name];
  totals.calls += record.calls;
  totals.inclusive_ns += record.inclusive_ns;
  totals.self_ns += record.inclusive_ns - record.child_ns;
  if (keep_records_) records_.push_back(record);
}

Tracer::Totals Tracer::totals(std::string_view name) const {
  const auto found = name_ids_.find(name);
  return found == name_ids_.end() ? Totals{} : totals_[found->second];
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out{path};
  if (!out) return false;
  out << "id\tparent\tname\tstart_ns\tend_ns\tcalls\tinclusive_ns\tself_ns\tfolded\n";
  for (const Record& r : records_) {
    out << r.id << '\t' << r.parent << '\t' << names_[r.name] << '\t' << r.start_ns << '\t'
        << r.end_ns << '\t' << r.calls << '\t' << r.inclusive_ns << '\t'
        << (r.inclusive_ns - r.child_ns) << '\t' << (r.folded ? 1 : 0) << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
