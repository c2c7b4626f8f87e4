// Forwarding seams the benchmark owns: each wraps a public extension point
// of the program, forwards every virtual unchanged, and times the calls it
// forwards. Wrapped and unwrapped runs must produce identical outputs; the
// benchmark checks that on every pass.
//
//   TracedPolicy   — a RemovalPolicy around the real one (PolicyFactory,
//                    or a registered policy name for ProxyCache configs).
//   SampledSource  — a RequestSource around a TraceSource: times one in
//                    kSampleEvery requests from one next() to the next
//                    (the simulator's per-request work).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/driver/tracer.h"
#include "src/core/policy.h"
#include "src/trace/request_source.h"

namespace perfbench {

/// Latency sampling period for the simulator, which is too fast to time
/// every request without distorting it.
inline constexpr std::uint64_t kSampleEvery = 64;

/// Tracer name ids for one group of policy callbacks ("core.policy",
/// "core.lru_min", "zoo.policy").
struct PolicyNames {
  Tracer::NameId on_insert = 0;
  Tracer::NameId on_hit = 0;
  Tracer::NameId on_remove = 0;
  Tracer::NameId choose_victim = 0;

  static PolicyNames in(Tracer& tracer, std::string_view group) {
    const std::string prefix{group};
    return {tracer.name(prefix + ".on_insert"), tracer.name(prefix + ".on_hit"),
            tracer.name(prefix + ".on_remove"), tracer.name(prefix + ".choose_victim")};
  }
};

class TracedPolicy final : public wcs::RemovalPolicy {
 public:
  TracedPolicy(std::unique_ptr<wcs::RemovalPolicy> inner, Tracer& tracer, PolicyNames names)
      : inner_(std::move(inner)), tracer_(&tracer), names_(names) {}

  void attach(std::uint64_t capacity_bytes) override { inner_->attach(capacity_bytes); }

  void on_insert(const wcs::CacheEntry& entry) override {
    const std::int64_t start = now_ns();
    inner_->on_insert(entry);
    tracer_->fold(names_.on_insert, start, now_ns());
  }
  void on_hit(const wcs::CacheEntry& entry) override {
    const std::int64_t start = now_ns();
    inner_->on_hit(entry);
    tracer_->fold(names_.on_hit, start, now_ns());
  }
  void on_remove(const wcs::CacheEntry& entry) override {
    const std::int64_t start = now_ns();
    inner_->on_remove(entry);
    tracer_->fold(names_.on_remove, start, now_ns());
  }
  [[nodiscard]] std::optional<wcs::UrlId> choose_victim(
      const wcs::EvictionContext& ctx) override {
    const std::int64_t start = now_ns();
    const std::optional<wcs::UrlId> victim = inner_->choose_victim(ctx);
    tracer_->fold(names_.choose_victim, start, now_ns());
    return victim;
  }
  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }
  [[nodiscard]] std::optional<wcs::RankTuple> rank_of(wcs::UrlId url) const override {
    return inner_->rank_of(url);
  }
  void audit_index(const wcs::EntryMap& entries, wcs::AuditReport& report) const override {
    inner_->audit_index(entries, report);
  }

 private:
  std::unique_ptr<wcs::RemovalPolicy> inner_;
  Tracer* tracer_;
  PolicyNames names_;
};

/// Registers "perfbench-traced:<policy>" with the program's policy registry
/// so by-name consumers (ProxyCache::Config::policy, topology tiers) build
/// a TracedPolicy around `policy` that reports into `tracer`. Returns the
/// registered name. The tracer must outlive every policy built from it.
[[nodiscard]] std::string register_traced_policy(const std::string& policy, Tracer& tracer,
                                                 std::string_view group);

class SampledSource final : public wcs::RequestSource {
 public:
  /// `samples` (nullable) receives one per-request latency in ns for every
  /// kSampleEvery-th request.
  SampledSource(const wcs::Trace& trace, std::vector<std::uint32_t>* samples)
      : inner_(trace), samples_(samples) {}

  bool next(wcs::Request& out) override {
    // The clock is read only for sampled requests, so the others pay a
    // counter increment and a branch.
    if (sample_open_) {
      samples_->push_back(static_cast<std::uint32_t>(now_ns() - sample_start_ns_));
      sample_open_ = false;
    }
    if (!inner_.next(out)) return false;
    if (samples_ != nullptr && ++count_ % kSampleEvery == 0) {
      sample_open_ = true;
      sample_start_ns_ = now_ns();
    }
    return true;
  }
  [[nodiscard]] const wcs::InternTable& names() const noexcept override {
    return inner_.names();
  }
  [[nodiscard]] std::uint64_t resident_bytes() const noexcept override {
    return inner_.resident_bytes();
  }
  [[nodiscard]] std::optional<std::string> stream_error() const override {
    return inner_.stream_error();
  }

 private:
  wcs::TraceSource inner_;
  std::vector<std::uint32_t>* samples_;
  std::uint64_t count_ = 0;
  bool sample_open_ = false;
  std::int64_t sample_start_ns_ = 0;
};

}  // namespace perfbench
