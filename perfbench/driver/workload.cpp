#include "perfbench/driver/workload.h"

#include <stdexcept>

#include "perfbench/driver/forwarding.h"

namespace perfbench {

void append_cache_stats(std::vector<std::uint64_t>& out, const wcs::CacheStats& s) {
  out.insert(out.end(), {s.requests, s.hits, s.requested_bytes, s.hit_bytes, s.insertions,
                         s.evictions, s.evicted_bytes, s.size_change_misses,
                         s.rejected_too_large, s.admission_rejects,
                         s.dead_on_arrival_evictions, s.periodic_sweeps, s.max_used_bytes});
}

void append_proxy_stats(std::vector<std::uint64_t>& out, const wcs::ProxyCache::Stats& s) {
  out.insert(out.end(),
             {s.requests, s.hits, s.validations, s.validated_fresh, s.misses, s.uncacheable,
              s.hit_bytes, s.miss_bytes, s.delta_updates, s.delta_bytes, s.delta_bytes_avoided,
              s.upstream_failures, s.retries, s.breaker_opens, s.stale_served, s.negative_hits,
              s.failed_requests, s.breaker_open_hosts, s.negative_cache_entries});
}

void add_cache_stats(wcs::CacheStats& into, const wcs::CacheStats& s) {
  into.requests += s.requests;
  into.hits += s.hits;
  into.requested_bytes += s.requested_bytes;
  into.hit_bytes += s.hit_bytes;
  into.insertions += s.insertions;
  into.evictions += s.evictions;
  into.evicted_bytes += s.evicted_bytes;
  into.size_change_misses += s.size_change_misses;
  into.rejected_too_large += s.rejected_too_large;
  into.admission_rejects += s.admission_rejects;
  into.dead_on_arrival_evictions += s.dead_on_arrival_evictions;
  into.periodic_sweeps += s.periodic_sweeps;
  into.max_used_bytes += s.max_used_bytes;
}

void add_daily(HitTotals& into, const wcs::DailySeries& daily) {
  for (std::int64_t day = 0; day < daily.day_count(); ++day) {
    const wcs::DailySeries::DayTotals t = daily.totals_of_day(day);
    into.requests += t.requests;
    into.hits += t.hits;
    into.requested_bytes += t.bytes;
    into.hit_bytes += t.hit_bytes;
  }
}

void set_metric(Metrics& metrics, const std::string& name, double value) {
  const auto found = metrics.find(name);
  if (found == metrics.end()) throw std::logic_error{"unlisted metric: " + name};
  found->second.value = value;
}

double policy_ns(const Tracer& tracer, const std::string& group) {
  double sum = 0.0;
  for (const char* call : {".on_insert", ".on_hit", ".on_remove", ".choose_victim"}) {
    sum += static_cast<double>(tracer.totals(group + call).inclusive_ns);
  }
  return sum;
}

double inclusive_per(const Tracer& tracer, const char* name, double per) {
  return ratio(static_cast<double>(tracer.totals(name).inclusive_ns), per);
}

double self_per(const Tracer& tracer, const char* name, double per) {
  return ratio(static_cast<double>(tracer.totals(name).self_ns), per);
}

std::string register_traced_policy(const std::string& policy, Tracer& tracer,
                                   std::string_view group) {
  const std::string name = "perfbench-traced:" + policy;
  const PolicyNames names = PolicyNames::in(tracer, group);
  wcs::register_policy(name, [policy, &tracer, names](std::uint64_t seed) {
    std::unique_ptr<wcs::RemovalPolicy> inner = wcs::make_policy_by_name(policy, seed);
    if (inner == nullptr) throw std::invalid_argument{"unknown policy: " + policy};
    return std::make_unique<TracedPolicy>(std::move(inner), tracer, names);
  });
  return name;
}

}  // namespace perfbench
