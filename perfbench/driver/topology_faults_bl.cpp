// topology_faults_bl: eight independent BL traces (low locality) at 1/4
// of paper scale (twice the paper's request volume in all), each through a 3-tier
// cache network — 4 edge caches, 2 regional, 1 parent — with tight per-tier
// capacities and a 5% transient fault mix on every downlink and on the
// origin link. Misses insert and evict, origin edits force 200-replaces,
// and failures drive retries, sibling failover, stale-if-error and
// 502/504 answers. Every handle() is timed.
#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench/driver/forwarding.h"
#include "perfbench/driver/workload.h"
#include "src/proxy/faults.h"
#include "src/sim/chaos.h"
#include "src/workload/generator.h"

namespace perfbench {
namespace {

constexpr double kFaultRate = 0.05;
constexpr std::size_t kParts = 8;
constexpr double kPartScale = 1.0 / 4.0;

class TopologyFaultsBl final : public Workload {
 public:
  std::size_t parts() const override { return parts_.size(); }

  double setup(std::size_t index, const RunOptions& options) override {
    wcs::WorkloadSpec spec = wcs::WorkloadSpec::preset("BL").scaled(kPartScale * options.scale);
    spec.seed = part_seed(options.seed, kParts, index);
    Part& part = parts_.at(index);
    const std::int64_t start = now_ns();
    part.trace = wcs::WorkloadGenerator{spec}.generate().trace;
    const double generate_s = static_cast<double>(now_ns() - start) * 1e-9;
    part.config = topology_for(part.trace.unique_bytes(), spec.seed);
    return generate_s;
  }

  std::vector<std::uint64_t> verify(std::size_t index) override {
    Part& part = parts_.at(index);
    wcs::TopologyReplayConfig replay;
    replay.topology = part.config;
    replay.check_interval = part.trace.size() / 16 + 1;
    wcs::TraceSource source{part.trace};
    const wcs::TopologyReplayResult result = wcs::replay_through_topology(source, replay);
    HitTotals totals;
    add_daily(totals, result.daily);
    totals_ += totals;
    std::vector<wcs::ProxyCache::Stats> tiers;
    for (const wcs::TierReplayStats& tier : result.tiers) tiers.push_back(tier.stats);
    const std::vector<std::uint64_t> checked = outputs_of(
        tiers, result.router, result.availability.served, result.availability.failed, totals);
    // The program's replay does not expose the tier caches' own CacheStats,
    // so the reference is one untimed pass of the benchmark's loop, which
    // must first agree with the checked replay on everything it reports.
    std::vector<std::uint32_t> ignored;
    PassResult own = run_part(index, nullptr, ignored);
    if (own.outputs.size() < checked.size() ||
        !std::equal(checked.begin(), checked.end(), own.outputs.begin())) {
      throw std::runtime_error{"topology_faults_bl: replay disagrees with replay_through_topology"};
    }
    return std::move(own.outputs);
  }

  PassResult run_part(std::size_t index, Tracer* tracer,
                      std::vector<std::uint32_t>& latencies) override {
    Part& part = parts_.at(index);
    wcs::TopologyConfig config = part.config;
    Tracer::NameId handle_name = 0;
    Tracer::NameId origin_name = 0;
    if (tracer != nullptr) {
      for (wcs::TierConfig& tier : config.tiers) {
        tier.proxy.policy = register_traced_policy(tier.proxy.policy, *tracer, "core.policy");
      }
      handle_name = tracer->name("proxy.topology.handle");
      origin_name = tracer->name("sim.origin");
    }
    wcs::SynthOrigin origin;
    wcs::UpstreamFn upstream = [&origin](const wcs::HttpRequest& request, wcs::SimTime now) {
      return origin.handle(request, now);
    };
    if (tracer != nullptr) {
      upstream = [&origin, tracer, origin_name](const wcs::HttpRequest& request,
                                                wcs::SimTime now) {
        const ScopedSpan span{tracer, origin_name};
        return origin.handle(request, now);
      };
    }
    wcs::CacheTopology topology{config, std::move(upstream)};

    PassResult pass;
    HitTotals totals;
    const ScopedSpan root{tracer, tracer != nullptr ? tracer->name("bench.pass") : 0};
    if (tracer != nullptr) tracer->set_fold_anchor(root.id());
    wcs::HttpRequest http;  // reused; no cache keeps a reference
    const wcs::InternTable& names = part.trace.names();
    const std::int64_t start = now_ns();
    std::int64_t piece_start = start;
    for (const wcs::Request& request : part.trace.requests()) {
      if (totals.requests % kPieceRequests == 0 && totals.requests > 0) {
        const std::int64_t now = now_ns();
        pass.pieces_ns.push_back(now - piece_start);
        piece_start = now;
      }
      origin.set_next_size(request.size);
      http.target.assign(names.url_name(request.url));
      const Tracer::SpanId span = tracer != nullptr ? tracer->open(handle_name) : 0;
      const std::int64_t begin = tracer != nullptr ? 0 : now_ns();
      const wcs::HttpResponse response = topology.handle(http, request.time);
      if (tracer != nullptr) {
        tracer->close(span);
      } else {
        latencies.push_back(static_cast<std::uint32_t>(now_ns() - begin));
      }
      // Classified like the program's replay: the client boundary can see
      // raw transport errors as well as 502/504.
      const bool failed = wcs::is_upstream_failure(response);
      const auto header = response.headers.get("X-Cache");
      const bool hit = !failed && header && *header == "HIT";
      if (failed) ++pass.failed_responses;
      ++totals.requests;
      totals.requested_bytes += request.size;
      if (hit) {
        ++totals.hits;
        totals.hit_bytes += request.size;
      }
    }
    const std::int64_t end = now_ns();
    pass.pieces_ns.push_back(end - piece_start);
    pass.wall_ns = end - start;
    pass.requests = totals.requests;

    part.tiers.clear();
    for (std::size_t t = 0; t < topology.tier_count(); ++t) {
      part.tiers.push_back(topology.tier_stats(t));
    }
    part.router = topology.router_stats();
    part.cache_stats = {};
    for (std::size_t t = 0; t < topology.tier_count(); ++t) {
      for (std::size_t i = 0; i < topology.tier_size(t); ++i) {
        add_cache_stats(part.cache_stats, topology.cache_at(t, i).cache().stats());
      }
    }
    pass.outputs = outputs_of(part.tiers, part.router, pass.requests - pass.failed_responses,
                              pass.failed_responses, totals);
    append_cache_stats(pass.outputs, part.cache_stats);
    if (!topology.audit().ok()) pass.outputs.push_back(0);  // never matches a reference
    return pass;
  }

  HitTotals hit_totals() const override { return totals_; }

  void per_layer(const Tracer& tracer, std::uint64_t requests, Metrics& metrics) const override {
    const double r = static_cast<double>(requests);
    const Tracer::Totals origin = tracer.totals("sim.origin");
    set_metric(metrics, "proxy.topology_ns_per_req",
               inclusive_per(tracer, "proxy.topology.handle", r));
    set_metric(metrics, "proxy.topology_self_ns_per_req",
               self_per(tracer, "proxy.topology.handle", r));
    set_metric(metrics, "core.policy_ns_per_req", ratio(policy_ns(tracer, "core.policy"), r));
    set_metric(metrics, "sim.origin_ns_per_call",
               ratio(static_cast<double>(origin.inclusive_ns), static_cast<double>(origin.calls)));
    set_metric(metrics, "sim.origin_calls_per_req", ratio(static_cast<double>(origin.calls), r));

    // Counters: per client request of one pass over every part (every pass
    // is identical).
    std::vector<wcs::ProxyCache::Stats> tiers(3);
    wcs::CacheTopology::RouterStats router;
    wcs::CacheStats cache_stats;
    wcs::ProxyCache::Stats sum;
    for (const Part& part : parts_) {
      for (std::size_t t = 0; t < part.tiers.size() && t < tiers.size(); ++t) {
        tiers[t].requests += part.tiers[t].requests;
        tiers[t].hits += part.tiers[t].hits;
      }
      for (const wcs::ProxyCache::Stats& s : part.tiers) {
        sum.validations += s.validations;
        sum.validated_fresh += s.validated_fresh;
        sum.retries += s.retries;
        sum.stale_served += s.stale_served;
        sum.negative_hits += s.negative_hits;
        sum.breaker_opens += s.breaker_opens;
      }
      router.link_failures += part.router.link_failures;
      router.sibling_failovers += part.router.sibling_failovers;
      router.tier_skips += part.router.tier_skips;
      router.origin_fetches += part.router.origin_fetches;
      add_cache_stats(cache_stats, part.cache_stats);
    }
    const double clients = static_cast<double>(totals_.requests);
    const auto per_client = [clients](std::uint64_t count) {
      return ratio(static_cast<double>(count), clients);
    };
    set_metric(metrics, "proxy.validations_per_req", per_client(sum.validations));
    set_metric(metrics, "proxy.validated_fresh_frac",
               ratio(static_cast<double>(sum.validated_fresh),
                     static_cast<double>(sum.validations)));
    set_metric(metrics, "proxy.link_failures_per_req", per_client(router.link_failures));
    set_metric(metrics, "proxy.sibling_failovers_per_req", per_client(router.sibling_failovers));
    set_metric(metrics, "proxy.tier_skips_per_req", per_client(router.tier_skips));
    set_metric(metrics, "proxy.origin_fetches_per_req", per_client(router.origin_fetches));
    set_metric(metrics, "proxy.retries_per_req", per_client(sum.retries));
    set_metric(metrics, "proxy.stale_served_per_req", per_client(sum.stale_served));
    set_metric(metrics, "proxy.negative_hits_per_req", per_client(sum.negative_hits));
    set_metric(metrics, "proxy.breaker_opens", static_cast<double>(sum.breaker_opens));
    const char* ratios[] = {"proxy.edge_hit_ratio", "proxy.regional_hit_ratio",
                            "proxy.parent_hit_ratio"};
    for (std::size_t t = 0; t < tiers.size(); ++t) {
      set_metric(metrics, ratios[t],
                 ratio(static_cast<double>(tiers[t].hits), static_cast<double>(tiers[t].requests)));
    }
    set_metric(metrics, "core.evictions_per_req",
               ratio(static_cast<double>(cache_stats.evictions),
                     static_cast<double>(cache_stats.requests)));
    set_metric(metrics, "core.insertions_per_miss",
               ratio(static_cast<double>(cache_stats.insertions),
                     static_cast<double>(cache_stats.requests - cache_stats.hits)));
  }

 private:
  struct Part {
    wcs::Trace trace;
    wcs::TopologyConfig config;
    // Of the latest pass:
    std::vector<wcs::ProxyCache::Stats> tiers;
    wcs::CacheTopology::RouterStats router;
    wcs::CacheStats cache_stats;
  };

  /// 4 edge -> 2 regional -> 1 parent, capacities 1/40, 1/10 and 1/5 of
  /// the trace's unique bytes per cache, the fault mix on every link.
  static wcs::TopologyConfig topology_for(std::uint64_t unique, std::uint64_t seed) {
    const wcs::FaultSpec faults = wcs::FaultSpec::transient_mix(kFaultRate, seed);
    wcs::TopologyConfig config;
    config.tiers.resize(3);
    const char* labels[] = {"edge", "regional", "parent"};
    const std::uint32_t caches[] = {4, 2, 1};
    const std::uint64_t capacity[] = {unique / 40, unique / 10, unique / 5};
    for (std::size_t t = 0; t < 3; ++t) {
      wcs::TierConfig& tier = config.tiers[t];
      tier.label = labels[t];
      tier.caches = caches[t];
      tier.proxy.capacity_bytes = capacity[t];
      tier.downlink = faults;
    }
    config.origin_link = faults;
    return config;
  }

  static std::vector<std::uint64_t> outputs_of(const std::vector<wcs::ProxyCache::Stats>& tiers,
                                               const wcs::CacheTopology::RouterStats& router,
                                               std::uint64_t served, std::uint64_t failed,
                                               const HitTotals& totals) {
    std::vector<std::uint64_t> out;
    for (const wcs::ProxyCache::Stats& s : tiers) append_proxy_stats(out, s);
    out.insert(out.end(), {router.link_failures, router.sibling_failovers, router.tier_skips,
                           router.origin_fetches, served, failed, totals.requests, totals.hits,
                           totals.requested_bytes, totals.hit_bytes});
    return out;
  }

  std::vector<Part> parts_ = std::vector<Part>(kParts);
  HitTotals totals_;
};

}  // namespace

std::unique_ptr<Workload> make_topology_faults_bl() {
  return std::make_unique<TopologyFaultsBl>();
}

}  // namespace perfbench
