// The benchmark's workload interface and shared helpers.
//
// A workload pools several independent inputs ("parts"), each generated
// from its own seed derived from the run's --seed. Pooling is what keeps
// the run-level figures steady from seed to seed: the paper presets'
// hit rates and byte volumes swing by 5-15% between seeds, and that swing
// shrinks with the number of independent inputs, not with their length.
//
// setup(part) generates one part; verify(part) computes the part's reference
// outputs once through the program's own checked entry points with
// invariant audits on; run_part() replays the part in a timed pass. Every
// pass must reproduce the reference outputs exactly, traced or not; the
// driver compares them field by field.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/driver/tracer.h"
#include "src/core/cache.h"
#include "src/proxy/proxy.h"
#include "src/sim/metrics.h"

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct RunOptions {
  std::uint64_t seed = 1996;
  /// Multiplies each part's request volume (1 = the benchmark's sizes).
  /// Only the self-test lowers it.
  double scale = 1.0;
};

/// WorkloadSpec seed of part `part` of a run with seed `seed`: disjoint
/// across runs for any run seed below 2^64 / parts.
[[nodiscard]] inline std::uint64_t part_seed(std::uint64_t seed, std::size_t parts,
                                             std::size_t part) {
  return seed * parts + part;
}

struct PassResult {
  std::uint64_t requests = 0;
  /// Requests answered 502/504 or with a transport failure: the program's
  /// correct, deterministic answer to injected faults (they are part of the
  /// compared outputs), reported through the availability metric.
  std::uint64_t failed_responses = 0;
  std::int64_t wall_ns = 0;
  /// wall_ns split into consecutive pieces (simulate() cells, blocks of
  /// requests) that are the same work in every pass. The driver takes each
  /// piece's fastest time over the passes, so a spell of interference from
  /// outside the process spoils a piece only if it spans every pass.
  std::vector<std::int64_t> pieces_ns;
  /// Outputs compared against the reference, field by field.
  std::vector<std::uint64_t> outputs;
};

/// Pooled hit accounting of the served requests.
struct HitTotals {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t requested_bytes = 0;
  std::uint64_t hit_bytes = 0;

  HitTotals& operator+=(const HitTotals& other) {
    requests += other.requests;
    hits += other.hits;
    requested_bytes += other.requested_bytes;
    hit_bytes += other.hit_bytes;
    return *this;
  }
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  /// Number of independent inputs a run pools (fixed per workload).
  [[nodiscard]] virtual std::size_t parts() const = 0;

  /// Generate one part's inputs and build its target configuration.
  /// Returns the seconds spent generating the request stream alone.
  virtual double setup(std::size_t part, const RunOptions& options) = 0;

  /// Reference outputs of one part from the program's checked entry points
  /// (audits on); throws std::runtime_error when an invariant check fails.
  [[nodiscard]] virtual std::vector<std::uint64_t> verify(std::size_t part) = 0;

  /// One pass over a part's inputs against a fresh target. `tracer` null
  /// means untraced; a traced pass is one "bench.pass" root span.
  /// `latencies` receives per-request times in ns.
  [[nodiscard]] virtual PassResult run_part(std::size_t part, Tracer* tracer,
                                            std::vector<std::uint32_t>& latencies) = 0;

  /// Hit accounting of the reference passes, pooled over the parts.
  [[nodiscard]] virtual HitTotals hit_totals() const = 0;

  /// Per-layer metrics from the traced passes (`requests` is their total
  /// request count) and from the program's own stats, over all parts.
  virtual void per_layer(const Tracer& tracer, std::uint64_t requests,
                         Metrics& metrics) const = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_sim_exp2_u();
[[nodiscard]] std::unique_ptr<Workload> make_topology_faults_bl();

/// Append every counter of a stats struct, in declaration order.
void append_cache_stats(std::vector<std::uint64_t>& out, const wcs::CacheStats& stats);
void append_proxy_stats(std::vector<std::uint64_t>& out, const wcs::ProxyCache::Stats& stats);
/// Field-by-field sum (max_used_bytes too, as ShardedCache::merged_stats does).
void add_cache_stats(wcs::CacheStats& into, const wcs::CacheStats& stats);

/// Requests per timed piece of the replay loops.
inline constexpr std::uint64_t kPieceRequests = 4096;

/// Pooled hit accounting of a DailySeries (the program's replay results).
void add_daily(HitTotals& into, const wcs::DailySeries& daily);

/// Set `name` in `metrics` (which already lists it with its unit).
void set_metric(Metrics& metrics, const std::string& name, double value);

[[nodiscard]] inline double ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

/// Summed inclusive ns of one group of folded policy callbacks
/// ("core.policy", "core.lru_min", "zoo.policy").
[[nodiscard]] double policy_ns(const Tracer& tracer, const std::string& group);

/// Mean inclusive/self ns per call or per request of a span name.
[[nodiscard]] double inclusive_per(const Tracer& tracer, const char* name, double per);
[[nodiscard]] double self_per(const Tracer& tracer, const char* name, double per);

}  // namespace perfbench
