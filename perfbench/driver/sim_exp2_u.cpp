// sim_exp2_u: the paper's Experiment 2 panel on workload U.
//
// Sixteen independent U traces at 1/8 of paper scale (twice the paper's
// request volume in all). Per trace, one simulate() per policy, single
// thread, capacity 10% of that trace's MaxNeeded. The panel is the 36
// primary x secondary sorting-key combinations plus LRU-MIN, GDSF, SLRU
// and W-TinyLFU (40 cells). The cache is tight, so
// most misses evict and the policy index does most of the work; HTTP, the
// proxy and threads are absent.
#include <string>
#include <vector>

#include "perfbench/driver/forwarding.h"
#include "perfbench/driver/workload.h"
#include "src/sim/experiments.h"
#include "src/sim/simulator.h"
#include "src/workload/generator.h"

namespace perfbench {
namespace {

enum class Group { kCore, kLruMin, kZoo };

constexpr std::size_t kParts = 16;
constexpr double kPartScale = 1.0 / 8.0;

struct Cell {
  Group group = Group::kCore;
  wcs::PolicyFactory make;
};

class SimExp2U final : public Workload {
 public:
  SimExp2U() : parts_(kParts) {
    for (const wcs::KeySpec& spec : wcs::KeySpec::experiment2_grid()) {
      cells_.push_back({Group::kCore, [spec] { return wcs::make_sorted_policy(spec); }});
    }
    cells_.push_back({Group::kLruMin, [] { return wcs::make_lru_min(); }});
    for (const char* name : {"gdsf", "slru", "w-tinylfu"}) {
      cells_.push_back({Group::kZoo,
                        [name = std::string{name}] { return wcs::make_policy_by_name(name); }});
    }
  }

  std::size_t parts() const override { return parts_.size(); }

  double setup(std::size_t index, const RunOptions& options) override {
    wcs::WorkloadSpec spec = wcs::WorkloadSpec::preset("U").scaled(kPartScale * options.scale);
    spec.seed = part_seed(options.seed, kParts, index);
    Part& part = parts_.at(index);
    const std::int64_t start = now_ns();
    part.trace = wcs::WorkloadGenerator{spec}.generate().trace;
    const double generate_s = static_cast<double>(now_ns() - start) * 1e-9;
    part.capacity = wcs::fraction_of(wcs::simulate_infinite(part.trace).max_used_bytes, 0.10);
    return generate_s;
  }

  std::vector<std::uint64_t> verify(std::size_t index) override {
    const Part& part = parts_.at(index);
    std::vector<std::uint64_t> outputs;
    const wcs::SimAudit audit{part.trace.size() / 8 + 1};
    for (const Cell& cell : cells_) {
      const wcs::SimResult result = wcs::simulate(part.trace, part.capacity, cell.make, {}, audit);
      append_cache_stats(outputs, result.stats);
      totals_ += {result.stats.requests, result.stats.hits, result.stats.requested_bytes,
                  result.stats.hit_bytes};
      evictions_ += result.stats.evictions;
      insertions_ += result.stats.insertions;
    }
    return outputs;
  }

  PassResult run_part(std::size_t index, Tracer* tracer,
                      std::vector<std::uint32_t>& latencies) override {
    const Part& part = parts_.at(index);
    PassResult pass;
    std::vector<PolicyNames> groups;
    Tracer::NameId simulate_name = 0;
    if (tracer != nullptr) {
      groups = {PolicyNames::in(*tracer, "core.policy"), PolicyNames::in(*tracer, "core.lru_min"),
                PolicyNames::in(*tracer, "zoo.policy")};
      simulate_name = tracer->name("sim.simulate");
    }
    const ScopedSpan root{tracer, tracer != nullptr ? tracer->name("bench.pass") : 0};
    const std::int64_t start = now_ns();
    for (const Cell& cell : cells_) {
      SampledSource source{part.trace, tracer == nullptr ? &latencies : nullptr};
      wcs::PolicyFactory make = cell.make;
      if (tracer != nullptr) {
        const PolicyNames names = groups[static_cast<std::size_t>(cell.group)];
        make = [tracer, names, inner = cell.make] {
          return std::make_unique<TracedPolicy>(inner(), *tracer, names);
        };
      }
      wcs::SimResult result;
      const std::int64_t cell_start = now_ns();
      {
        const ScopedSpan span{tracer, simulate_name};
        if (tracer != nullptr) tracer->set_fold_anchor(span.id());
        result = wcs::simulate(source, part.capacity, make);
      }
      pass.pieces_ns.push_back(now_ns() - cell_start);
      append_cache_stats(pass.outputs, result.stats);
      pass.requests += result.stats.requests;
    }
    pass.wall_ns = now_ns() - start;
    return pass;
  }

  HitTotals hit_totals() const override { return totals_; }

  void per_layer(const Tracer& tracer, std::uint64_t requests, Metrics& metrics) const override {
    const double per_cell = static_cast<double>(requests) / static_cast<double>(cells_.size());
    const double core_requests = per_cell * static_cast<double>(cells_.size() - 4);
    const double zoo_requests = per_cell * 3.0;
    const double r = static_cast<double>(requests);
    set_metric(metrics, "sim.simulate_ns_per_req", inclusive_per(tracer, "sim.simulate", r));
    set_metric(metrics, "sim.self_ns_per_req", self_per(tracer, "sim.simulate", r));
    set_metric(metrics, "core.policy_ns_per_req", ratio(policy_ns(tracer, "core.policy"), core_requests));
    set_metric(metrics, "core.lru_min_ns_per_req", ratio(policy_ns(tracer, "core.lru_min"), per_cell));
    set_metric(metrics, "zoo.policy_ns_per_req", ratio(policy_ns(tracer, "zoo.policy"), zoo_requests));
    for (const char* call : {"on_hit", "on_insert", "on_remove", "choose_victim"}) {
      const Tracer::Totals t = tracer.totals(std::string{"core.policy."} + call);
      set_metric(metrics, std::string{"core."} + call + "_ns",
                 ratio(static_cast<double>(t.inclusive_ns), static_cast<double>(t.calls)));
    }
    const double misses = static_cast<double>(totals_.requests - totals_.hits);
    set_metric(metrics, "core.evictions_per_req",
               ratio(static_cast<double>(evictions_), static_cast<double>(totals_.requests)));
    set_metric(metrics, "core.insertions_per_miss",
               ratio(static_cast<double>(insertions_), misses));
  }

 private:
  struct Part {
    wcs::Trace trace;
    std::uint64_t capacity = 0;
  };

  std::vector<Part> parts_;
  std::vector<Cell> cells_;
  HitTotals totals_;
  std::uint64_t evictions_ = 0;
  std::uint64_t insertions_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_sim_exp2_u() { return std::make_unique<SimExp2U>(); }

}  // namespace perfbench
