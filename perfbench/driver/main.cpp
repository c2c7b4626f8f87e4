// perfbench: the repository benchmark driver.
//
//   wcs_perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//                 [--scale F] [--spans-out FILE] [--wrong-reference]
//
// Runs one workload: set up its independent parts from seeds derived from
// --seed (the median part set-up time is setup_s), compute each part's
// reference outputs through the program's checked entry points, then
// measure whole passes over every part for S seconds. Every pass must reproduce the reference outputs
// exactly. --trace 0 prints the end-to-end metrics; --trace 1 alternates
// untraced and traced passes and prints the per-layer metrics, writing the
// spans of the first traced part to --spans-out.
//
// The last line of stdout is one JSON object: correct, attempted, failed
// (requests of passes whose outputs did not match), metrics. The line
// before it records the run's environment. Exit status: 0 when every pass
// matched, 1 on a mismatch or a failed invariant check, 2 on bad usage.
// --wrong-reference perturbs the reference so the check must fire (the
// self-test uses it).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/driver/tracer.h"
#include "perfbench/driver/workload.h"
#include "src/zoo/registry.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  RunOptions run;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
  bool wrong_reference = false;
};

const std::vector<std::pair<const char*, const char*>>& end_to_end_catalog() {
  static const std::vector<std::pair<const char*, const char*>> catalog = {
      {"throughput_rps", "1/s"}, {"latency_p50_us", "us"}, {"latency_p99_us", "us"},
      {"hit_rate", "frac"},      {"byte_hit_rate", "frac"}, {"availability", "frac"},
      {"setup_s", "s"},          {"peak_rss_mb", "MB"}};
  return catalog;
}

const std::vector<std::pair<const char*, const char*>>& per_layer_catalog() {
  static const std::vector<std::pair<const char*, const char*>> catalog = {
      {"workload.generate_s", "s"},
      {"sim.simulate_ns_per_req", "ns/req"},
      {"sim.self_ns_per_req", "ns/req"},
      {"core.policy_ns_per_req", "ns/req"},
      {"core.lru_min_ns_per_req", "ns/req"},
      {"zoo.policy_ns_per_req", "ns/req"},
      {"core.on_hit_ns", "ns"},
      {"core.on_insert_ns", "ns"},
      {"core.on_remove_ns", "ns"},
      {"core.choose_victim_ns", "ns"},
      {"core.evictions_per_req", "1/req"},
      {"core.insertions_per_miss", "1/miss"},
      {"sim.origin_ns_per_call", "ns"},
      {"sim.origin_calls_per_req", "1/req"},
      {"proxy.validations_per_req", "1/req"},
      {"proxy.validated_fresh_frac", "frac"},
      {"proxy.topology_ns_per_req", "ns/req"},
      {"proxy.topology_self_ns_per_req", "ns/req"},
      {"proxy.link_failures_per_req", "1/req"},
      {"proxy.sibling_failovers_per_req", "1/req"},
      {"proxy.tier_skips_per_req", "1/req"},
      {"proxy.origin_fetches_per_req", "1/req"},
      {"proxy.retries_per_req", "1/req"},
      {"proxy.stale_served_per_req", "1/req"},
      {"proxy.negative_hits_per_req", "1/req"},
      {"proxy.breaker_opens", "count"},
      {"proxy.edge_hit_ratio", "frac"},
      {"proxy.regional_hit_ratio", "frac"},
      {"proxy.parent_hit_ratio", "frac"},
      {"bench.tracing_overhead_frac", "frac"},
  };
  return catalog;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "sim_exp2_u") return make_sim_exp2_u();
  if (name == "topology_faults_bl") return make_topology_faults_bl();
  return nullptr;
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (arg == "--workload" && has_value) {
        options.workload = argv[++i];
      } else if (arg == "--seed" && has_value) {
        options.run.seed = std::stoull(argv[++i]);
      } else if (arg == "--seconds" && has_value) {
        options.seconds = std::stod(argv[++i]);
      } else if (arg == "--trace" && has_value) {
        options.trace = std::stoi(argv[++i]) != 0;
      } else if (arg == "--scale" && has_value) {
        options.run.scale = std::stod(argv[++i]);
      } else if (arg == "--spans-out" && has_value) {
        options.spans_out = argv[++i];
      } else if (arg == "--wrong-reference") {
        options.wrong_reference = true;
      } else {
        std::cerr << "perfbench: unknown or incomplete argument: " << arg << '\n';
        return false;
      }
    } catch (const std::exception&) {
      std::cerr << "perfbench: bad value for " << arg << '\n';
      return false;
    }
  }
  if (options.workload.empty() || !(options.seconds > 0.0) || !(options.run.scale > 0.0)) {
    std::cerr << "perfbench: --workload is required; --seconds and --scale must be > 0\n";
    return false;
  }
  return true;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

/// Nearest-rank percentile of `samples` (reordered in place), in ns.
double percentile(std::vector<std::uint32_t>& samples, double fraction) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(samples.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return static_cast<double>(samples[index]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::uint64_t digest(const std::vector<std::uint64_t>& values) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a over the little-endian words
  for (std::uint64_t value : values) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

std::vector<std::uint64_t> flatten(const std::vector<std::vector<std::uint64_t>>& parts) {
  std::vector<std::uint64_t> out;
  for (const auto& part : parts) out.insert(out.end(), part.begin(), part.end());
  return out;
}

std::string number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char text[40];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int run(const Options& options) {
  std::unique_ptr<Workload> workload = make_workload(options.workload);
  if (workload == nullptr) {
    std::cerr << "perfbench: unknown workload " << options.workload << '\n';
    return 2;
  }
  wcs::zoo::register_zoo_policies();
  const std::size_t parts = workload->parts();

  // Set-up: generation plus target configuration, once per part; the
  // median over the parts is reported.
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  for (std::size_t part = 0; part < parts; ++part) {
    const std::int64_t start = now_ns();
    generate_s.push_back(workload->setup(part, options.run));
    setup_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }

  // Reference outputs (not timed). These passes also warm the allocator
  // and the page tables; the fastest-pass figures below skip a slow first
  // pass.
  std::vector<std::vector<std::uint64_t>> reference(parts);
  for (std::size_t part = 0; part < parts; ++part) reference[part] = workload->verify(part);
  if (options.wrong_reference && !reference[0].empty()) reference[0].front() ^= 1;

  std::uint64_t attempted = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t failed_responses = 0;
  const auto matches = [&reference, &mismatched](std::size_t part, const PassResult& pass) {
    if (pass.outputs == reference[part]) return;
    mismatched += std::max<std::uint64_t>(pass.requests, 1);
    std::cerr << "perfbench: part " << part << " outputs differ from the reference (digest "
              << std::hex << digest(pass.outputs) << " vs " << digest(reference[part])
              << std::dec << ")\n";
  };
  std::vector<std::uint32_t> latencies;

  // Measured passes, each over every part: wall-time samples per (part,
  // piece), and per (part, latency sample) the fastest time over the passes.
  Tracer tracer;
  std::vector<std::uint64_t> part_requests(parts, 0);
  using PieceSamples = std::vector<std::vector<std::vector<double>>>;
  PieceSamples untraced_wall(parts);
  PieceSamples traced_wall(parts);
  std::vector<std::vector<std::uint32_t>> fastest_ns(parts);
  std::vector<double> pass_rps;  // untraced passes, for the record
  std::size_t untraced_passes = 0;
  std::size_t traced_passes = 0;
  std::uint64_t traced_requests = 0;
  std::uint64_t latency_samples = 0;
  const std::int64_t begin = now_ns();
  while (true) {
    const bool traced = options.trace && traced_passes < untraced_passes;
    std::uint64_t pass_requests = 0;
    std::int64_t pass_ns = 0;
    for (std::size_t part = 0; part < parts; ++part) {
      const PassResult pass = workload->run_part(part, traced ? &tracer : nullptr, latencies);
      if (!traced) {
        latency_samples += latencies.size();
        std::vector<std::uint32_t>& fastest = fastest_ns[part];
        if (fastest.empty()) {
          fastest.swap(latencies);
        } else if (fastest.size() == latencies.size()) {
          for (std::size_t i = 0; i < fastest.size(); ++i) {
            fastest[i] = std::min(fastest[i], latencies[i]);
          }
        } else {
          throw std::runtime_error{"part " + std::to_string(part) +
                                   ": latency sample count differs between passes"};
        }
        latencies.clear();
      }
      matches(part, pass);
      attempted += pass.requests;
      failed_responses += pass.failed_responses;
      part_requests[part] = pass.requests;
      std::vector<std::vector<double>>& samples = (traced ? traced_wall : untraced_wall)[part];
      samples.resize(pass.pieces_ns.size());
      for (std::size_t piece = 0; piece < pass.pieces_ns.size(); ++piece) {
        samples[piece].push_back(static_cast<double>(pass.pieces_ns[piece]));
      }
      if (traced) {
        traced_requests += pass.requests;
        // The span table keeps the first traced part only: enough to read
        // the tree, and a bounded file.
        if (!options.spans_out.empty()) tracer.keep_records(false);
      }
      pass_requests += pass.requests;
      pass_ns += pass.wall_ns;
    }
    if (traced) {
      ++traced_passes;
    } else {
      ++untraced_passes;
      pass_rps.push_back(ratio(static_cast<double>(pass_requests),
                               static_cast<double>(pass_ns) * 1e-9));
    }
    const bool enough = !options.trace || traced_passes > 0;
    if (enough && static_cast<double>(now_ns() - begin) * 1e-9 >= options.seconds) break;
  }
  // Interference from other tenants of the machine only ever slows a piece
  // down, and on a shared box it comes and goes in spells of seconds to
  // minutes that can halve the speed. So each piece's fastest time over the
  // passes is taken as its cost, and a part's throughput is its requests
  // over the sum of its pieces' costs. The run reports the median part, so
  // one trace with unusually large documents does not move the figure.
  // Latency likewise: the n-th latency sample of a part is the same request
  // (the same work) in every pass, so its cost is its fastest time over the
  // passes; the percentiles are taken over those costs pooled from every
  // part, so no single trace's largest documents set the tail.
  const auto throughput = [&part_requests](const PieceSamples& walls) {
    std::vector<double> per_part;
    for (std::size_t part = 0; part < walls.size(); ++part) {
      double ns = 0.0;
      for (const std::vector<double>& piece : walls[part]) {
        ns += *std::min_element(piece.begin(), piece.end());
      }
      per_part.push_back(ratio(static_cast<double>(part_requests[part]), ns * 1e-9));
    }
    return median(per_part);
  };
  std::vector<std::uint32_t> pooled_ns;
  for (const std::vector<std::uint32_t>& fastest : fastest_ns) {
    pooled_ns.insert(pooled_ns.end(), fastest.begin(), fastest.end());
  }

  Metrics metrics;
  const auto& catalog = options.trace ? per_layer_catalog() : end_to_end_catalog();
  for (const auto& [name, unit] : catalog) metrics[name] = Metric{0.0, unit};
  std::int64_t self_sum_ns = 0;
  std::int64_t root_ns = 0;
  if (options.trace) {
    set_metric(metrics, "workload.generate_s", median(generate_s));
    set_metric(metrics, "bench.tracing_overhead_frac",
               throughput(untraced_wall) / throughput(traced_wall) - 1.0);
    workload->per_layer(tracer, traced_requests, metrics);
    for (const std::string& name : tracer.names()) self_sum_ns += tracer.totals(name).self_ns;
    root_ns = tracer.totals("bench.pass").inclusive_ns;
    if (!options.spans_out.empty() && !tracer.write(options.spans_out)) {
      std::cerr << "perfbench: cannot write spans to " << options.spans_out << '\n';
    }
  } else {
    const HitTotals totals = workload->hit_totals();
    set_metric(metrics, "throughput_rps", throughput(untraced_wall));
    set_metric(metrics, "latency_p50_us", percentile(pooled_ns, 0.50) * 1e-3);
    set_metric(metrics, "latency_p99_us", percentile(pooled_ns, 0.99) * 1e-3);
    set_metric(metrics, "hit_rate", ratio(static_cast<double>(totals.hits),
                                          static_cast<double>(totals.requests)));
    set_metric(metrics, "byte_hit_rate", ratio(static_cast<double>(totals.hit_bytes),
                                               static_cast<double>(totals.requested_bytes)));
    // A mismatched request counts as failed on top of the 502/504 answers.
    const double served = static_cast<double>(attempted) -
                          static_cast<double>(failed_responses) - static_cast<double>(mismatched);
    set_metric(metrics, "availability",
               ratio(std::max(served, 0.0), static_cast<double>(attempted)));
    set_metric(metrics, "setup_s", median(setup_s));
    set_metric(metrics, "peak_rss_mb", peak_rss_mb());
  }

  const bool correct = mismatched == 0;
  std::cout << "{\"info\": {\"workload\": " << json_string(options.workload)
            << ", \"seed\": " << options.run.seed << ", \"scale\": " << number(options.run.scale)
            << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"compiler\": " << json_string(std::string{"gcc "} + __VERSION__)
            << ", \"parts\": " << parts << ", \"passes\": " << untraced_passes + traced_passes
            << ", \"traced_passes\": " << traced_passes
            << ", \"attempted\": " << attempted << ", \"served\": " << attempted - failed_responses
            << ", \"failed_responses\": " << failed_responses
            << ", \"mismatched\": " << mismatched << ", \"latency_samples\": " << latency_samples
            << ", \"reference_digest\": \"" << std::hex << digest(flatten(reference)) << std::dec
            << "\""
            << ", \"pass_rps\": [";
  for (std::size_t i = 0; i < pass_rps.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << number(pass_rps[i]);
  }
  std::cout << "], \"span_root_ns\": " << root_ns << ", \"span_self_sum_ns\": " << self_sum_ns
            << "}}\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
            << std::max<std::uint64_t>(attempted, 1) << ", \"failed\": " << mismatched
            << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : catalog) {
    const Metric& metric = metrics.at(name);
    std::cout << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
              << number(metric.value) << ", \"unit\": " << json_string(metric.unit) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::parse(argc, argv, options)) return 2;
  try {
    return perfbench::run(options);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    return 1;
  }
}
