// perfbench: the repository's benchmark driver. One process runs one
// workload and prints, as the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). perfbench/run.py builds this binary and calls it; see
// README.md for the workloads and what every metric means.
//
//   perfbench --workload serve-steady|serve-churn|table3-offline
//             --seed N --seconds S --trace 0|1 --threads N
//             --probe-threads N --workdir DIR
//   perfbench --selftest

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "amperebleed/util/cli.hpp"
#include "amperebleed/util/thread_pool.hpp"
#include "harness.hpp"

namespace {

using namespace perfbench;

/// What a generic end-to-end metric is on this workload (README.md).
const char* meaning(const std::string& workload, const std::string& metric) {
  const bool offline = workload == "table3-offline";
  if (metric == "ops_per_s") {
    return offline ? "acquire_runs_per_s" : "classify_per_s";
  }
  if (metric == "train_ops_per_s") {
    return offline ? "cv_fits_per_s" : "control_per_s";
  }
  if (metric == "latency_p50_us") {
    return offline ? "verdict_p50_us" : "classify_p50_us";
  }
  if (metric == "setup_s") return offline ? "attacker_fit_s" : "service_setup_s";
  return "";
}

void print_metrics(const std::string& workload, const Result& result,
                   bool trace) {
  const auto& specs = trace ? kPerLayer : kEndToEnd;
  const auto& values = trace ? result.per_layer : result.end_to_end;
  std::printf("%s metrics:\n", trace ? "per-layer" : "end-to-end");
  for (const MetricSpec& spec : specs) {
    std::printf("  %-36s %16.6g %-6s %s\n", spec.name, values.at(spec.name),
                spec.unit, trace ? "" : meaning(workload, spec.name));
  }
  std::string json = "{\"correct\": ";
  json += result.failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.ledger.attempted());
  json += ", \"failed\": " + std::to_string(result.ledger.failed());
  json += ", \"metrics\": {";
  char buf[96];
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                  i == 0 ? "" : ", ", specs[i].name,
                  values.at(specs[i].name));
    json += buf;
    json += "\"unit\": \"";
    json += specs[i].unit;
    json += "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const amperebleed::util::CliArgs args(argc, argv);
  try {
    if (args.has("selftest")) return run_selftest() == 0 ? 0 : 1;
    Options options;
    options.workload = args.get_string("workload", "");
    options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    options.seconds = args.get_double("seconds", 10.0);
    options.trace = args.get_int("trace", 0) != 0;
    options.threads = static_cast<std::size_t>(args.get_int("threads", 1));
    options.probe_threads = static_cast<std::size_t>(
        args.get_int("probe-threads", static_cast<std::int64_t>(options.threads)));
    options.workdir = args.get_string("workdir", ".");
    if (options.threads == 0 || options.probe_threads == 0 ||
        options.seconds <= 0.0) {
      std::fprintf(stderr,
                   "perfbench: --threads, --probe-threads and --seconds must "
                   "be > 0\n");
      return 2;
    }
    amperebleed::util::ThreadPool::set_global_threads(options.threads);

    Result result;
    if (options.workload == "serve-steady") {
      result = run_serve_steady(options);
    } else if (options.workload == "serve-churn") {
      result = run_serve_churn(options);
    } else if (options.workload == "table3-offline") {
      result = run_table3_offline(options);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   options.workload.c_str());
      return 2;
    }
    std::printf("workload %s, seed %llu, %.0f s, pool %zu, trace %d\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.threads, options.trace ? 1 : 0);
    for (const std::string& note : result.notes) {
      std::printf("%s\n", note.c_str());
    }
    std::printf("%s", result.ledger.render().c_str());
    for (const std::string& failure : result.failures) {
      std::printf("CHECK FAILED: %s\n", failure.c_str());
    }
    print_metrics(options.workload, result, options.trace);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
