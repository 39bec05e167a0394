// The two service-path workloads (README.md has their make-up and why):
//
//   serve-steady  trained tenants on the full 39-model zoo at Table III's
//                 5 s / 35 ms window; a closed loop of classify bursts, one
//                 burst per tick, never larger than the drain limit.
//   serve-churn   small-zoo tenants enroll, train, serve and retire in
//                 rolling turns with durability on (WAL + snapshots), and
//                 one restart from the directory midway through.
//
// Victim traces are generated before any clock starts (input preparation)
// and every request is built before the submit() clock starts, so the
// end-to-end figures time only the service's own submit() and tick().

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <unordered_map>

#include "amperebleed/core/sampler.hpp"
#include "amperebleed/dnn/zoo.hpp"
#include "amperebleed/dpu/dpu.hpp"
#include "amperebleed/ml/random_forest.hpp"
#include "amperebleed/obs/obs.hpp"
#include "amperebleed/persist/journal.hpp"
#include "amperebleed/persist/store.hpp"
#include "amperebleed/serve/service.hpp"
#include "amperebleed/soc/soc.hpp"
#include "amperebleed/util/parallel.hpp"
#include "amperebleed/util/rng.hpp"
#include "amperebleed/util/strings.hpp"
#include "amperebleed/util/thread_pool.hpp"
#include "checks.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace amperebleed;
using util::format;
using util::hash_combine;

// Table III's longest window at the default hwmon interval: 5 s / 35 ms.
constexpr std::size_t kWindowSamples = 142;
constexpr sim::TimeNs kSamplePeriod = sim::milliseconds(35);
// Coalescer drain limit (the service's default); bursts never exceed it,
// so nothing is shed.
constexpr std::size_t kMaxBatch = 256;
constexpr std::size_t kSetups = 9;
// serve-steady's timed phase is measured in slices of this length.
constexpr double kSliceSeconds = 1.0;
// Every kReplayEvery-th timed tick is replayed layer by layer (traced run).
constexpr std::uint64_t kReplayEvery = 16;
// Latency samples kept per measurement slice (a uniform reservoir), so even
// the p99 of a slice still has ~650 samples beyond it.
constexpr std::size_t kLatencyReservoir = std::size_t{1} << 16;

/// Full-precision rendering of every Serving tenant's verdict on each probe
/// trace (classify_many, the path the service's sweep uses).
std::string render_probe(const serve::ClassificationService& service,
                         const std::vector<const core::Trace*>& probes) {
  std::string out;
  char buf[40];
  for (const std::string& name : service.tenant_names()) {
    const serve::TenantSession* tenant = service.tenant(name);
    out += name;
    out += '|';
    out += serve::state_name(tenant->state());
    if (tenant->state() == serve::TenantSession::State::Serving) {
      for (const auto& verdict : tenant->fingerprinter().classify_many(
               std::span<const core::Trace* const>(probes))) {
        out += verdict.known ? "|+" : "|-";
        out += verdict.model_name;
        for (const auto& [label, proba] : verdict.ranking) {
          std::snprintf(buf, sizeof(buf), " %.17g", proba);
          out += buf;
        }
      }
    }
    out += '\n';
  }
  return out;
}

/// The probe at pool size 1 must be bit-identical to the probe at
/// `wide` threads; the pool is left at `threads`, the run's size.
std::string pool_size_probe_check(const serve::ClassificationService& service,
                                  const std::vector<const core::Trace*>& probes,
                                  std::size_t wide, std::size_t threads) {
  util::ThreadPool::set_global_threads(wide);
  const std::string many = render_probe(service, probes);
  util::ThreadPool::set_global_threads(1);
  const std::string one = render_probe(service, probes);
  util::ThreadPool::set_global_threads(threads);
  return check_same_probe("pool 1 vs pool " + std::to_string(wide), many,
                          one);
}

/// Figures of a measurement slice, in SliceSet order: the Ok-classify
/// rate over time spent in submit()/tick(), classify latency quantiles (us;
/// the p90 and p99 are reported, not bounded: see README.md), and for
/// serve-churn the cycle's control rate.
enum Figure : std::size_t { kRate, kP50, kP90, kP99, kControlRate };

/// A classify request the generator sent: what it asked and when.
struct Sent {
  std::size_t model = 0;  // index into the workload's model list
  std::int64_t submit_ns = 0;
};

/// The closed-loop client: builds requests outside the clock, times every
/// submit() and tick(), audits every response, and keeps per-kind and
/// per-status tallies that settle() folds into the ledger.
class Client {
 public:
  Client(Result& result, Tracer& tracer, const serve::ServiceConfig& config,
         const std::vector<std::string>& models,
         const std::unordered_map<std::string, std::size_t>& class_counts)
      : result_(result),
        tracer_(tracer),
        config_(config),
        models_(models),
        class_counts_(class_counts) {}

  /// Submit a prepared burst (timed) and run one tick (timed). `truth`
  /// holds the model index the generator used for each request. Returns
  /// the tick's wall duration in ns.
  std::int64_t burst(serve::ClassificationService& service,
                     std::vector<serve::Request>& requests,
                     const std::vector<std::size_t>& truth) {
    bool control = false;
    const std::int64_t submit_start = now_ns();
    std::int64_t t = submit_start;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const auto kind = static_cast<std::size_t>(requests[i].kind);
      control = control || requests[i].kind != serve::RequestKind::Classify;
      ++attempted_[kind];
      const auto submitted = service.submit(std::move(requests[i]));
      const std::int64_t after = now_ns();
      tracer_.record("serve.submit", t, after - t);
      submit_ns_ += after - t;
      ++submits_;
      if (submitted.accepted) {
        audit_.expect(submitted.id);
        sent_.emplace(submitted.id, Sent{truth[i], t});
      } else {
        // Refused at the door (Overloaded): counts as failed.
        ++failed_[kind];
        ++outcomes_[kind][static_cast<std::size_t>(submitted.status)];
      }
      t = after;
    }
    Tracer::Scope tick_span(tracer_,
                            control ? "serve.control_tick" : "serve.tick");
    const std::int64_t tick_start = now_ns();
    responses_ = service.tick();
    const std::int64_t tick_end = now_ns();
    tick_span.close();
    service_ns_ += tick_end - submit_start;
    absorb(tick_end);
    return tick_end - tick_start;
  }

  /// Tick until the queue is empty (timed like bursts).
  void drain(serve::ClassificationService& service) {
    while (service.queue_depth() != 0) {
      const std::int64_t start = now_ns();
      responses_ = service.tick();
      const std::int64_t end = now_ns();
      service_ns_ += end - start;
      absorb(end);
    }
  }

  /// Fold the tallies into the ledger (once) and return the response
  /// audit's verdict (empty: every admitted request answered exactly once).
  std::string settle() {
    for (std::size_t k = 0; k < kKinds; ++k) {
      const std::string kind(serve::kind_name(static_cast<serve::RequestKind>(k)));
      if (attempted_[k] != 0) result_.ledger.attempt(kind, attempted_[k]);
      if (failed_[k] != 0) result_.ledger.fail(kind, failed_[k]);
      for (std::size_t s = 0; s < serve::kServeStatusCount; ++s) {
        if (outcomes_[k][s] == 0) continue;
        result_.ledger.outcome(
            kind, std::string(serve::status_name(
                      static_cast<serve::ServeStatus>(s))),
            outcomes_[k][s]);
      }
    }
    attempted_ = {};
    failed_ = {};
    outcomes_ = {};
    return audit_.finish();
  }

  // Tallies.
  std::int64_t service_ns_ = 0;  // inside submit() and tick()
  std::int64_t submit_ns_ = 0;
  std::uint64_t submits_ = 0;
  std::uint64_t classify_ok_ = 0;
  std::uint64_t classify_correct_ = 0;
  std::uint64_t control_ok_ = 0;
  std::uint64_t latencies_ = 0;  // classify latencies recorded, all slices

  /// Close the current measurement slice (see SliceSet): its Figure
  /// values, `extra` appended, with the host steal seen since the last one.
  void close_slice(SliceSet& slices, std::vector<double> extra = {}) {
    const double seconds =
        static_cast<double>(service_ns_ - slice_ns_) / 1e9;
    const std::uint64_t steal = host_steal_ticks();
    if (seconds > 0.0 && classify_ok_ != slice_ok_) {
      std::vector<double> figures = {
          static_cast<double>(classify_ok_ - slice_ok_) / seconds,
          latency_us_.quantile(0.5), latency_us_.quantile(0.9),
          latency_us_.quantile(0.99)};
      figures.insert(figures.end(), extra.begin(), extra.end());
      slices.add(steal - slice_steal_, std::move(figures));
    }
    slice_ns_ = service_ns_;
    slice_ok_ = classify_ok_;
    slice_steal_ = steal;
    latency_us_ = Samples(kLatencyReservoir);
  }

 private:
  static constexpr std::size_t kKinds = 4;  // serve::RequestKind values

  void absorb(std::int64_t tick_end) {
    for (const serve::Response& response : responses_) {
      const auto kind = static_cast<std::size_t>(response.kind);
      ++outcomes_[kind][static_cast<std::size_t>(response.status)];
      if (!audit_.answer(response.id)) continue;
      const auto it = sent_.find(response.id);
      const Sent sent = it->second;
      sent_.erase(it);
      if (!response.ok()) {
        ++failed_[kind];
        continue;
      }
      if (response.kind != serve::RequestKind::Classify) {
        ++control_ok_;
        continue;
      }
      ++classify_ok_;
      latency_us_.add(static_cast<double>(tick_end - sent.submit_ns) / 1e3);
      ++latencies_;
      if (response.verdict.model_name == models_[sent.model]) {
        ++classify_correct_;
      }
      const auto classes = class_counts_.find(response.tenant);
      const std::string problem = check_verdict(
          response.verdict,
          classes == class_counts_.end() ? 0 : classes->second,
          config_.fingerprinter.min_confidence,
          config_.fingerprinter.min_margin);
      if (!problem.empty() && verdict_failures_++ < 3) {
        result_.failures.push_back(problem);
      }
    }
  }

  Result& result_;
  Tracer& tracer_;
  const serve::ServiceConfig& config_;
  const std::vector<std::string>& models_;  // truth index -> model name
  const std::unordered_map<std::string, std::size_t>& class_counts_;
  ResponseAudit audit_;
  std::unordered_map<std::uint64_t, Sent> sent_;
  std::vector<serve::Response> responses_;
  std::uint64_t verdict_failures_ = 0;
  Samples latency_us_{kLatencyReservoir};
  std::int64_t slice_ns_ = 0;
  std::uint64_t slice_ok_ = 0;
  std::uint64_t slice_steal_ = host_steal_ticks();
  std::array<std::uint64_t, kKinds> attempted_{};
  std::array<std::uint64_t, kKinds> failed_{};
  std::array<std::array<std::uint64_t, serve::kServeStatusCount>, kKinds>
      outcomes_{};
};

serve::Request classify_request(const std::string& tenant,
                                const core::Trace& trace) {
  serve::Request request;
  request.kind = serve::RequestKind::Classify;
  request.tenant = tenant;
  request.trace = trace;
  return request;
}

serve::Request enroll_request(const std::string& tenant,
                              const std::string& label,
                              const core::Trace& trace) {
  serve::Request request;
  request.kind = serve::RequestKind::Enroll;
  request.tenant = tenant;
  request.label = label;
  request.trace = trace;
  return request;
}

serve::Request control_request(serve::RequestKind kind,
                               const std::string& tenant) {
  serve::Request request;
  request.kind = kind;
  request.tenant = tenant;
  return request;
}

/// Per-layer replay of one sampled tick's classify sweep: the service
/// groups a drained burst per tenant and runs the groups through
/// classify_many in a parallel_for, so the same shape is replayed here and
/// subtracted from the tick to leave the sweep's own work. Tenants are
/// kept by name and looked up at replay time (a restart replaces them).
struct SweepSample {
  std::vector<std::pair<std::string, std::vector<const core::Trace*>>> groups;
  std::int64_t tick_ns = 0;
};

const core::OnlineFingerprinter& fingerprinter_of(
    const serve::ClassificationService& service, const std::string& name) {
  return service.tenant(name)->fingerprinter();
}

std::int64_t replay_sweep(const serve::ClassificationService& service,
                          const SweepSample& sample) {
  const std::int64_t start = now_ns();
  util::parallel_for(sample.groups.size(), [&](std::size_t g) {
    const auto& [name, rows] = sample.groups[g];
    (void)fingerprinter_of(service, name)
        .classify_many(std::span<const core::Trace* const>(rows));
  });
  return now_ns() - start;
}

/// Single-worker replays of sampled tenant groups: classify_many against
/// predict_proba_many on the same rows (pool pinned to 1, as inside the
/// service's sweep where each group runs on one worker).
void replay_groups(const serve::ClassificationService& service,
                   const std::vector<SweepSample>& samples,
                   std::size_t threads, Result& result) {
  util::ThreadPool::set_global_threads(1);
  Samples classify_many_ms;
  double classify_ns = 0.0;
  double predict_ns = 0.0;
  double rows_total = 0.0;
  for (const SweepSample& sample : samples) {
    for (const auto& [name, rows] : sample.groups) {
      const auto& fp = fingerprinter_of(service, name);
      const std::int64_t a = now_ns();
      (void)fp.classify_many(std::span<const core::Trace* const>(rows));
      const std::int64_t b = now_ns();
      std::vector<std::vector<double>> features;
      features.reserve(rows.size());
      for (const core::Trace* trace : rows) {
        features.push_back(trace->prefix(fp.feature_count()));
      }
      std::vector<std::span<const double>> spans(features.begin(),
                                                 features.end());
      const std::int64_t c = now_ns();
      (void)fp.forest().predict_proba_many(spans);
      const std::int64_t d = now_ns();
      classify_many_ms.add(static_cast<double>(b - a) / 1e6);
      classify_ns += static_cast<double>(b - a);
      predict_ns += static_cast<double>(d - c);
      rows_total += static_cast<double>(rows.size());
    }
  }
  util::ThreadPool::set_global_threads(threads);
  if (rows_total == 0.0) return;
  result.per_layer["core.classify_many_ms"] = classify_many_ms.median();
  result.per_layer["ml.predict_us_per_row"] = predict_ns / rows_total / 1e3;
  result.per_layer["core.verdict_self_us_per_row"] =
      (classify_ns - predict_ns) / rows_total / 1e3;
}

/// Replay RandomForest::fit on tenants' enrollment data at the run's pool
/// size (train requests fit at the top level of a tick).
void replay_fits(const serve::ClassificationService& service,
                 const std::vector<std::string>& tenants,
                 const ml::ForestConfig& forest, Result& result) {
  Samples fit_ms;
  for (const std::string& name : tenants) {
    const serve::TenantSession* tenant = service.tenant(name);
    if (tenant == nullptr) continue;
    ml::RandomForest replay(forest);
    const std::int64_t a = now_ns();
    replay.fit(tenant->fingerprinter().enrollment_data());
    fit_ms.add(static_cast<double>(now_ns() - a) / 1e6);
  }
  result.per_layer["ml.fit_ms"] = fit_ms.median();
}

void input_prep_layers(const Tracer& tracer, Result& result) {
  result.per_layer["soc.build_ms"] = tracer.durations("soc.build").median() / 1e6;
  result.per_layer["core.sampler_collect_ms"] =
      tracer.durations("core.sampler_collect").median() / 1e6;
}

void serve_layers(const Tracer& tracer, const Client& client,
                  const serve::ClassificationService& service,
                  const std::vector<SweepSample>& sweeps, Result& result) {
  const serve::ServiceStats stats = service.stats();
  const Samples& ticks = tracer.durations("serve.tick");
  result.per_layer["serve.submit_ns"] =
      client.submits_ == 0 ? 0.0
                           : static_cast<double>(client.submit_ns_) /
                                 static_cast<double>(client.submits_);
  result.per_layer["serve.tick_p50_ms"] = ticks.quantile(0.5) / 1e6;
  result.per_layer["serve.tick_p99_ms"] = ticks.quantile(0.99) / 1e6;
  result.per_layer["serve.control_tick_ms"] =
      tracer.durations("serve.control_tick").median() / 1e6;
  result.per_layer["serve.rows_per_sweep"] =
      stats.sweeps == 0 ? 0.0
                        : static_cast<double>(stats.coalesced_rows) /
                              static_cast<double>(stats.sweeps);
  Samples self_ms;
  for (const SweepSample& s : sweeps) {
    self_ms.add(static_cast<double>(s.tick_ns - replay_sweep(service, s)) /
                1e6);
  }
  result.per_layer["serve.sweep_self_ms"] = self_ms.median();
}

/// One burst of requests as the generator built it. `sources` points at
/// the victim trace each classify request copied (stable input storage),
/// so sampled bursts can be replayed after the requests were moved.
struct Burst {
  std::vector<serve::Request> requests;
  std::vector<std::size_t> truth;  // model index per request (0: control)
  std::vector<const core::Trace*> sources;
  std::int64_t build_ns = 0;

  void clear() {
    requests.clear();
    truth.clear();
    sources.clear();
    build_ns = 0;
  }
  void add(serve::Request request, std::size_t model,
           const core::Trace* source) {
    requests.push_back(std::move(request));
    truth.push_back(model);
    sources.push_back(source);
  }
};

/// Append `n` classify requests for uniformly drawn tenants; `draw` picks
/// the (model, trace) for a tenant index. Build time goes to build_ns.
template <typename Draw>
void add_classify(Burst& burst, util::Rng& rng, std::size_t n,
                  const std::vector<std::string>& tenants, Draw&& draw) {
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    const auto t = static_cast<std::size_t>(rng.uniform_below(tenants.size()));
    const auto [model, trace] = draw(t);
    burst.add(classify_request(tenants[t], *trace), model, trace);
  }
  burst.build_ns += now_ns() - start;
}

/// The tenant groups of a burst's classify requests, in first-seen order,
/// as the service's sweep forms them. Call before the burst is submitted.
SweepSample sample_sweep(const serve::ClassificationService& service,
                         const Burst& burst) {
  SweepSample sample;
  std::unordered_map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < burst.requests.size(); ++i) {
    const serve::Request& request = burst.requests[i];
    if (request.kind != serve::RequestKind::Classify) continue;
    const serve::TenantSession* tenant = service.tenant(request.tenant);
    if (tenant == nullptr ||
        tenant->state() != serve::TenantSession::State::Serving) {
      continue;
    }
    auto [it, fresh] = index.emplace(request.tenant, sample.groups.size());
    if (fresh) sample.groups.push_back({request.tenant, {}});
    sample.groups[it->second].second.push_back(burst.sources[i]);
  }
  return sample;
}

void set_end_to_end(Result& result, const Samples& setups,
                    const SliceSet& slices, double train_ops_per_s) {
  result.end_to_end["setup_s"] = setups.median();
  result.end_to_end["ops_per_s"] = slices.median(kRate);
  result.end_to_end["train_ops_per_s"] = train_ops_per_s;
  result.end_to_end["latency_p50_us"] = slices.median(kP50);
  result.notes.push_back(format(
      "latency (%zu slices, those with above-median steal left out): p50 "
      "%.1f us, p90 %.1f us, p99 %.1f us",
      slices.size(), slices.median(kP50), slices.median(kP90),
      slices.median(kP99)));
  result.end_to_end["peak_rss_mb"] = peak_rss_mb();
}

std::string accuracy_note(const Client& client) {
  return format("classify: %llu Ok, %.4f winners match the generator; "
                "latency over %llu requests",
                static_cast<unsigned long long>(client.classify_ok_),
                client.classify_ok_ == 0
                    ? 0.0
                    : static_cast<double>(client.classify_correct_) /
                          static_cast<double>(client.classify_ok_),
                static_cast<unsigned long long>(client.latencies_));
}

std::string wipe_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  return dir;
}

/// persist layer replays on the state serve-churn reached, each into a
/// fresh directory through TenantStore's public API: journal appends of
/// the last two turns' enrollment records, and a rewrite of the newest
/// snapshot the churn left behind.
void replay_persist(const std::string& dir,
                    const std::function<void(std::size_t, Burst&)>& enrollment,
                    std::size_t tenants, Result& result) {
  const std::string replay_dir = wipe_dir(dir + "-replay");
  {
    persist::TenantStore churned(persist::TenantStore::Config{dir, 1u << 30});
    persist::TenantStore store(
        persist::TenantStore::Config{replay_dir, 1u << 30});
    Burst burst;
    for (std::size_t i = tenants - 2; i < tenants; ++i) enrollment(i, burst);
    Samples append_us;
    std::uint64_t seq = 0;
    for (const serve::Request& request : burst.requests) {
      persist::JournalRecord record;
      record.seq = ++seq;
      record.tenant = request.tenant;
      if (request.kind == serve::RequestKind::Enroll) {
        record.op = persist::JournalOp::Enroll;
        record.label = request.label;
        persist::record_set_trace(record, *request.trace);
      } else {
        record.op = persist::JournalOp::Train;
      }
      const std::int64_t a = now_ns();
      store.append(record);
      append_us.add(static_cast<double>(now_ns() - a) / 1e3);
    }
    result.per_layer["persist.append_us"] = append_us.median();
    if (churned.snapshot().has_value()) {
      persist::ServiceSnapshot snap = *churned.snapshot();
      snap.last_seq = seq + 1;
      const std::int64_t a = now_ns();
      store.write_snapshot(snap);
      result.per_layer["persist.snapshot_ms"] =
          static_cast<double>(now_ns() - a) / 1e6;
      std::error_code ec;
      const auto bytes = std::filesystem::file_size(
          replay_dir + "/snapshot-" + std::to_string(snap.last_seq) + ".bin",
          ec);
      result.per_layer["persist.snapshot_bytes"] =
          ec ? 0.0 : static_cast<double>(bytes);
      result.notes.push_back(format("snapshot: %zu tenants in %.0f bytes",
                                    snap.tenants.size(),
                                    result.per_layer["persist.snapshot_bytes"]));
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(replay_dir, ec);
}

}  // namespace

core::Trace record_victim_trace(const std::string& model_name,
                                std::uint64_t seed, Tracer& tracer) {
  const dnn::Model model = dnn::build_model(model_name);
  Tracer::Scope build(tracer, "soc.build");
  dpu::DpuAccelerator dpu;
  auto run = dpu.run(
      model, sim::TimeNs{0},
      sim::TimeNs{kSamplePeriod.ns *
                  static_cast<std::int64_t>(kWindowSamples + 4)},
      seed);
  soc::Soc soc(soc::zcu102_config(hash_combine(seed, 0x0e)));
  soc.fabric().deploy(dpu.descriptor());
  soc.add_activity(run.activity);
  soc.finalize();
  build.close();
  Tracer::Scope collect(tracer, "core.sampler_collect");
  core::Sampler sampler(soc);
  core::SamplerConfig sc;
  sc.period = kSamplePeriod;
  sc.sample_count = kWindowSamples;
  return sampler.collect({power::Rail::FpgaLogic, core::Quantity::Current},
                         sim::TimeNs{0}, sc);
}

// ---------------------------------------------------------------------------
// serve-steady
// ---------------------------------------------------------------------------

Result run_serve_steady(const Options& options) {
  constexpr std::size_t kTenants = 4;
  constexpr std::size_t kEnrollPool = 6;  // candidate enrollment traces
  constexpr std::size_t kEnroll = 4;      // enrolled per (tenant, model)
  constexpr std::size_t kProbe = 3;       // held-out traces per model
  constexpr std::size_t kTrees = 40;

  Result result;
  fill_layer_defaults(result);
  Tracer tracer(options.trace);
  const std::vector<std::string> models = dnn::zoo_model_names();

  // Input preparation: victim traces per model, never timed.
  std::vector<std::vector<core::Trace>> traces(models.size());
  for (std::size_t m = 0; m < models.size(); ++m) {
    for (std::size_t k = 0; k < kEnrollPool + kProbe; ++k) {
      traces[m].push_back(record_victim_trace(
          models[m], hash_combine(options.seed, hash_combine(m, k)), tracer));
    }
  }
  // Each tenant enrolls its own seeded pick of kEnroll of the kEnrollPool
  // candidate traces per model; the kProbe held-out traces are never
  // enrolled by anyone.
  std::vector<std::string> tenants;
  std::vector<std::vector<std::size_t>> enrolled;
  std::unordered_map<std::string, std::size_t> class_counts;
  for (std::size_t t = 0; t < kTenants; ++t) {
    tenants.push_back(format("zoo-%zu", t));
    class_counts[tenants.back()] = models.size();
    std::vector<std::size_t> pick(kEnrollPool);
    for (std::size_t k = 0; k < kEnrollPool; ++k) pick[k] = k;
    util::Rng rng(hash_combine(options.seed, 0x7e + t));
    for (std::size_t k = kEnrollPool - 1; k > 0; --k) {
      std::swap(pick[k], pick[rng.uniform_below(k + 1)]);
    }
    pick.resize(kEnroll);
    enrolled.push_back(pick);
  }

  serve::ServiceConfig config;
  config.max_batch = kMaxBatch;
  config.fingerprinter.forest.n_trees = kTrees;

  // Set-up, several times: construct, then enroll and train through the
  // queue in bursts of the drain limit. The last service is kept.
  Samples setups;
  Samples control_rate;
  std::unique_ptr<serve::ClassificationService> service;
  for (std::size_t rep = 0; rep < kSetups; ++rep) {
    std::vector<Burst> bursts(1);
    for (std::size_t k = 0; k < kEnroll; ++k) {
      for (std::size_t t = 0; t < kTenants; ++t) {
        for (std::size_t m = 0; m < models.size(); ++m) {
          if (bursts.back().requests.size() == kMaxBatch) bursts.emplace_back();
          const core::Trace& trace = traces[m][enrolled[t][k]];
          bursts.back().add(enroll_request(tenants[t], models[m], trace), m,
                            &trace);
        }
      }
    }
    for (const std::string& name : tenants) {
      if (bursts.back().requests.size() == kMaxBatch) bursts.emplace_back();
      bursts.back().add(control_request(serve::RequestKind::Train, name), 0,
                        nullptr);
    }
    Client client(result, tracer, config, models, class_counts);
    const std::int64_t start = now_ns();
    service = std::make_unique<serve::ClassificationService>(config);
    std::uint64_t sent = 0;
    for (Burst& burst : bursts) {
      sent += burst.requests.size();
      client.burst(*service, burst.requests, burst.truth);
    }
    client.drain(*service);
    setups.add(static_cast<double>(now_ns() - start) / 1e9);
    control_rate.add(static_cast<double>(client.control_ok_) /
                     (static_cast<double>(client.service_ns_) / 1e9));
    result.require(client.settle());
    result.check(client.control_ok_ == sent,
                 format("set-up: %llu of %llu control requests Ok",
                        static_cast<unsigned long long>(client.control_ok_),
                        static_cast<unsigned long long>(sent)));
  }

  // Timed phase: a closed loop, one burst of the drain limit per tick,
  // measured in slices of about kSliceSeconds.
  Client client(result, tracer, config, models, class_counts);
  SliceSet slices;
  util::Rng rng(hash_combine(options.seed, 0x5eed));
  const auto draw = [&](std::size_t) {
    const auto m = static_cast<std::size_t>(rng.uniform_below(models.size()));
    const auto v =
        kEnrollPool + static_cast<std::size_t>(rng.uniform_below(kProbe));
    return std::pair<std::size_t, const core::Trace*>{m, &traces[m][v]};
  };
  std::vector<SweepSample> sweeps;
  std::int64_t client_ns = 0;
  std::uint64_t built = 0;
  Burst burst;
  const std::int64_t start = now_ns();
  const auto n_slices = static_cast<std::size_t>(
      std::max(1.0, std::round(options.seconds / kSliceSeconds)));
  std::uint64_t tick = 0;
  for (std::size_t slice = 1; slice <= n_slices; ++slice) {
    const std::int64_t slice_end =
        start + static_cast<std::int64_t>(options.seconds * 1e9 *
                                          static_cast<double>(slice) /
                                          static_cast<double>(n_slices));
    for (; now_ns() < slice_end; ++tick) {
      burst.clear();
      add_classify(burst, rng, kMaxBatch, tenants, draw);
      client_ns += burst.build_ns;
      built += kMaxBatch;
      const bool sampled = options.trace && tick % kReplayEvery == 0;
      if (sampled) sweeps.push_back(sample_sweep(*service, burst));
      const std::int64_t tick_ns =
          client.burst(*service, burst.requests, burst.truth);
      if (sampled) sweeps.back().tick_ns = tick_ns;
    }
    client.close_slice(slices);
  }
  client.drain(*service);
  result.require(client.settle());
  result.require(check_floor("accuracy", client.classify_correct_,
                             client.classify_ok_, kServeZooFloor));
  std::vector<const core::Trace*> probes;
  for (std::size_t m = 0; m < models.size(); ++m) {
    probes.push_back(&traces[m][kEnrollPool]);
  }
  result.require(pool_size_probe_check(*service, probes, options.probe_threads,
                                       options.threads));

  set_end_to_end(result, setups, slices, control_rate.median());
  result.notes.push_back(accuracy_note(client));
  result.per_layer["bench.client_us_per_request"] =
      static_cast<double>(client_ns) / static_cast<double>(built) / 1e3;
  if (!options.trace) return result;

  result.per_layer["bench.traced_ops_per_s"] = result.end_to_end["ops_per_s"];
  input_prep_layers(tracer, result);
  serve_layers(tracer, client, *service, sweeps, result);
  replay_groups(*service, sweeps, options.threads, result);
  replay_fits(*service, tenants, config.fingerprinter.forest, result);

  // obs metrics on against off: interleaved slices of the same load, in
  // ABBA order so drift over the run cancels.
  constexpr int kSlices = 8;
  constexpr double kSliceS = 0.5;
  Samples off_rate;
  Samples on_rate;
  for (int slice = 0; slice < kSlices; ++slice) {
    const bool on = slice % 4 == 1 || slice % 4 == 2;
    if (on) {
      obs::init(obs::ObsConfig{.enabled = true, .metrics = true,
                               .tracing = false, .audit = false});
    }
    Tracer quiet(false);
    Client slice_client(result, quiet, config, models, class_counts);
    const std::int64_t end =
        now_ns() + static_cast<std::int64_t>(kSliceS * 1e9);
    while (now_ns() < end) {
      burst.clear();
      add_classify(burst, rng, kMaxBatch, tenants, draw);
      slice_client.burst(*service, burst.requests, burst.truth);
    }
    slice_client.drain(*service);
    result.require(slice_client.settle());
    if (on) {
      obs::disable();
      obs::reset_data();
    }
    (on ? on_rate : off_rate)
        .add(static_cast<double>(slice_client.classify_ok_) /
             (static_cast<double>(slice_client.service_ns_) / 1e9));
  }
  result.per_layer["obs.metrics_on_classify_per_s"] = on_rate.median();
  result.per_layer["obs.metrics_on_cost_pct"] =
      100.0 * (off_rate.median() - on_rate.median()) / off_rate.median();
  tracer.write_chrome_trace(options.workdir + "/trace-serve-steady.json");
  return result;
}

// ---------------------------------------------------------------------------
// serve-churn
// ---------------------------------------------------------------------------

Result run_serve_churn(const Options& options) {
  constexpr std::size_t kZoo = 4;          // models per tenant
  constexpr std::size_t kEnrollPool = 5;
  constexpr std::size_t kEnroll = 4;       // enrolled per (tenant, model)
  constexpr std::size_t kProbe = 3;
  constexpr std::size_t kLive = 6;         // tenants serving at once
  constexpr std::size_t kTurns = 32;       // per cycle; restart after half
  constexpr std::size_t kClassifyBursts = 15;  // per turn, after control
  constexpr std::size_t kFencedClassify = 16;  // in each control burst
  constexpr std::size_t kTrees = 20;
  constexpr std::size_t kControlPerTurn = kZoo * kEnroll + 2;  // + train, retire

  Result result;
  fill_layer_defaults(result);
  Tracer tracer(options.trace);

  // Input preparation: victim traces of every zoo model; each tenant's
  // small zoo is a seeded draw from them.
  const std::vector<std::string> models = dnn::zoo_model_names();
  std::vector<std::vector<core::Trace>> traces(models.size());
  for (std::size_t m = 0; m < models.size(); ++m) {
    for (std::size_t k = 0; k < kEnrollPool + kProbe; ++k) {
      traces[m].push_back(record_victim_trace(
          models[m], hash_combine(options.seed, hash_combine(0xc0 + m, k)),
          tracer));
    }
  }
  std::vector<const core::Trace*> probes;
  for (std::size_t m = 0; m < models.size(); ++m) {
    probes.push_back(&traces[m][kEnrollPool]);
  }

  // Tenant i's zoo and enrollment picks are a pure function of (seed, i).
  std::unordered_map<std::string, std::size_t> class_counts;
  std::unordered_map<std::string, std::vector<std::size_t>> zoos;
  const auto tenant_name = [](std::size_t i) {
    return format("churn-%zu", i);
  };
  const auto add_enrollment = [&](std::size_t i, Burst& burst) {
    const std::string name = tenant_name(i);
    std::vector<std::size_t> order(models.size());
    for (std::size_t m = 0; m < order.size(); ++m) order[m] = m;
    util::Rng rng(hash_combine(options.seed, 0xd00 + i));
    for (std::size_t k = order.size() - 1; k > 0; --k) {
      std::swap(order[k], order[rng.uniform_below(k + 1)]);
    }
    order.resize(kZoo);
    for (std::size_t m : order) {
      for (std::size_t k = 0; k < kEnroll; ++k) {
        const core::Trace& trace =
            traces[m][static_cast<std::size_t>(rng.uniform_below(kEnrollPool))];
        burst.add(enroll_request(name, models[m], trace), m, &trace);
      }
    }
    burst.add(control_request(serve::RequestKind::Train, name), 0, nullptr);
    class_counts[name] = kZoo;
    zoos[name] = order;
  };

  const std::string dir = options.workdir + format("/churn-%d", getpid());
  serve::ServiceConfig config;
  config.max_batch = kMaxBatch;
  config.fingerprinter.forest.n_trees = kTrees;
  config.durability.dir = dir;

  // Whole cycles until the time is up. A cycle starts from a wiped
  // directory: set-up (construct, enroll and train kLive tenants), then
  // kTurns turns with one restart after half of them. A turn's first burst
  // carries classify traffic for the live tenants, a new tenant's
  // enrollment and training, and the oldest live tenant's retirement
  // (control requests fence the coalescer); its other bursts are classify
  // traffic only. Every cycle replays the same seeded schedule.
  Client client(result, tracer, config, models, class_counts);
  Client control(result, tracer, config, models, class_counts);
  SliceSet slices;  // one per cycle
  Samples setups;
  Samples recover_ms;
  std::vector<SweepSample> sweeps;
  std::unique_ptr<serve::ClassificationService> service;
  std::int64_t client_ns = 0;
  std::uint64_t built = 0;
  std::uint64_t cycles = 0;
  std::vector<std::string> live;
  std::size_t next_tenant = 0;
  Burst burst;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  while (now_ns() < deadline) {
    service.reset();
    wipe_dir(dir);
    burst.clear();
    for (std::size_t i = 0; i < kLive; ++i) add_enrollment(i, burst);
    std::uint64_t control_sent = burst.requests.size();
    Client setup(result, tracer, config, models, class_counts);
    const std::int64_t start = now_ns();
    service = std::make_unique<serve::ClassificationService>(config);
    setup.burst(*service, burst.requests, burst.truth);
    setup.drain(*service);
    setups.add(static_cast<double>(now_ns() - start) / 1e9);
    result.require(setup.settle());
    result.check(setup.control_ok_ == control_sent,
                 format("set-up: %llu of %llu control requests Ok",
                        static_cast<unsigned long long>(setup.control_ok_),
                        static_cast<unsigned long long>(control_sent)));

    live.clear();
    for (std::size_t i = 0; i < kLive; ++i) live.push_back(tenant_name(i));
    next_tenant = kLive;
    util::Rng rng(hash_combine(options.seed, 0x10ad));
    const auto draw = [&](std::size_t t) {
      const std::vector<std::size_t>& own = zoos.at(live[t]);
      const std::size_t m = own[rng.uniform_below(own.size())];
      const auto v =
          kEnrollPool + static_cast<std::size_t>(rng.uniform_below(kProbe));
      return std::pair<std::size_t, const core::Trace*>{m, &traces[m][v]};
    };
    std::uint64_t journal_appends = 0;
    std::uint64_t control_ok = 0;
    std::int64_t control_cpu_ns = 0;
    for (std::size_t turn = 0; turn < kTurns; ++turn) {
      if (turn == kTurns / 2) {
        // Restart: drain, probe, destroy, recover, probe again.
        client.drain(*service);
        const std::string before = render_probe(*service, probes);
        const std::size_t tenants_before = service->tenant_names().size();
        journal_appends += service->storage().journal_appends;
        service.reset();
        const std::int64_t a = now_ns();
        service = std::make_unique<serve::ClassificationService>(config);
        recover_ms.add(static_cast<double>(now_ns() - a) / 1e6);
        const serve::StorageStats storage = service->storage();
        result.require(check_same_probe("restart", before,
                                        render_probe(*service, probes)));
        result.require(check_recovery(RecoveryView{
            storage.discarded_records, storage.snapshots_discarded,
            storage.discarded_tenants.size(), storage.replay_dropped_records,
            tenants_before, service->tenant_names().size()}));
        result.ledger.attempt("restart");
      }
      // The turn's control burst: the new tenant's enrollment and training
      // and the oldest tenant's retirement, with classify requests before,
      // between and after them so the control requests fence the sweep.
      burst.clear();
      add_classify(burst, rng, kFencedClassify / 2, live, draw);
      add_enrollment(next_tenant, burst);
      add_classify(burst, rng, kFencedClassify / 2, live, draw);
      burst.add(control_request(serve::RequestKind::Retire, live.front()), 0,
                nullptr);
      control_sent += kControlPerTurn;
      const std::uint64_t ok_before = control.control_ok_;
      const std::int64_t cpu_before = process_cpu_ns();
      control.burst(*service, burst.requests, burst.truth);
      control_cpu_ns += process_cpu_ns() - cpu_before;
      control_ok += control.control_ok_ - ok_before;
      live.erase(live.begin());
      live.push_back(tenant_name(next_tenant++));

      for (std::size_t b = 0; b < kClassifyBursts; ++b) {
        burst.clear();
        add_classify(burst, rng, kMaxBatch, live, draw);
        built += burst.requests.size();
        client_ns += burst.build_ns;
        const bool sampled =
            options.trace && (turn * kClassifyBursts + b) % kReplayEvery == 1;
        if (sampled) sweeps.push_back(sample_sweep(*service, burst));
        const std::int64_t tick_ns =
            client.burst(*service, burst.requests, burst.truth);
        if (sampled) sweeps.back().tick_ns = tick_ns;
      }
    }
    client.drain(*service);
    control.drain(*service);
    client.close_slice(slices, {static_cast<double>(control_ok) /
                                (static_cast<double>(control_cpu_ns) / 1e9)});
    journal_appends += service->storage().journal_appends;
    result.require(check_journal(journal_appends, control_sent));
    result.check(service->storage().journal_failures == 0 &&
                     !service->degraded(),
                 "storage: journal failures or degraded mode");
    ++cycles;
  }
  result.require(client.settle());
  result.require(control.settle());
  result.require(check_floor(
      "accuracy", client.classify_correct_ + control.classify_correct_,
      client.classify_ok_ + control.classify_ok_, kServeSmallZooFloor));
  result.require(pool_size_probe_check(*service, probes, options.probe_threads,
                                       options.threads));

  set_end_to_end(result, setups, slices, slices.median(kControlRate));
  result.notes.push_back(accuracy_note(client));
  result.notes.push_back(format(
      "churn: %llu cycles of %zu turns; each cycle ends holding %zu tenants "
      "(%zu live, the rest retired but kept in memory and snapshots)",
      static_cast<unsigned long long>(cycles), kTurns, next_tenant, kLive));
  result.per_layer["bench.client_us_per_request"] =
      static_cast<double>(client_ns) / static_cast<double>(built) / 1e3;

  if (options.trace) {
    result.per_layer["bench.traced_ops_per_s"] = result.end_to_end["ops_per_s"];
    result.per_layer["persist.recover_ms"] = recover_ms.median();
    input_prep_layers(tracer, result);
    serve_layers(tracer, client, *service, sweeps, result);
    replay_groups(*service, sweeps, options.threads, result);
    replay_fits(*service, live, config.fingerprinter.forest, result);
  }
  service.reset();
  if (options.trace) {
    replay_persist(dir, [&](std::size_t i, Burst& b) { add_enrollment(i, b); },
                   next_tenant, result);
    tracer.write_chrome_trace(options.workdir + "/trace-serve-churn.json");
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return result;
}

}  // namespace perfbench
