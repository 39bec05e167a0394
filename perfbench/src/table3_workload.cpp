// table3-offline: the researcher's reproduction of the paper's Table III,
// in whole rounds. Each round calls collect_fingerprint_traces (39 models,
// six channels) and evaluate_fingerprint (six channels x five windows x
// CV folds) on a round seed, then plays the attack's online phase: the
// previous round's attacker forest, fitted on its 5 s FPGA-current traces,
// scores each of this round's fresh 5 s windows one at a time.

#include <algorithm>
#include <cstdio>

#include "amperebleed/core/features.hpp"
#include "amperebleed/core/fingerprint.hpp"
#include "amperebleed/core/sampler.hpp"
#include "amperebleed/dnn/zoo.hpp"
#include "amperebleed/ml/kfold.hpp"
#include "amperebleed/ml/random_forest.hpp"
#include "amperebleed/obs/obs.hpp"
#include "amperebleed/soc/soc.hpp"
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

constexpr std::size_t kTraces = 5;  // per model; also the CV fold count
constexpr std::size_t kTrees = 20;
constexpr std::size_t kReplayRuns = 8;
// The attacker's own forest uses the paper's random-forest size.
constexpr std::size_t kAttackTrees = 100;
// The attacker scores every fresh window this many times per round, one
// window per call, so each round has enough verdicts for a p99; an untimed
// pass first warms the forest into cache.
constexpr std::size_t kVerdictPasses = 8;

core::FingerprintConfig round_config(std::uint64_t seed, std::uint64_t round) {
  core::FingerprintConfig config;
  config.traces_per_model = kTraces;
  config.folds = kTraces;
  config.forest.n_trees = kTrees;
  config.seed = hash_combine(seed, round);
  return config;
}

std::size_t channel_index(const core::Channel& wanted) {
  const auto& channels = core::table3_channels();
  for (std::size_t c = 0; c < channels.size(); ++c) {
    if (channels[c].rail == wanted.rail &&
        channels[c].quantity == wanted.quantity) {
      return c;
    }
  }
  return channels.size();
}

/// Replays one victim run of collect_fingerprint_traces through the public
/// soc/dpu/core APIs, step for step (same seeds), timing each layer. The
/// caller checks the replayed traces against the workload's datasets.
std::vector<core::Trace> replay_run(const dnn::Model& model,
                                    const core::FingerprintConfig& config,
                                    std::size_t samples, std::uint64_t run_seed,
                                    Samples& build_ms, Samples& collect_ms) {
  const std::int64_t a = now_ns();
  util::Rng rng(run_seed);
  const sim::TimeNs jitter{static_cast<std::int64_t>(
      rng.uniform() * static_cast<double>(config.max_trigger_jitter.ns))};
  dpu::DpuAccelerator dpu(config.dpu);
  const sim::TimeNs run_end{config.trace_duration.ns + jitter.ns +
                            sim::milliseconds(200).ns};
  auto run = dpu.run(model, sim::TimeNs{0}, run_end,
                     hash_combine(run_seed, 0xd9));
  const power::RailActivity background = soc::make_background_os_activity(
      config.background, run_end, hash_combine(run_seed, 0x05));
  soc::Soc soc(soc::zcu102_config(hash_combine(run_seed, 0x50c)));
  soc.fabric().deploy(dpu.descriptor());
  soc.add_activity(run.activity);
  soc.add_activity(background);
  soc.finalize();
  const std::int64_t b = now_ns();
  core::Sampler sampler(soc);
  core::SamplerConfig sc;
  sc.period = config.sample_period;
  sc.sample_count = samples;
  auto traces = sampler.collect_multi(core::table3_channels(), jitter, sc);
  const std::int64_t c = now_ns();
  build_ms.add(static_cast<double>(b - a) / 1e6);
  collect_ms.add(static_cast<double>(c - b) / 1e6);
  return traces;
}

}  // namespace

Result run_table3_offline(const Options& options) {
  Result result;
  fill_layer_defaults(result);
  Tracer tracer(options.trace);

  const std::size_t current = channel_index(
      {power::Rail::FpgaLogic, core::Quantity::Current});
  const std::size_t classes = dnn::zoo_model_names().size();
  // Independent of the program: Table III's longest window is 5 s at the
  // 35 ms hwmon interval, floor(5000 / 35) = 142 samples.
  const std::size_t window = 5000 / 35;
  const std::size_t runs_per_round = classes * kTraces;

  const std::size_t voltage = channel_index(
      {power::Rail::FpgaLogic, core::Quantity::Voltage});
  // Per-round figures (see SliceSet): acquisition and CV-fit rates, and
  // from the second round on the attacker's verdict latency quantiles.
  SliceSet rates;
  SliceSet verdicts;
  Samples fit_s;
  std::uint64_t runs = 0;
  std::uint64_t fits = 0;
  std::uint64_t rounds = 0;
  std::uint64_t attack_correct = 0;
  std::uint64_t attack_scored = 0;
  std::optional<ml::RandomForest> attacker;
  core::FingerprintConfig last_config;
  core::FingerprintTraceSet last_traces;
  core::Table3Result last_table;

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  while (now_ns() < deadline) {
    const core::FingerprintConfig config = round_config(options.seed, rounds);
    Tracer::Scope round_span(tracer, "table3.round");
    const std::uint64_t steal_start = host_steal_ticks();

    Tracer::Scope collect_span(tracer, "core.collect_fingerprint_traces");
    const std::int64_t a = now_ns();
    core::FingerprintTraceSet traces = core::collect_fingerprint_traces(config);
    const std::int64_t b = now_ns();
    collect_span.close();
    Tracer::Scope evaluate_span(tracer, "core.evaluate_fingerprint");
    core::Table3Result table = core::evaluate_fingerprint(traces, config);
    const std::int64_t c = now_ns();
    evaluate_span.close();

    const std::size_t cells = table.channel_names.size() *
                              table.durations_s.size();
    runs += runs_per_round;
    fits += cells * config.folds;
    result.ledger.attempt("victim_run", runs_per_round);
    result.ledger.attempt("cv_cell", cells);

    const std::string shapes = check_trace_shapes(
        traces, runs_per_round, window, classes, kTraces);
    if (!shapes.empty()) result.ledger.fail("victim_run", runs_per_round);
    result.check(shapes.empty(), format("round %llu: %s",
                                        static_cast<unsigned long long>(rounds),
                                        shapes.c_str()));
    const std::string table_check = check_table3(table);
    if (!table_check.empty()) result.ledger.fail("cv_cell", cells);
    result.check(table_check.empty(),
                 format("round %llu: %s",
                        static_cast<unsigned long long>(rounds),
                        table_check.c_str()));

    // Online phase: last round's attacker scores this round's windows, one
    // raw 5 s FPGA-current trace at a time, to a top-5 verdict.
    const ml::Dataset& fresh = traces.per_channel[current];
    if (attacker.has_value()) {
      Tracer::Scope attack_span(tracer, "attack.verdicts");
      for (std::size_t i = 0; i < fresh.size(); ++i) {
        (void)attacker->predict_proba(fresh.row(i));
      }
      Samples verdict_us;
      for (std::size_t pass = 0; pass < kVerdictPasses; ++pass) {
        for (std::size_t i = 0; i < fresh.size(); ++i) {
          const std::int64_t v0 = now_ns();
          const auto proba = attacker->predict_proba(fresh.row(i));
          const auto top5 = ml::top_k_from_proba(proba, 5);
          const std::int64_t v1 = now_ns();
          verdict_us.add(static_cast<double>(v1 - v0) / 1e3);
          ++attack_scored;
          if (!top5.empty() && top5.front() == fresh.label(i)) {
            ++attack_correct;
          }
        }
      }
      verdicts.add(host_steal_ticks() - steal_start,
                   {verdict_us.quantile(0.5), verdict_us.quantile(0.9),
                    verdict_us.quantile(0.99)});
      result.ledger.attempt("attack_verdict", kVerdictPasses * fresh.size());
    }
    // Set-up of the next round's attack: fit on this round's traces.
    Tracer::Scope fit_span(tracer, "attack.fit");
    ml::ForestConfig forest = config.forest;
    forest.n_trees = kAttackTrees;
    forest.seed = hash_combine(config.seed, 0xa7);
    const std::int64_t f0 = now_ns();
    attacker.emplace(forest);
    attacker->fit(fresh);
    fit_s.add(static_cast<double>(now_ns() - f0) / 1e9);
    fit_span.close();
    rates.add(host_steal_ticks() - steal_start,
              {static_cast<double>(runs_per_round) /
                   (static_cast<double>(b - a) / 1e9),
               static_cast<double>(cells * config.folds) /
                   (static_cast<double>(c - b) / 1e9)});

    ++rounds;
    last_config = config;
    last_traces = std::move(traces);
    last_table = std::move(table);
  }
  result.ledger.attempt("attack_fit", fit_s.size());

  const std::string attack = check_floor("attack verdicts", attack_correct,
                                         attack_scored, kCurrentTop1Floor);
  result.check(attack.empty(), attack);

  result.end_to_end["setup_s"] = fit_s.median();
  result.end_to_end["ops_per_s"] = rates.median(0);
  result.end_to_end["train_ops_per_s"] = rates.median(1);
  result.end_to_end["latency_p50_us"] = verdicts.median(0);
  result.notes.push_back(format(
      "verdict latency (%zu rounds of %zu verdicts, those with above-median "
      "steal left out): p50 %.3f us, p90 %.3f us, p99 %.3f us",
      verdicts.size(), kVerdictPasses * runs_per_round, verdicts.median(0),
      verdicts.median(1), verdicts.median(2)));
  result.end_to_end["peak_rss_mb"] = peak_rss_mb();
  result.notes.push_back(format(
      "table3: %llu rounds, %llu victim runs, %llu CV fits; last round FPGA "
      "current top-1 %.3f, voltage top-1 %.3f (random %.3f)",
      static_cast<unsigned long long>(rounds),
      static_cast<unsigned long long>(runs),
      static_cast<unsigned long long>(fits),
      last_table.cells.empty() ? 0.0 : last_table.cells[current].back().top1,
      last_table.cells.empty() ? 0.0 : last_table.cells[voltage].back().top1,
      last_table.random_guess_top1()));
  result.notes.push_back(format(
      "attack: %llu windows scored one by one, top-1 %.4f",
      static_cast<unsigned long long>(attack_scored),
      attack_scored == 0 ? 0.0
                         : static_cast<double>(attack_correct) /
                               static_cast<double>(attack_scored)));

  if (!options.trace || rounds == 0) return result;
  result.per_layer["bench.traced_ops_per_s"] = result.end_to_end["ops_per_s"];

  // --- Layer replays on the last round's inputs.
  const auto zoo = dnn::build_zoo();
  Samples build_ms;
  Samples collect_ms;
  Samples features_us;
  std::size_t mismatched = 0;
  for (std::size_t r = 0; r < kReplayRuns; ++r) {
    const std::size_t run = r * kTraces;  // first trace of each model
    const auto replayed = replay_run(
        zoo[run / kTraces], last_config, last_traces.samples_per_trace,
        hash_combine(last_config.seed, run), build_ms, collect_ms);
    const auto expected = last_traces.per_channel[current].row(run);
    const auto got = replayed[current].prefix(window);
    if (!std::equal(got.begin(), got.end(), expected.begin(),
                    expected.end())) {
      ++mismatched;
    }
    std::vector<ml::Dataset> scratch(replayed.size(), ml::Dataset(window));
    const std::int64_t f0 = now_ns();
    for (std::size_t c = 0; c < replayed.size(); ++c) {
      core::add_trace(scratch[c], replayed[c], 0, window,
                      last_config.gap_policy);
    }
    features_us.add(static_cast<double>(now_ns() - f0) / 1e3);
  }
  result.check(mismatched == 0,
               format("replay: %zu of %zu victim runs differ from the "
                      "workload's traces",
                      mismatched, kReplayRuns));
  result.per_layer["soc.build_ms"] = build_ms.median();
  result.per_layer["core.sampler_collect_ms"] = collect_ms.median();
  result.per_layer["core.features_us_per_run"] = features_us.median();

  // CV cells run one per worker inside evaluate_fingerprint, so their
  // folds, fits and predictions run inline: replay them on a pool of one.
  // Every channel's 5 s cell is replayed (and must reproduce the table);
  // one training fold of the FPGA-current cell gives the fit and predict
  // figures.
  util::ThreadPool::set_global_threads(1);
  Samples cell_ms;
  const std::size_t d = last_config.durations_s.size() - 1;
  for (std::size_t c = 0; c < last_traces.per_channel.size(); ++c) {
    const std::size_t job = c * last_config.durations_s.size() + d;
    const ml::Dataset data = last_traces.per_channel[c].truncated_features(
        core::samples_for_duration(
            sim::from_seconds(last_config.durations_s[d]),
            last_traces.sample_period));
    ml::ForestConfig fc = last_config.forest;
    fc.seed = hash_combine(last_config.seed, 0xf0 + job);
    const std::uint64_t cv_seed = hash_combine(last_config.seed, job);
    const std::int64_t a = now_ns();
    const auto cv = ml::cross_validate(data, fc, last_config.folds, cv_seed);
    cell_ms.add(static_cast<double>(now_ns() - a) / 1e6);
    result.check(cv.top1_accuracy == last_table.cells[c][d].top1,
                 "replay: cross_validate differs from the workload's cell");
    if (c != current) continue;

    // One CV training fold, as cross_validate runs it.
    const auto folds =
        ml::stratified_kfold(data.labels(), last_config.folds, cv_seed);
    const ml::Dataset train = data.subset(folds[0].train_indices);
    ml::ForestConfig fold_config = fc;
    fold_config.seed = hash_combine(fc.seed, 0);
    ml::RandomForest forest(fold_config);
    const std::int64_t f0 = now_ns();
    forest.fit(train);
    const std::int64_t f1 = now_ns();
    std::vector<std::span<const double>> rows;
    for (std::size_t i : folds[0].test_indices) rows.push_back(data.row(i));
    (void)forest.predict_proba_many(rows);
    const std::int64_t f2 = now_ns();
    result.per_layer["ml.fit_ms"] = static_cast<double>(f1 - f0) / 1e6;
    result.per_layer["ml.predict_us_per_row"] =
        static_cast<double>(f2 - f1) / 1e3 / static_cast<double>(rows.size());
  }
  result.per_layer["ml.cv_cell_ms"] = cell_ms.median();
  util::ThreadPool::set_global_threads(options.threads);

  // obs metrics on against off, interleaved (ABBA), on the last round's
  // acquisition.
  Samples off_rate;
  Samples on_rate;
  for (int slice = 0; slice < 4; ++slice) {
    const bool on = slice == 1 || slice == 2;
    if (on) {
      obs::init(obs::ObsConfig{.enabled = true, .metrics = true,
                               .tracing = false, .audit = false});
    }
    const std::int64_t a = now_ns();
    (void)core::collect_fingerprint_traces(last_config);
    const double rate = static_cast<double>(runs_per_round) /
                        (static_cast<double>(now_ns() - a) / 1e9);
    if (on) {
      obs::disable();
      obs::reset_data();
    }
    (on ? on_rate : off_rate).add(rate);
  }
  result.per_layer["obs.metrics_on_acquire_runs_per_s"] = on_rate.median();
  result.per_layer["obs.metrics_on_cost_pct"] =
      100.0 * (off_rate.median() - on_rate.median()) / off_rate.median();
  tracer.write_chrome_trace(options.workdir + "/trace-table3-offline.json");
  return result;
}

}  // namespace perfbench
