// Self-test of the benchmark's correctness checks: each check first sees a
// genuine result and must hold, then sees the same result with one
// corruption (a wrong label, a reordered ranking, a changed probe byte, a
// swapped channel, ...) and must fail. A check that cannot fail proves
// nothing, so any corruption that slips through makes the self-test fail.

#include <cstdio>
#include <functional>
#include <string>
#include <utility>

#include "amperebleed/core/fingerprint.hpp"
#include "amperebleed/core/online.hpp"
#include "amperebleed/dnn/zoo.hpp"
#include "amperebleed/util/rng.hpp"
#include "checks.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace amperebleed;
using Verdict = core::OnlineFingerprinter::Verdict;

struct Tally {
  int missed = 0;
  int cases = 0;

  /// `genuine` must hold (empty) and `corrupted` must fail (non-empty).
  void expect(const std::string& name, const std::string& genuine,
              const std::string& corrupted) {
    ++cases;
    const bool ok = genuine.empty() && !corrupted.empty();
    if (!ok) ++missed;
    std::printf("  %-34s %s%s%s\n", name.c_str(), ok ? "caught" : "MISSED",
                genuine.empty() ? "" : "  (genuine result failed: ",
                genuine.empty() ? "" : (genuine + ")").c_str());
    if (ok) std::printf("  %-34s   -> %s\n", "", corrupted.c_str());
  }
};

std::string render(const Verdict& v) {
  std::string out = v.model_name;
  char buf[40];
  for (const auto& [label, proba] : v.ranking) {
    std::snprintf(buf, sizeof(buf), " %.17g", proba);
    out += buf;
  }
  return out;
}

void verdict_cases(Tally& tally) {
  // A real classifier: three zoo models, four enrollment traces each.
  constexpr std::size_t kModels = 3;
  Tracer quiet(false);
  const auto names = dnn::zoo_model_names();
  core::OnlineFingerprinterConfig config;
  config.forest.n_trees = 20;
  core::OnlineFingerprinter fp(config);
  std::vector<core::Trace> held_out;
  std::vector<std::size_t> truth;
  for (std::size_t m = 0; m < kModels; ++m) {
    for (std::size_t k = 0; k < 8; ++k) {
      core::Trace trace = record_victim_trace(
          names[m], util::hash_combine(0x5e1f, util::hash_combine(m, k)),
          quiet);
      if (k < 4) {
        fp.enroll(trace, names[m]);
      } else {
        held_out.push_back(std::move(trace));
        truth.push_back(m);
      }
    }
  }
  fp.train();
  const auto verdicts = fp.classify_many(held_out);
  const double minc = config.min_confidence;
  const double minm = config.min_margin;
  const Verdict& v = verdicts.front();

  Verdict swapped = v;
  std::swap(swapped.ranking[0], swapped.ranking[1]);
  // Make the swap visible even if the top two tie.
  swapped.ranking[1].second = swapped.ranking[0].second + 0.25;
  tally.expect("verdict: reordered ranking", check_verdict(v, kModels, minc, minm),
               check_verdict(swapped, kModels, minc, minm));

  Verdict inflated = v;
  // Top entry, confidence and margin move together: only the sum is off.
  inflated.ranking.front().second += 1e-6;
  inflated.confidence += 1e-6;
  inflated.margin += 1e-6;
  tally.expect("verdict: ranking sum off by 1e-6",
               check_verdict(v, kModels, minc, minm),
               check_verdict(inflated, kModels, minc, minm));

  Verdict relabelled = v;
  relabelled.model_name = v.ranking[1].first;
  tally.expect("verdict: winner not top of ranking",
               check_verdict(v, kModels, minc, minm),
               check_verdict(relabelled, kModels, minc, minm));

  Verdict flipped = v;
  flipped.known = !v.known;
  tally.expect("verdict: open-set flag flipped",
               check_verdict(v, kModels, minc, minm),
               check_verdict(flipped, kModels, minc, minm));

  // Accuracy floor: the same verdicts judged against the true labels and
  // against labels rotated by one (every request's label wrong).
  std::uint64_t right = 0;
  std::uint64_t rotated = 0;
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    if (verdicts[i].model_name == names[truth[i]]) ++right;
    if (verdicts[i].model_name == names[(truth[i] + 1) % kModels]) ++rotated;
  }
  tally.expect("accuracy: wrong labels",
               check_floor("accuracy", right, verdicts.size(),
                           kServeSmallZooFloor),
               check_floor("accuracy", rotated, verdicts.size(),
                           kServeSmallZooFloor));

  // Probe identity: a classify_many probe against classify() per trace
  // (an independent path), then with one byte changed.
  std::string batch;
  std::string single;
  for (std::size_t i = 0; i < held_out.size(); ++i) {
    batch += render(verdicts[i]) + "\n";
    single += render(fp.classify(held_out[i])) + "\n";
  }
  std::string changed = single;
  changed[changed.size() / 2] ^= 0x01;
  tally.expect("probe: changed byte", check_same_probe("probe", batch, single),
               check_same_probe("probe", batch, changed));
}

void service_cases(Tally& tally) {
  const auto audit = [](const std::vector<std::uint64_t>& admitted,
                        const std::vector<std::uint64_t>& answered) {
    ResponseAudit a;
    for (auto id : admitted) a.expect(id);
    for (auto id : answered) a.answer(id);
    return a.finish();
  };
  tally.expect("responses: duplicate id", audit({1, 2, 3}, {1, 2, 3}),
               audit({1, 2, 3}, {1, 2, 2, 3}));
  tally.expect("responses: missing response", audit({1, 2, 3}, {3, 1, 2}),
               audit({1, 2, 3}, {1, 3}));
  tally.expect("responses: foreign id", audit({1, 2}, {1, 2}),
               audit({1, 2}, {1, 2, 9}));
  tally.expect("journal: one append missing", check_journal(40, 40),
               check_journal(39, 40));
  const RecoveryView clean{0, 0, 0, 0, 7, 7};
  RecoveryView lost_record = clean;
  lost_record.discarded_records = 1;
  tally.expect("recovery: discarded record", check_recovery(clean),
               check_recovery(lost_record));
  RecoveryView lost_tenant = clean;
  lost_tenant.tenants_after = 6;
  tally.expect("recovery: tenant lost", check_recovery(clean),
               check_recovery(lost_tenant));
}

void table3_cases(Tally& tally) {
  // One genuine Table III round at the workload's scale.
  core::FingerprintConfig config;
  config.traces_per_model = 5;
  config.folds = 5;
  config.forest.n_trees = 20;
  config.seed = 0x7ab1e3;
  const auto traces = core::collect_fingerprint_traces(config);
  const auto table = core::evaluate_fingerprint(traces, config);
  const std::size_t classes = traces.model_names.size();
  const std::size_t runs = classes * config.traces_per_model;

  // Swap the FPGA current and voltage rows' labels: the row claiming to be
  // current now carries voltage's accuracy.
  auto swapped = table;
  const std::string current_name =
      core::channel_name({power::Rail::FpgaLogic, core::Quantity::Current});
  const std::string voltage_name =
      core::channel_name({power::Rail::FpgaLogic, core::Quantity::Voltage});
  std::size_t cur = 0;
  std::size_t volt = 0;
  for (std::size_t c = 0; c < swapped.channel_names.size(); ++c) {
    if (swapped.channel_names[c] == current_name) cur = c;
    if (swapped.channel_names[c] == voltage_name) volt = c;
  }
  std::swap(swapped.channel_names[cur], swapped.channel_names[volt]);
  tally.expect("table3: swapped channel", check_table3(table),
               check_table3(swapped));

  auto top5 = table;
  top5.cells[0][0].top5 = top5.cells[0][0].top1 - 0.01;
  tally.expect("table3: top-5 below top-1", check_table3(table),
               check_table3(top5));

  auto short_rows = traces;
  short_rows.per_channel[2] = short_rows.per_channel[2].truncated_features(141);
  tally.expect("shapes: window one sample short",
               check_trace_shapes(traces, runs, 142, classes, 5),
               check_trace_shapes(short_rows, runs, 142, classes, 5));

  auto missing_run = traces;
  std::vector<std::size_t> keep;
  for (std::size_t i = 1; i < runs; ++i) keep.push_back(i);
  missing_run.per_channel[0] = missing_run.per_channel[0].subset(keep);
  tally.expect("shapes: victim run missing",
               check_trace_shapes(traces, runs, 142, classes, 5),
               check_trace_shapes(missing_run, runs, 142, classes, 5));
}

}  // namespace

int run_selftest() {
  Tally tally;
  std::printf("perfbench self-test: every check must hold on a genuine "
              "result and fail on a corrupted one\n");
  verdict_cases(tally);
  service_cases(tally);
  table3_cases(tally);
  std::printf("%d of %d corruptions caught\n", tally.cases - tally.missed,
              tally.cases);
  return tally.missed;
}

}  // namespace perfbench
