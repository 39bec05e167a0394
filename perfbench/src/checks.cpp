#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "amperebleed/util/strings.hpp"

namespace perfbench {

using amperebleed::util::format;

void ResponseAudit::expect(std::uint64_t id) { open_.insert(id); }

bool ResponseAudit::answer(std::uint64_t id) {
  if (open_.erase(id) == 1) return true;
  ++unexpected_;
  return false;
}

std::string ResponseAudit::finish() const {
  if (open_.empty() && unexpected_ == 0) return {};
  return format(
      "responses: %zu admitted requests unanswered, %llu responses with an "
      "id not outstanding (duplicate or never admitted)",
      open_.size(), static_cast<unsigned long long>(unexpected_));
}

std::string check_verdict(
    const amperebleed::core::OnlineFingerprinter::Verdict& verdict,
    std::size_t class_count, double min_confidence, double min_margin) {
  const auto& ranking = verdict.ranking;
  if (ranking.size() != class_count) {
    return format("verdict: ranking has %zu entries for %zu classes",
                  ranking.size(), class_count);
  }
  std::vector<std::string_view> names;
  names.reserve(ranking.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    const double p = ranking[i].second;
    if (!(p >= 0.0 && p <= 1.0)) {
      return format("verdict: probability %.17g outside [0, 1]", p);
    }
    if (i > 0 && p > ranking[i - 1].second) {
      return format("verdict: ranking not sorted at position %zu", i);
    }
    names.push_back(ranking[i].first);
    sum += p;
  }
  std::sort(names.begin(), names.end());
  if (std::adjacent_find(names.begin(), names.end()) != names.end()) {
    return "verdict: ranking repeats a class";
  }
  if (std::fabs(sum - 1.0) > kProbaSumTolerance) {
    return format("verdict: ranking sums to %.17g", sum);
  }
  if (verdict.model_name != ranking.front().first ||
      verdict.confidence != ranking.front().second) {
    return "verdict: winner disagrees with the top of the ranking";
  }
  const double second = ranking.size() > 1 ? ranking[1].second : 0.0;
  if (std::fabs(verdict.margin - (verdict.confidence - second)) > 1e-12) {
    return format("verdict: margin %.17g is not top-1 minus top-2",
                  verdict.margin);
  }
  const bool known = verdict.confidence >= min_confidence &&
                     verdict.margin >= min_margin;
  if (verdict.known != known) {
    return "verdict: open-set flag disagrees with confidence/margin";
  }
  return {};
}

std::string check_floor(const std::string& what, std::uint64_t correct,
                        std::uint64_t scored, double floor) {
  if (scored == 0) return what + ": nothing scored";
  const double share =
      static_cast<double>(correct) / static_cast<double>(scored);
  if (share < floor) {
    return format("%s: %.4f of %llu below the floor %.2f", what.c_str(),
                  share, static_cast<unsigned long long>(scored), floor);
  }
  return {};
}

std::string check_same_probe(const std::string& what, const std::string& a,
                             const std::string& b) {
  if (a.empty()) return what + ": empty probe";
  if (a == b) return {};
  std::size_t at = 0;
  while (at < a.size() && at < b.size() && a[at] == b[at]) ++at;
  return format("%s: probes differ at byte %zu", what.c_str(), at);
}

std::string check_journal(std::uint64_t appends, std::uint64_t control_sent) {
  if (appends == control_sent) return {};
  return format("journal: %llu appends for %llu control requests",
                static_cast<unsigned long long>(appends),
                static_cast<unsigned long long>(control_sent));
}

std::string check_recovery(const RecoveryView& v) {
  if (v.discarded_records != 0 || v.snapshots_discarded != 0 ||
      v.discarded_tenants != 0 || v.replay_dropped_records != 0) {
    return format(
        "recovery: discarded %llu records, %llu snapshots, %llu tenants, "
        "dropped %llu replay records",
        static_cast<unsigned long long>(v.discarded_records),
        static_cast<unsigned long long>(v.snapshots_discarded),
        static_cast<unsigned long long>(v.discarded_tenants),
        static_cast<unsigned long long>(v.replay_dropped_records));
  }
  if (v.tenants_after != v.tenants_before) {
    return format("recovery: %llu tenants before, %llu after",
                  static_cast<unsigned long long>(v.tenants_before),
                  static_cast<unsigned long long>(v.tenants_after));
  }
  return {};
}

namespace {

std::size_t row_of(const amperebleed::core::Table3Result& table,
                   const std::string& name) {
  for (std::size_t c = 0; c < table.channel_names.size(); ++c) {
    if (table.channel_names[c] == name) return c;
  }
  return table.channel_names.size();
}

}  // namespace

std::string check_table3(const amperebleed::core::Table3Result& table) {
  if (table.cells.size() != table.channel_names.size() ||
      table.durations_s.empty()) {
    return "table3: malformed result";
  }
  for (std::size_t c = 0; c < table.cells.size(); ++c) {
    if (table.cells[c].size() != table.durations_s.size()) {
      return "table3: malformed row";
    }
    for (std::size_t d = 0; d < table.cells[c].size(); ++d) {
      const auto& cell = table.cells[c][d];
      if (!(cell.top1 >= 0.0 && cell.top1 <= 1.0 && cell.top5 >= 0.0 &&
            cell.top5 <= 1.0)) {
        return format("table3: cell %zu/%zu outside [0, 1]", c, d);
      }
      if (cell.top5 < cell.top1) {
        return format("table3: %s at %.0f s has top-5 %.4f < top-1 %.4f",
                      table.channel_names[c].c_str(), table.durations_s[d],
                      cell.top5, cell.top1);
      }
    }
  }
  // Rows are looked up by the channel names the program reports, so a
  // mislabelled or swapped row is judged as the channel it claims to be.
  const std::string current_name = amperebleed::core::channel_name(
      {amperebleed::power::Rail::FpgaLogic,
       amperebleed::core::Quantity::Current});
  const std::string voltage_name = amperebleed::core::channel_name(
      {amperebleed::power::Rail::FpgaLogic,
       amperebleed::core::Quantity::Voltage});
  const std::size_t cur = row_of(table, current_name);
  const std::size_t volt = row_of(table, voltage_name);
  if (cur == table.cells.size() || volt == table.cells.size()) {
    return "table3: FPGA current or voltage row missing";
  }
  const std::size_t last = table.durations_s.size() - 1;
  const double current = table.cells[cur][last].top1;
  const double voltage = table.cells[volt][last].top1;
  if (current < kCurrentTop1Floor) {
    return format("table3: FPGA current top-1 %.4f below the floor %.2f",
                  current, kCurrentTop1Floor);
  }
  if (voltage > kVoltageTop1Ceiling) {
    return format("table3: FPGA voltage top-1 %.4f above the ceiling %.2f",
                  voltage, kVoltageTop1Ceiling);
  }
  if (current - voltage < kCurrentOverVoltageGap) {
    return format("table3: FPGA current %.4f is not far above voltage %.4f",
                  current, voltage);
  }
  return {};
}

std::string check_trace_shapes(
    const amperebleed::core::FingerprintTraceSet& traces, std::size_t runs,
    std::size_t samples, std::size_t classes, std::size_t per_class) {
  const std::size_t channels = amperebleed::core::table3_channels().size();
  if (traces.per_channel.size() != channels) {
    return format("shapes: %zu datasets for %zu channels",
                  traces.per_channel.size(), channels);
  }
  if (traces.model_names.size() != classes) {
    return format("shapes: %zu model names for %zu classes",
                  traces.model_names.size(), classes);
  }
  for (std::size_t c = 0; c < channels; ++c) {
    const auto& data = traces.per_channel[c];
    if (data.size() != runs || data.feature_count() != samples) {
      return format("shapes: channel %zu is %zu x %zu, expected %zu x %zu", c,
                    data.size(), data.feature_count(), runs, samples);
    }
    std::vector<std::size_t> count(classes, 0);
    for (int label : data.labels()) {
      if (label < 0 || static_cast<std::size_t>(label) >= classes) {
        return format("shapes: label %d outside %zu classes", label, classes);
      }
      ++count[static_cast<std::size_t>(label)];
    }
    for (std::size_t k = 0; k < classes; ++k) {
      if (count[k] != per_class) {
        return format("shapes: class %zu has %zu rows, expected %zu", k,
                      count[k], per_class);
      }
    }
  }
  return {};
}

}  // namespace perfbench
