#include "harness.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>


namespace perfbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"train_ops_per_s", "1/s"},
    {"latency_p50_us", "us"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"serve.submit_ns", "ns"},
    {"serve.tick_p50_ms", "ms"},
    {"serve.tick_p99_ms", "ms"},
    {"serve.rows_per_sweep", "count"},
    {"serve.sweep_self_ms", "ms"},
    {"serve.control_tick_ms", "ms"},
    {"core.classify_many_ms", "ms"},
    {"core.verdict_self_us_per_row", "us"},
    {"soc.build_ms", "ms"},
    {"core.sampler_collect_ms", "ms"},
    {"core.features_us_per_run", "us"},
    {"ml.fit_ms", "ms"},
    {"ml.cv_cell_ms", "ms"},
    {"ml.predict_us_per_row", "us"},
    {"persist.append_us", "us"},
    {"persist.snapshot_ms", "ms"},
    {"persist.snapshot_bytes", "bytes"},
    {"persist.recover_ms", "ms"},
    {"obs.metrics_on_classify_per_s", "1/s"},
    {"obs.metrics_on_acquire_runs_per_s", "1/s"},
    {"obs.metrics_on_cost_pct", "%"},
    {"bench.client_us_per_request", "us"},
    {"bench.traced_ops_per_s", "1/s"},
};

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::uint64_t host_steal_ticks() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream stat("/proc/stat");
  std::string label;
  std::uint64_t field[8] = {};
  stat >> label;
  for (std::uint64_t& f : field) stat >> f;
  return stat && label == "cpu" ? field[7] : 0;
}

void SliceSet::add(std::uint64_t steal_ticks, std::vector<double> figures) {
  slices_.emplace_back(steal_ticks, std::move(figures));
}

double SliceSet::median(std::size_t i) const {
  if (slices_.empty()) return 0.0;
  std::vector<std::uint64_t> steals;
  for (const auto& slice : slices_) steals.push_back(slice.first);
  std::nth_element(steals.begin(), steals.begin() + steals.size() / 2,
                   steals.end());
  const std::uint64_t typical = steals[steals.size() / 2];
  Samples kept;
  for (const auto& [steal, figures] : slices_) {
    if (steal <= typical) kept.add(figures.at(i));
  }
  return kept.median();
}

void Samples::add(double x) {
  ++seen_;
  if (capacity_ == 0 || values_.size() < capacity_) {
    values_.push_back(x);
    return;
  }
  // splitmix64 step, then keep x with probability capacity / seen.
  state_ += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  const std::uint64_t slot = z % seen_;
  if (slot < capacity_) values_[slot] = x;
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

Tracer::Scope::Scope(Tracer& tracer, const char* name)
    : tracer_(tracer), name_(name) {
  if (!tracer_.enabled_) return;
  start_ = now_ns();
  index_ = tracer_.open_span(name_, start_);
  open_ = true;
}

Tracer::Scope::~Scope() { close(); }

void Tracer::Scope::close() {
  if (!open_) return;
  open_ = false;
  tracer_.close_span(index_, name_, now_ns() - start_);
}

std::int32_t Tracer::open_span(const char* name, std::int64_t start) {
  std::int32_t index = -1;
  if (log_.size() < kMaxLogged) {
    index = static_cast<std::int32_t>(log_.size());
    log_.push_back(Span{name, start, 0, stack_.empty() ? -1 : stack_.back()});
  }
  stack_.push_back(index);
  return index;
}

void Tracer::close_span(std::int32_t index, const char* name,
                        std::int64_t dur) {
  if (index >= 0) log_[static_cast<std::size_t>(index)].dur_ns = dur;
  if (!stack_.empty()) stack_.pop_back();
  samples(name).add(static_cast<double>(dur));
}

void Tracer::record(const char* name, std::int64_t start_ns,
                    std::int64_t dur_ns) {
  if (!enabled_) return;
  if (log_.size() < kMaxLogged) {
    log_.push_back(
        Span{name, start_ns, dur_ns, stack_.empty() ? -1 : stack_.back()});
  }
  samples(name).add(static_cast<double>(dur_ns));
}

Samples& Tracer::samples(const char* name) {
  return by_name_.try_emplace(name, kMaxSamplesPerName).first->second;
}

const Samples& Tracer::durations(const std::string& name) const {
  static const Samples kEmpty;
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? kEmpty : it->second;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("perfbench: cannot write trace " + path);
  }
  const std::int64_t origin = log_.empty() ? 0 : log_.front().start_ns;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < log_.size(); ++i) {
    const Span& s = log_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3, i, s.parent);
  }
  std::fputs("]}\n", f);
  if (std::fclose(f) != 0) {
    throw std::runtime_error("perfbench: cannot write trace " + path);
  }
}

void Ledger::attempt(const std::string& kind, std::uint64_t n) {
  rows_[kind].attempted += n;
}

void Ledger::fail(const std::string& kind, std::uint64_t n) {
  rows_[kind].failed += n;
}

void Ledger::outcome(const std::string& kind, const std::string& status,
                     std::uint64_t n) {
  outcomes_[kind + "/" + status] += n;
}

std::uint64_t Ledger::attempted() const {
  std::uint64_t n = 0;
  for (const auto& [kind, row] : rows_) n += row.attempted;
  return n;
}

std::uint64_t Ledger::failed() const {
  std::uint64_t n = 0;
  for (const auto& [kind, row] : rows_) n += row.failed;
  return n;
}

std::string Ledger::render() const {
  std::string out = "ledger (attempted / failed):\n";
  char buf[160];
  for (const auto& [kind, row] : rows_) {
    std::snprintf(buf, sizeof(buf), "  %-28s %12llu %10llu\n", kind.c_str(),
                  static_cast<unsigned long long>(row.attempted),
                  static_cast<unsigned long long>(row.failed));
    out += buf;
  }
  if (!outcomes_.empty()) out += "outcomes:\n";
  for (const auto& [key, n] : outcomes_) {
    std::snprintf(buf, sizeof(buf), "  %-28s %12llu\n", key.c_str(),
                  static_cast<unsigned long long>(n));
    out += buf;
  }
  return out;
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
}

void Result::require(const std::string& problem) {
  if (!problem.empty()) failures.push_back(problem);
}

void fill_layer_defaults(Result& result) {
  for (const MetricSpec& spec : kPerLayer) {
    result.per_layer.emplace(spec.name, 0.0);
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
