#pragma once
// Benchmark harness shared by every workload: the wall clock, exact
// quantiles over recorded samples, the in-memory span tracer, the
// operations ledger, and the result a workload hands back to main().
//
// Everything here is benchmark-side code. The program under test (the
// amperebleed library) is only ever called through its public headers;
// spans are recorded around those calls, never inside them.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "amperebleed/core/trace.hpp"

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of this process (all threads), in nanoseconds. Time blocked
/// in I/O, such as an fsync, does not count.
std::int64_t process_cpu_ns();

/// A sample set with exact (sorted, linearly interpolated) quantiles —
/// the same rule as numpy's default and Python's
/// statistics.quantiles(method="inclusive"). With a capacity it keeps a
/// uniform reservoir of that many samples (Algorithm R on a fixed seed), so
/// memory does not grow with how fast the program under test runs.
class Samples {
 public:
  Samples() = default;
  explicit Samples(std::size_t capacity) : capacity_(capacity) {}
  void add(double x);
  /// Samples offered (not only those kept).
  [[nodiscard]] std::size_t size() const { return seen_; }
  /// q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

 private:
  std::vector<double> values_;
  std::size_t capacity_ = 0;  // 0 = keep everything
  std::size_t seen_ = 0;
  std::uint64_t state_ = 0x9e3779b97f4a7c15ull;
};

/// Steal time of this virtual machine so far, in clock ticks: the time the
/// host ran something else while a vCPU had work (the "steal" column of
/// /proc/stat). 0 where the kernel does not report it.
std::uint64_t host_steal_ticks();

/// Per-slice figures of one run (a slice is a second of load, a churn
/// cycle or a Table III round), each with the host steal seen during it.
/// A figure is reported as its median over the slices that saw no more
/// steal than the median slice: on a shared host, seconds in which the host
/// takes CPU away from the VM slow the whole closed loop, and ranking
/// slices by measured steal keeps them out of the figure without looking
/// at the figure itself. Where no slice saw more steal than the others
/// (steal is often 0 throughout), every slice counts.
class SliceSet {
 public:
  void add(std::uint64_t steal_ticks, std::vector<double> figures);
  [[nodiscard]] std::size_t size() const { return slices_.size(); }
  /// Median of figure `i` over the slices with at most the median steal;
  /// 0 when empty.
  [[nodiscard]] double median(std::size_t i) const;

 private:
  std::vector<std::pair<std::uint64_t, std::vector<double>>> slices_;
};

/// In-memory span recorder for the traced run. Spans are recorded only on
/// the client thread (the benchmark is single-client), keep their parent,
/// and are written out as a Chrome trace_event file when the run ends.
/// Per-name durations are also kept (as reservoirs) for the per-layer
/// metrics.
/// Disabled, every call is a branch on a bool.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = 0;
    std::int32_t parent = -1;  // index into the span log, -1 = root
  };

  /// RAII span: opens at construction, closes at destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Close early (the destructor then does nothing).
    void close();

   private:
    Tracer& tracer_;
    const char* name_;
    std::int64_t start_ = 0;
    std::int32_t index_ = -1;
    bool open_ = false;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Record an already-measured interval as a child of the open span.
  void record(const char* name, std::int64_t start_ns, std::int64_t dur_ns);

  /// Durations (ns) of every span recorded under `name`.
  [[nodiscard]] const Samples& durations(const std::string& name) const;

  /// Chrome trace_event JSON ("X" events; the parent index rides in args).
  void write_chrome_trace(const std::string& path) const;

 private:
  std::int32_t open_span(const char* name, std::int64_t start);
  Samples& samples(const char* name);
  void close_span(std::int32_t index, const char* name, std::int64_t dur);

  // The log is capped and the per-name durations are uniform reservoirs,
  // so a long traced run stays small in memory.
  static constexpr std::size_t kMaxLogged = 200000;
  static constexpr std::size_t kMaxSamplesPerName = std::size_t{1} << 16;

  bool enabled_ = false;
  std::vector<Span> log_;
  std::vector<std::int32_t> stack_;
  std::map<std::string, Samples> by_name_;
};

/// Operations ledger: attempted and failed per operation kind, where a kind
/// is e.g. "classify/Ok" or "victim_run". Failed rows are the ones the
/// program refused or got wrong; attempted counts every operation sent.
class Ledger {
 public:
  void attempt(const std::string& kind, std::uint64_t n = 1);
  void fail(const std::string& kind, std::uint64_t n = 1);
  /// Outcome rows, e.g. outcome("classify", "Ok"): counted, not attempted.
  void outcome(const std::string& kind, const std::string& status,
               std::uint64_t n = 1);
  [[nodiscard]] std::uint64_t attempted() const;
  [[nodiscard]] std::uint64_t failed() const;
  [[nodiscard]] std::string render() const;

 private:
  struct Row {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
  };
  std::map<std::string, Row> rows_;
  std::map<std::string, std::uint64_t> outcomes_;
};

/// What a workload hands back. `failures` lists every correctness check
/// that did not hold; correct == failures.empty().
struct Result {
  std::vector<std::string> failures;
  Ledger ledger;
  std::map<std::string, double> end_to_end;  // names from kEndToEnd
  std::map<std::string, double> per_layer;   // names from kPerLayer
  std::vector<std::string> notes;            // human-readable report lines
  void check(bool ok, const std::string& what);
  /// Record a check's outcome: empty = it held, else the violation.
  void require(const std::string& problem);
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 1;        // the run's pool size
  std::size_t probe_threads = 1;  // pool size the verdict probe compares
  std::string workdir;            // scratch space inside the checkout
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The metric sets of BENCHMARK.json, in its order. Every workload reports
/// every name; see README.md for what each one means per workload.
extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

/// Every per-layer metric at 0; workloads overwrite the layers they use.
void fill_layer_defaults(Result& result);

/// Peak resident set of this process, in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// One victim run on the FPGA-current channel at Table III's 5 s / 35 ms
/// window (DPU inference loop, SoC build, hwmon polling through
/// core::Sampler). Input preparation for the serve workloads; the spans
/// "soc.build" and "core.sampler_collect" time its two halves.
amperebleed::core::Trace record_victim_trace(const std::string& model_name,
                                             std::uint64_t seed,
                                             Tracer& tracer);

Result run_serve_steady(const Options& options);
Result run_serve_churn(const Options& options);
Result run_table3_offline(const Options& options);

/// Feeds every correctness check a corrupted result and reports whether
/// each one fails. Returns the number of checks that wrongly passed.
int run_selftest();

}  // namespace perfbench
