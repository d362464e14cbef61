// slbench: shared pieces of the end-to-end benchmark — clocks, process
// gauges, the in-memory span tracer, order statistics, the output
// checker and the result every workload returns.

#ifndef SLBENCH_COMMON_H_
#define SLBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace slbench {

// -- clocks and process gauges ----------------------------------------------

/// steady_clock now, in nanoseconds.
int64_t NowNs();
/// User + system CPU seconds of the whole process (every thread).
double ProcessCpuSeconds();
/// Resident set size (VmRSS) and its high-water mark (VmHWM), MiB.
double RssMb();
double PeakRssMb();
/// Threads of this process right now, not counting threads that a join
/// has just released but the kernel still lists.
int ThreadCount();
/// Online processors.
unsigned Nproc();
/// Busy-waits until steady_clock reaches `deadline_ns`.
void SpinUntil(int64_t deadline_ns);

// -- tracing ------------------------------------------------------------------

/// \brief In-memory span recorder.
///
/// Off unless enabled (the untraced runs pay one predictable branch per
/// span). Each thread keeps its own buffer and stack of open spans, so a
/// span's parent is the innermost span open on the same thread. Every
/// span also folds into per-name totals (count, total and self time) as
/// it closes; the first `kMaxStoredSpansPerName` spans of each name on
/// each thread are kept whole for the span file.
class Tracer {
 public:
  static constexpr uint32_t kMaxStoredSpansPerName = 5000;

  static bool on();
  static void Enable(bool on);
  /// Run id stamped on every span opened from now on (one per round).
  static void SetRun(uint32_t run);
  static void Begin(const char* name);
  static void End();
  /// Per-name totals merged over all threads: name -> {count, total_ns,
  /// self_ns}.
  struct Totals {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  static std::map<std::string, Totals> Summary();
  /// Writes the header, the stored spans and the per-name totals as
  /// JSON lines. Call only after every traced thread has finished.
  static bool Write(const std::string& path, const std::string& header_json);
};

/// Scoped span; a no-op while tracing is off.
class Span {
 public:
  explicit Span(const char* name) : active_(Tracer::on()) {
    if (active_) Tracer::Begin(name);
  }
  ~Span() {
    if (active_) Tracer::End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

// -- statistics ---------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
/// "v1 v2 ..." with %.6g, for the human-readable lines.
std::string JoinValues(const std::vector<double>& values);
/// The human-readable latency line: p50 and p99 of the per-row and
/// per-window latencies (ms). They are printed, not gated: the pooled
/// scheduler's lost wake-ups make them flip between runs (README).
std::string LatencyLine(const std::vector<double>& rows,
                        const std::vector<double>& windows);

// -- output checks ------------------------------------------------------------

/// \brief Collects failed expectations of a workload's output check.
///
/// With `perturb` set the workload shifts one expected value before
/// comparing (the checker self-test): a sound checker then fails.
class Checker {
 public:
  explicit Checker(bool perturb) : perturb_(perturb) {}
  bool perturb() const { return perturb_; }
  /// Records a failure unless `ok`.
  void Expect(bool ok, const std::string& what);
  /// Relative-or-absolute tolerance comparison of doubles.
  static bool Near(double a, double b, double tol = 1e-6);
  size_t failures() const { return failures_; }
  const std::vector<std::string>& first_failures() const { return first_; }

 private:
  bool perturb_;
  size_t failures_ = 0;
  std::vector<std::string> first_;
};

// -- parsing of sink lines ----------------------------------------------------

/// Splits one CSV line (the CsvSink dialect: quotes only around fields
/// holding a comma, quote or newline).
std::vector<std::string> SplitCsv(std::string_view line);
/// The raw text of `"key":<value>` in a flat JSON object line (strings
/// without their quotes); false when absent.
bool JsonField(std::string_view line, std::string_view key, std::string* out);
/// Milliseconds since the epoch of "YYYY-MM-DDTHH:MM:SS.mmmZ"; -1 when
/// the text does not parse.
int64_t ParseIsoMs(const std::string& text);

// -- workloads ----------------------------------------------------------------

struct BenchOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool perturb = false;
  std::string spans_path;
  /// Pool workers for the threaded runtime: nproc - 1, so the pool plus
  /// the thread that calls Feed never exceed the processors.
  size_t pool_size = 1;
};

/// \brief What one workload run reports.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// name -> (value, unit): end-to-end metrics in an untraced run,
  /// per-layer metrics in a traced run.
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;
  /// Traced runs: the untraced-equivalent throughput measured with
  /// spans on (for the tracing-overhead report).
  double traced_throughput_tps = 0;
  int max_threads = 0;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Note(const std::string& line) { notes.push_back(line); }
  void Absorb(const Checker& checker);
};

RunResult RunCitySim(const BenchOptions& options);
RunResult RunRefineChain(const BenchOptions& options);
RunResult RunKeyedWindows(const BenchOptions& options);

}  // namespace slbench

#endif  // SLBENCH_COMMON_H_
