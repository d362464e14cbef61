#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

namespace slbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

namespace {
/// A "Key:   <n> ..." line of /proc/self/status, as a number.
double StatusField(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr);
    }
  }
  return 0;
}
}  // namespace

double RssMb() { return StatusField("VmRSS") / 1024.0; }
double PeakRssMb() { return StatusField("VmHWM") / 1024.0; }
int ThreadCount() {
  // pthread_join returns once the kernel has cleared the thread's id,
  // which happens before the thread leaves the thread group, so a
  // just-joined worker can still be counted for a moment. A thread that
  // stays for 20 ms of repeated looks is a real one.
  int count = static_cast<int>(StatusField("Threads"));
  for (int i = 0; i < 20 && count > static_cast<int>(Nproc()); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    count = std::min(count, static_cast<int>(StatusField("Threads")));
  }
  return count;
}

unsigned Nproc() {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

void SpinUntil(int64_t deadline_ns) {
  while (NowNs() < deadline_ns) {
  }
}

// -- tracing ------------------------------------------------------------------

namespace {

struct SpanRec {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  ///< index in the same thread's buffer, -1 for a root
  uint32_t run;
};

struct Frame {
  const char* name;
  int64_t start_ns;
  int64_t child_ns;
  int32_t index;  ///< stored span index, -1 when past the storage cap
};

struct ThreadBuf {
  uint32_t tid = 0;
  std::vector<SpanRec> spans;
  std::vector<Frame> stack;
  std::unordered_map<const char*, Tracer::Totals> totals;
  std::unordered_map<const char*, uint32_t> stored;
};

std::atomic<bool> g_trace_on{false};
std::atomic<uint32_t> g_run{0};
std::mutex g_bufs_mu;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;

ThreadBuf* LocalBuf() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    auto owned = std::make_unique<ThreadBuf>();
    buf = owned.get();
    std::lock_guard<std::mutex> lock(g_bufs_mu);
    buf->tid = static_cast<uint32_t>(g_bufs.size());
    g_bufs.push_back(std::move(owned));
  }
  return buf;
}

void JsonEscape(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
}

}  // namespace

bool Tracer::on() { return g_trace_on.load(std::memory_order_relaxed); }
void Tracer::Enable(bool on) { g_trace_on.store(on); }
void Tracer::SetRun(uint32_t run) { g_run.store(run); }

void Tracer::Begin(const char* name) {
  ThreadBuf* buf = LocalBuf();
  int32_t index = -1;
  if (buf->stored[name] < kMaxStoredSpansPerName) {
    ++buf->stored[name];
    int32_t parent = buf->stack.empty() ? -1 : buf->stack.back().index;
    index = static_cast<int32_t>(buf->spans.size());
    buf->spans.push_back(
        {name, 0, 0, parent, g_run.load(std::memory_order_relaxed)});
  }
  buf->stack.push_back({name, NowNs(), 0, index});
}

void Tracer::End() {
  int64_t end = NowNs();
  ThreadBuf* buf = LocalBuf();
  if (buf->stack.empty()) return;
  Frame frame = buf->stack.back();
  buf->stack.pop_back();
  int64_t dur = end - frame.start_ns;
  Totals& t = buf->totals[frame.name];
  ++t.count;
  t.total_ns += dur;
  t.self_ns += dur - frame.child_ns;
  if (!buf->stack.empty()) buf->stack.back().child_ns += dur;
  if (frame.index >= 0) {
    buf->spans[frame.index].start_ns = frame.start_ns;
    buf->spans[frame.index].end_ns = end;
  }
}

std::map<std::string, Tracer::Totals> Tracer::Summary() {
  std::map<std::string, Totals> out;
  std::lock_guard<std::mutex> lock(g_bufs_mu);
  for (const auto& buf : g_bufs) {
    for (const auto& [name, t] : buf->totals) {
      Totals& o = out[name];
      o.count += t.count;
      o.total_ns += t.total_ns;
      o.self_ns += t.self_ns;
    }
  }
  return out;
}

bool Tracer::Write(const std::string& path, const std::string& header_json) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", header_json.c_str());
  {
    std::lock_guard<std::mutex> lock(g_bufs_mu);
    for (const auto& buf : g_bufs) {
      for (size_t i = 0; i < buf->spans.size(); ++i) {
        const SpanRec& s = buf->spans[i];
        if (s.end_ns == 0) continue;  // never closed
        std::fprintf(f,
                     "{\"span\":\"%s\",\"tid\":%u,\"id\":%zu,\"parent\":%d,"
                     "\"run\":%u,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                     s.name, buf->tid, i, s.parent, s.run,
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
      }
    }
  }
  for (const auto& [name, t] : Summary()) {
    std::string escaped;
    JsonEscape(&escaped, name);
    std::fprintf(f,
                 "{\"totals\":\"%s\",\"count\":%llu,\"total_ns\":%lld,"
                 "\"self_ns\":%lld}\n",
                 escaped.c_str(), static_cast<unsigned long long>(t.count),
                 static_cast<long long>(t.total_ns),
                 static_cast<long long>(t.self_ns));
  }
  return std::fclose(f) == 0;
}

// -- statistics ---------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string JoinValues(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (double v : values) {
    std::snprintf(buf, sizeof(buf), out.empty() ? "%.6g" : " %.6g", v);
    out += buf;
  }
  return out;
}

std::string LatencyLine(const std::vector<double>& rows,
                        const std::vector<double>& windows) {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "  latency_p50_ms %.6f  latency_p99_ms %.4f  "
                "window_latency_p50_ms %.6f  window_latency_p99_ms %.4f",
                Median(rows), Quantile(rows, 0.99), Median(windows),
                Quantile(windows, 0.99));
  return buf;
}

// -- checks -------------------------------------------------------------------

void Checker::Expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures_;
  if (first_.size() < 5) first_.push_back(what);
}

bool Checker::Near(double a, double b, double tol) {
  if (std::isnan(a) || std::isnan(b)) return false;
  double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= tol * scale;
}

void RunResult::Absorb(const Checker& checker) {
  if (checker.failures() == 0) return;
  correct = false;
  Note("check failures: " + std::to_string(checker.failures()));
  for (const auto& f : checker.first_failures()) Note("  " + f);
}

// -- parsing ------------------------------------------------------------------

std::vector<std::string> SplitCsv(std::string_view line) {
  std::vector<std::string> out;
  std::string cur;
  bool quoted = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur.push_back('"');
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cur.push_back(c);
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(std::move(cur));
  return out;
}

bool JsonField(std::string_view line, std::string_view key, std::string* out) {
  std::string needle(1, '"');
  needle.append(key);
  needle.append("\":");
  size_t pos = line.find(needle);
  if (pos == std::string_view::npos) return false;
  pos += needle.size();
  if (pos < line.size() && line[pos] == '"') {
    size_t end = line.find('"', pos + 1);
    if (end == std::string_view::npos) return false;
    *out = std::string(line.substr(pos + 1, end - pos - 1));
    return true;
  }
  size_t end = line.find_first_of(",}", pos);
  if (end == std::string_view::npos) return false;
  *out = std::string(line.substr(pos, end - pos));
  return true;
}

int64_t ParseIsoMs(const std::string& text) {
  struct tm tm {};
  int ms = 0;
  if (std::sscanf(text.c_str(), "%d-%d-%dT%d:%d:%d.%dZ", &tm.tm_year, &tm.tm_mon,
                  &tm.tm_mday, &tm.tm_hour, &tm.tm_min, &tm.tm_sec, &ms) != 7) {
    return -1;
  }
  tm.tm_year -= 1900;
  tm.tm_mon -= 1;
  return static_cast<int64_t>(timegm(&tm)) * 1000 + ms;
}

}  // namespace slbench
