// keyed_windows: two keyed streams with thousands of station keys on the
// threaded runtime, feeding a key-partitioned equi-join per tumbling
// window and a key-partitioned sliding per-key average.
//
// Tuple caches, the hash-join probe, the incremental aggregation flush,
// partition routing and punctuation barriers dominate; per-tuple
// expression work is one key compare — the opposite mix from
// refine_chain on the same runtime. Each round runs a saturated replay,
// then an open-loop phase at a fixed rate below saturation.

#include <algorithm>
#include <memory>
#include <set>

#include "common.h"
#include "replay.h"
#include "stt/granularity.h"
#include "stt/schema.h"
#include "stt/theme.h"
#include "threaded.h"
#include "util/rng.h"
#include "util/strings.h"

namespace slbench {

using namespace sl;

namespace {

constexpr size_t kKeys = 2000;
constexpr size_t kPerMs = 4;  ///< tuples per side per virtual millisecond
constexpr Duration kJoinInterval = 100;
/// The averages' slide is long next to the join window, so join pairs are
/// most of the rows and the rows' median latency is a pair's.
constexpr Duration kAvgInterval = 10 * duration::kSecond;
constexpr Duration kAvgWindow = 20 * duration::kSecond;
constexpr size_t kParallelism = 2;
constexpr size_t kSaturated = 400000;  ///< both sides together
constexpr size_t kPaced = 150000;
constexpr double kPacedRate = 100000;  ///< tuples per wall second
constexpr Timestamp kT0 = 1458000000000;
const char* kLeft = "kw_left";
const char* kRight = "kw_right";

struct Reading {
  uint32_t key;
  int64_t seq;
  Timestamp at;
  double v;
  bool left;
};

stt::SchemaPtr KeyedSchema() {
  return *stt::Schema::Make({{"station", stt::ValueType::kString, "", false},
                             {"seq", stt::ValueType::kInt, "", false},
                             {"v", stt::ValueType::kDouble, "", false}},
                            *stt::TemporalGranularity::Make(1),
                            stt::SpatialGranularity::Point(),
                            *stt::Theme::Parse("weather/temperature"));
}

pubsub::SensorInfo SideInfo(bool left) {
  pubsub::SensorInfo info;
  info.id = left ? kLeft : kRight;
  info.type = "keyed_feed";
  info.schema = KeyedSchema();
  info.period = 1;
  info.location = stt::GeoPoint{34.69, 135.50};
  info.node_id = left ? "node_0" : "node_1";
  return info;
}

std::string KeyName(uint32_t k) { return StrFormat("k%04u", k); }

/// \brief One side's feed: uniformly drawn station keys.
class KeyFeed : public sensors::SensorSimulator {
 public:
  KeyFeed(uint64_t seed, bool left, std::vector<Reading>* log)
      : SensorSimulator(SideInfo(left)), rng_(seed), left_(left),
        schema_(info_.schema), log_(log) {}

  Result<stt::TupleRef> Generate(Timestamp ts) override {
    Reading r{static_cast<uint32_t>(rng_.NextBounded(kKeys)), seq_++, ts,
              rng_.NextDouble(0.0, 100.0), left_};
    if (log_ != nullptr) log_->push_back(r);
    return stt::Tuple::Share(stt::Tuple::MakeUnsafe(
        schema_,
        {stt::Value::String(KeyName(r.key)), stt::Value::Int(r.seq),
         stt::Value::Double(r.v)},
        ts, stt::GeoPoint{34.69, 135.50}, info_.id));
  }

 private:
  Rng rng_;
  bool left_;
  stt::SchemaPtr schema_;
  std::vector<Reading>* log_;
  int64_t seq_ = 0;
};

Result<dataflow::Dataflow> BuildDataflow() {
  dataflow::JoinSpec join;
  join.interval = kJoinInterval;
  join.predicate = "left_station == right_station";
  join.parallelism = kParallelism;
  dataflow::AggregationSpec avg;
  avg.interval = kAvgInterval;
  avg.window = kAvgWindow;
  avg.func = dataflow::AggFunc::kAvg;
  avg.attributes = {"v"};
  avg.group_by = {"station"};
  avg.parallelism = kParallelism;
  return dataflow::DataflowBuilder("keyed_windows")
      .AddSource("left", kLeft)
      .AddSource("right", kRight)
      .AddOperator("pair", dataflow::OpKind::kJoin, join, {"left", "right"})
      .AddOperator("key_avg", dataflow::OpKind::kAggregation, avg, {"right"})
      .AddSink("pairs", "pair", dataflow::SinkKind::kCsv, "pairs.csv")
      .AddSink("avgs", "key_avg", dataflow::SinkKind::kCsv, "avgs.csv")
      .Build();
}

/// A parsed sink row: a join pair or a sliding average.
struct Row {
  bool pair = false;
  int64_t lseq = 0, rseq = 0;
  std::string lkey, rkey, key;
  Timestamp boundary = 0;  ///< averages: the flush that produced the row
  double avg = 0;
  int64_t wall_ns = 0;
};

std::vector<Row> ParseRows(const std::vector<Line>& lines, Checker* check) {
  std::vector<Row> rows;
  std::vector<std::string> pair_header, avg_header;
  for (const auto& line : lines) {
    std::vector<std::string> f = SplitCsv(line.text);
    if (!f.empty() && f[0] == "ts") {
      (f.size() > 6 ? pair_header : avg_header) = f;
      continue;
    }
    const auto& h = f.size() > 6 ? pair_header : avg_header;
    auto col = [&](const char* name) -> const std::string* {
      auto it = std::find(h.begin(), h.end(), name);
      return it == h.end() || static_cast<size_t>(it - h.begin()) >= f.size()
                 ? nullptr
                 : &f[static_cast<size_t>(it - h.begin())];
    };
    Row r;
    r.wall_ns = line.wall_ns;
    if (f.size() > 6) {
      const std::string *ls = col("left_seq"), *rs = col("right_seq"),
                        *lk = col("left_station"), *rk = col("right_station");
      if (ls == nullptr || rs == nullptr || lk == nullptr || rk == nullptr) {
        check->Expect(false, "malformed pair row: " + line.text);
        continue;
      }
      r.pair = true;
      r.lseq = std::strtoll(ls->c_str(), nullptr, 10);
      r.rseq = std::strtoll(rs->c_str(), nullptr, 10);
      r.lkey = *lk;
      r.rkey = *rk;
    } else {
      const std::string *k = col("station"), *v = col("avg_v");
      if (k == nullptr || v == nullptr) {
        check->Expect(false, "malformed average row: " + line.text);
        continue;
      }
      r.key = *k;
      r.avg = std::strtod(v->c_str(), nullptr);
      // The row of the flush at B is stamped inside (B - interval, B).
      r.boundary = kT0 + ((ParseIsoMs(f[0]) - kT0) / kAvgInterval + 1) * kAvgInterval;
    }
    rows.push_back(std::move(r));
  }
  return rows;
}

/// Brute-force expectation: every equal-key pair inside each tumbling
/// join window, and every emitted sliding per-key average.
void CheckPhase(const std::vector<Reading>& readings, Timestamp end,
                const std::vector<Row>& rows, Checker* check, bool perturb_here) {
  std::vector<const Reading*> left, right;
  for (const auto& r : readings) (r.left ? left : right).push_back(&r);

  std::vector<std::pair<int64_t, int64_t>> expect_pairs, got_pairs;
  {
    std::map<std::pair<int64_t, uint32_t>, std::vector<int64_t>> lefts;
    for (const Reading* l : left) {
      lefts[{(l->at - kT0) / kJoinInterval, l->key}].push_back(l->seq);
    }
    for (const Reading* r : right) {
      int64_t w = (r->at - kT0) / kJoinInterval;
      if (kT0 + (w + 1) * kJoinInterval > end) continue;
      auto it = lefts.find({w, r->key});
      if (it == lefts.end()) continue;
      for (int64_t lseq : it->second) expect_pairs.emplace_back(lseq, r->seq);
    }
  }
  if (perturb_here && !expect_pairs.empty()) expect_pairs.pop_back();

  // Sliding averages: flush at B covers right arrivals in [B - W, B),
  // emitted when that member set differs from the last one emitted.
  std::map<std::pair<Timestamp, std::string>, double> expect_avg;
  {
    size_t last_lo = 0, last_hi = 0;
    bool emitted = false;
    for (Timestamp b = kT0 + kAvgInterval; b <= end; b += kAvgInterval) {
      auto first = [&](Timestamp t) {
        return static_cast<size_t>(
            std::lower_bound(right.begin(), right.end(), t,
                             [](const Reading* r, Timestamp x) { return r->at < x; }) -
            right.begin());
      };
      size_t lo = first(b - kAvgWindow), hi = first(b);
      if (lo == hi || (emitted && lo == last_lo && hi == last_hi)) continue;
      emitted = true;
      last_lo = lo;
      last_hi = hi;
      std::map<uint32_t, std::pair<double, int>> acc;
      for (size_t i = lo; i < hi; ++i) {
        acc[right[i]->key].first += right[i]->v;
        ++acc[right[i]->key].second;
      }
      for (const auto& [k, a] : acc) expect_avg[{b, KeyName(k)}] = a.first / a.second;
    }
  }

  size_t avgs = 0;
  for (const Row& r : rows) {
    if (r.pair) {
      check->Expect(r.lkey == r.rkey, "pair of unequal keys " + r.lkey + "/" + r.rkey);
      got_pairs.emplace_back(r.lseq, r.rseq);
      continue;
    }
    ++avgs;
    auto it = expect_avg.find({r.boundary, r.key});
    check->Expect(it != expect_avg.end() && Checker::Near(it->second, r.avg),
                  StrFormat("average of %s at %lld is %g, expected %g", r.key.c_str(),
                            static_cast<long long>(r.boundary), r.avg,
                            it == expect_avg.end() ? -1.0 : it->second));
  }
  check->Expect(avgs == expect_avg.size(),
                StrFormat("%zu average rows, expected %zu", avgs, expect_avg.size()));
  std::sort(expect_pairs.begin(), expect_pairs.end());
  std::sort(got_pairs.begin(), got_pairs.end());
  check->Expect(got_pairs == expect_pairs,
                StrFormat("%zu join pairs, expected %zu (or different pairs)",
                          got_pairs.size(), expect_pairs.size()));
}

/// Both sides interleaved, kPerMs each per virtual millisecond; returns
/// the Finish time (the join boundary after the last tuple).
Timestamp MakePhase(uint64_t seed, size_t n, std::vector<Reading>* log,
                    exec::InputTrace* trace, GenerateStats* stats) {
  TimedSensor left(std::make_unique<KeyFeed>(seed, true, log), stats, nullptr);
  TimedSensor right(std::make_unique<KeyFeed>(seed + 7919, false, log), stats, nullptr);
  trace->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Timestamp at = kT0 + static_cast<Timestamp>(i / (2 * kPerMs));
    bool is_left = i % 2 == 0;
    trace->push_back({at, is_left ? "left" : "right",
                      *(is_left ? left : right).Generate(at), stt::kNoWatermark});
  }
  return kT0 + ((trace->back().at - kT0) / kJoinInterval + 1) * kJoinInterval;
}

/// Latency of every row and of every window's last row. A window closing
/// at B is released by the first input fed at or after B (its Feed sends
/// the punctuation), or by Finish.
void PhaseLatencies(const exec::InputTrace& trace, const std::vector<Reading>& readings,
                    const std::vector<Row>& rows, const PacedRun& run,
                    std::vector<double>* row_ms, std::vector<double>* window_ms) {
  std::map<int64_t, Timestamp> left_at;
  for (const auto& r : readings) {
    if (r.left) left_at[r.seq] = r.at;
  }
  auto release = [&](Timestamp b) {
    auto it = std::lower_bound(trace.begin(), trace.end(), b,
                               [](const exec::TraceEvent& e, Timestamp x) { return e.at < x; });
    return it == trace.end() ? run.finish_ns
                             : run.scheduled_ns(static_cast<size_t>(it - trace.begin()));
  };
  std::map<std::pair<bool, Timestamp>, int64_t> last;
  for (const Row& r : rows) {
    Timestamp b = r.boundary;
    if (r.pair) {
      auto it = left_at.find(r.lseq);
      if (it == left_at.end()) continue;
      b = kT0 + ((it->second - kT0) / kJoinInterval + 1) * kJoinInterval;
    }
    int64_t ns = r.wall_ns - release(b);
    row_ms->push_back(static_cast<double>(ns) / 1e6);
    auto key = std::make_pair(r.pair, b);
    last[key] = std::max(last.count(key) ? last[key] : ns, ns);
  }
  for (const auto& [key, ns] : last) window_ms->push_back(static_cast<double>(ns) / 1e6);
}

}  // namespace

RunResult RunKeyedWindows(const BenchOptions& options) {
  ThreadedWorkload w;
  w.sensors = {SideInfo(true), SideInfo(false)};
  w.build = BuildDataflow;
  w.t0 = kT0;
  // All inputs are generated before anything is timed.
  std::vector<Reading> sat_readings, paced_readings;
  w.saturated_end =
      MakePhase(options.seed * 2, kSaturated, &sat_readings, &w.saturated, &w.generate);
  w.paced_end =
      MakePhase(options.seed * 2 + 1, kPaced, &paced_readings, &w.paced, &w.generate);
  w.paced_rate = kPacedRate;
  w.check = [&](bool saturated, const Lines& lines, Checker* check, bool perturb) {
    CheckPhase(saturated ? sat_readings : paced_readings,
               saturated ? w.saturated_end : w.paced_end, ParseRows(lines.csv, check),
               check, perturb);
  };
  w.latencies = [&](const Lines& lines, const PacedRun& run, std::vector<double>* rows,
                    std::vector<double>* windows) {
    Checker ignored(false);  // the same lines were checked just before
    PhaseLatencies(w.paced, paced_readings, ParseRows(lines.csv, &ignored), run, rows,
                   windows);
  };
  w.fleet = [&] {
    std::vector<std::unique_ptr<sensors::SensorSimulator>> fleet;
    fleet.push_back(std::make_unique<KeyFeed>(options.seed, true, nullptr));
    fleet.push_back(std::make_unique<KeyFeed>(options.seed + 1, false, nullptr));
    return fleet;
  };
  w.description = StrFormat(
      "keyed_windows: %zu keys, %zu saturated + %zu paced tuples per round, paced at "
      "%.0f/s, parallelism %zu",
      kKeys, kSaturated, kPaced, kPacedRate, kParallelism);
  return RunThreadedWorkload(w, options);
}

}  // namespace slbench
