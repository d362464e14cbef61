// refine_chain: a Smart-Emission-style harvest -> refine chain on the
// threaded runtime.
//
// Raw readings of many stations pass a range-validation filter, a
// Fahrenheit -> Celsius transform and two calibration virtual
// properties; every refined reading becomes a CSV row, and a
// per-station tumbling average goes to the visualization sink.
// Stateless expression work (compiled and vectorized programs), ring
// transfer, the pooled scheduler and sink formatting dominate; the only
// blocking work is one small aggregation. Each round runs a saturated
// replay, then an open-loop phase at a fixed rate below saturation.

#include <algorithm>
#include <cmath>
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

constexpr size_t kStations = 200;
constexpr size_t kPerMs = 4;  ///< readings per virtual millisecond
constexpr Duration kWindow = 500;
constexpr size_t kSaturated = 100000;
constexpr size_t kPaced = 60000;
constexpr double kPacedRate = 40000;  ///< readings per wall second
constexpr Timestamp kT0 = 1458000000000;
const char* kSensor = "rc_feed";

/// One generated reading, as the checker remembers it.
struct Reading {
  uint32_t station;
  int64_t seq;
  Timestamp at;
  double temp_f, pm25, hum;
};

stt::SchemaPtr RawSchema() {
  return *stt::Schema::Make(
      {{"station", stt::ValueType::kString, "", false},
       {"seq", stt::ValueType::kInt, "", false},
       {"temp", stt::ValueType::kDouble, "fahrenheit", false},
       {"pm25", stt::ValueType::kDouble, "ug/m3", false},
       {"hum", stt::ValueType::kDouble, "percent", false}},
      *stt::TemporalGranularity::Make(1),
      stt::SpatialGranularity::Point(), *stt::Theme::Parse("air/quality"));
}

pubsub::SensorInfo FeedInfo() {
  pubsub::SensorInfo info;
  info.id = kSensor;
  info.type = "station_feed";
  info.schema = RawSchema();
  info.period = 1;
  info.location = stt::GeoPoint{51.84, 5.86};
  info.node_id = "node_0";
  return info;
}

stt::GeoPoint StationPoint(uint32_t s) {
  return {51.80 + 0.002 * static_cast<double>(s % 50),
          5.80 + 0.004 * static_cast<double>(s / 50)};
}

/// \brief The harvest side: a feed of many stations' raw readings. About
/// one reading in eight carries an out-of-range value.
class StationFeed : public sensors::SensorSimulator {
 public:
  StationFeed(uint64_t seed, std::vector<Reading>* log)
      : SensorSimulator(FeedInfo()), rng_(seed), schema_(info_.schema), log_(log) {}

  Result<stt::TupleRef> Generate(Timestamp ts) override {
    Reading r;
    r.station = static_cast<uint32_t>(rng_.NextBounded(kStations));
    r.seq = seq_++;
    r.at = ts;
    r.temp_f = rng_.NextDouble(20.0, 95.0);
    r.pm25 = rng_.NextDouble(2.0, 80.0);
    r.hum = rng_.NextDouble(25.0, 95.0);
    uint64_t fault = rng_.NextBounded(100);
    if (fault < 6) r.temp_f = fault < 3 ? -80.0 : 180.0;
    else if (fault < 9) r.pm25 = -1.0;
    else if (fault < 12) r.hum = 130.0;
    if (log_ != nullptr) log_->push_back(r);
    return stt::Tuple::Share(stt::Tuple::MakeUnsafe(
        schema_,
        {stt::Value::String(StrFormat("st%03u", r.station)), stt::Value::Int(r.seq),
         stt::Value::Double(r.temp_f), stt::Value::Double(r.pm25),
         stt::Value::Double(r.hum)},
        ts, StationPoint(r.station), kSensor));
  }

 private:
  Rng rng_;
  stt::SchemaPtr schema_;
  std::vector<Reading>* log_;
  int64_t seq_ = 0;
};

Result<dataflow::Dataflow> BuildDataflow() {
  return dataflow::DataflowBuilder("refine_chain")
      .AddSource("raw", kSensor)
      .AddFilter("valid", "raw",
                 "temp > -40 and temp < 140 and pm25 >= 0 and pm25 < 500 and "
                 "hum >= 0 and hum <= 100")
      .AddTransform("celsius", "valid", "temp",
                    "convert_unit(temp, 'fahrenheit', 'celsius')", "celsius")
      .AddVirtualProperty("pm25_cal", "celsius", "pm25_cal", "pm25 * 0.92 + 1.5")
      .AddVirtualProperty("hum_cal", "pm25_cal", "hum_cal", "hum * 1.03 - 0.8")
      .AddSink("rows", "hum_cal", dataflow::SinkKind::kCsv, "refined.csv")
      .AddAggregation("station_avg", "hum_cal", kWindow, dataflow::AggFunc::kAvg,
                      {"temp", "pm25_cal"}, {"station"})
      .AddSink("map", "station_avg", dataflow::SinkKind::kVisualization)
      .Build();
}

// -- the independent expectation ----------------------------------------------

bool Valid(const Reading& r) {
  return r.temp_f > -40 && r.temp_f < 140 && r.pm25 >= 0 && r.pm25 < 500 &&
         r.hum >= 0 && r.hum <= 100;
}
double Celsius(double f) { return (f - 32.0) * 5.0 / 9.0; }
double Pm25Cal(double v) { return v * 0.92 + 1.5; }
double HumCal(double v) { return v * 1.03 - 0.8; }

/// Checks one phase's sink lines against the readings it was fed.
void CheckPhase(const std::vector<Reading>& readings, const Lines& lines,
                Checker* check, bool perturb_here) {
  // Per-reading rows.
  std::map<int64_t, const Reading*> by_seq;
  size_t valid = 0;
  for (const auto& r : readings) {
    by_seq[r.seq] = &r;
    if (Valid(r)) ++valid;
  }
  check->Expect(!lines.csv.empty(), "no CSV output");
  if (lines.csv.empty()) return;
  std::vector<std::string> header = SplitCsv(lines.csv.front().text);
  auto col = [&](const char* name) -> size_t {
    auto it = std::find(header.begin(), header.end(), name);
    return it == header.end() ? SIZE_MAX : static_cast<size_t>(it - header.begin());
  };
  const size_t c_station = col("station"), c_seq = col("seq"), c_temp = col("temp"),
               c_pm = col("pm25_cal"), c_hum = col("hum_cal");
  if (c_station == SIZE_MAX || c_seq == SIZE_MAX || c_temp == SIZE_MAX ||
      c_pm == SIZE_MAX || c_hum == SIZE_MAX) {
    check->Expect(false, "CSV header lacks a refined column: " + lines.csv.front().text);
    return;
  }
  std::set<int64_t> seen;
  bool perturbed = false;
  for (size_t i = 1; i < lines.csv.size(); ++i) {
    std::vector<std::string> f = SplitCsv(lines.csv[i].text);
    if (f.size() != header.size()) {
      check->Expect(false, "malformed CSV row: " + lines.csv[i].text);
      continue;
    }
    int64_t seq = std::strtoll(f[c_seq].c_str(), nullptr, 10);
    auto it = by_seq.find(seq);
    if (it == by_seq.end() || !seen.insert(seq).second) {
      check->Expect(false, StrFormat("unexpected or repeated row seq %lld",
                                     static_cast<long long>(seq)));
      continue;
    }
    const Reading& r = *it->second;
    double expect_temp = Celsius(r.temp_f);
    if (perturb_here && !perturbed) {
      expect_temp += 1.0;
      perturbed = true;
    }
    check->Expect(Valid(r), StrFormat("invalid reading %lld passed the filter",
                                      static_cast<long long>(seq)));
    check->Expect(f[c_station] == StrFormat("st%03u", r.station) &&
                      Checker::Near(std::strtod(f[c_temp].c_str(), nullptr), expect_temp) &&
                      Checker::Near(std::strtod(f[c_pm].c_str(), nullptr), Pm25Cal(r.pm25)) &&
                      Checker::Near(std::strtod(f[c_hum].c_str(), nullptr), HumCal(r.hum)),
                  "refined values differ for reading " + std::to_string(seq) + ": " +
                      lines.csv[i].text);
  }
  check->Expect(seen.size() == valid,
                StrFormat("%zu refined rows, expected %zu", seen.size(), valid));

  // Per-station tumbling averages: window w covers [T0 + w, T0 + w + 1s).
  struct Acc {
    double temp = 0, pm = 0;
    int n = 0;
  };
  std::map<std::pair<int64_t, std::string>, Acc> expect;
  for (const auto& r : readings) {
    if (!Valid(r)) continue;
    Acc& a = expect[{(r.at - kT0) / kWindow, StrFormat("st%03u", r.station)}];
    a.temp += Celsius(r.temp_f);
    a.pm += Pm25Cal(r.pm25);
    ++a.n;
  }
  size_t matched = 0;
  for (const auto& line : lines.vis) {
    std::string ts, station, temp, pm;
    if (!JsonField(line.text, "ts", &ts) || !JsonField(line.text, "station", &station) ||
        !JsonField(line.text, "avg_temp", &temp) ||
        !JsonField(line.text, "avg_pm25_cal", &pm)) {
      check->Expect(false, "malformed map line: " + line.text);
      continue;
    }
    // The row of the window closed at B is stamped B - 1 ms.
    int64_t w = (ParseIsoMs(ts) - kT0) / kWindow;
    auto it = expect.find({w, station});
    if (it == expect.end()) {
      check->Expect(false, "unexpected window row: " + line.text);
      continue;
    }
    const Acc& a = it->second;
    check->Expect(Checker::Near(std::strtod(temp.c_str(), nullptr), a.temp / a.n) &&
                      Checker::Near(std::strtod(pm.c_str(), nullptr), a.pm / a.n),
                  "window average differs: " + line.text);
    ++matched;
  }
  check->Expect(matched == expect.size(),
                StrFormat("%zu window rows, expected %zu", matched, expect.size()));
}

/// Latency of every sink row and of every window's last row.
void PhaseLatencies(const std::vector<Reading>& readings, const Lines& lines,
                    const PacedRun& run, std::vector<double>* rows,
                    std::vector<double>* windows) {
  const int64_t seq0 = readings.front().seq;
  for (size_t i = 1; i < lines.csv.size(); ++i) {
    const std::string& t = lines.csv[i].text;
    std::vector<std::string> f = SplitCsv(t);
    // station, seq are the first two value columns (after ts,lat,lon,sensor).
    if (f.size() < 6) continue;
    int64_t idx = std::strtoll(f[5].c_str(), nullptr, 10) - seq0;
    rows->push_back(static_cast<double>(lines.csv[i].wall_ns - run.scheduled_ns(idx)) / 1e6);
  }
  // A window closing at B is released by the first reading fed at or
  // after B (its Feed sends the punctuation), or by Finish.
  std::map<int64_t, int64_t> last_row;
  for (const auto& line : lines.vis) {
    std::string ts;
    if (!JsonField(line.text, "ts", &ts)) continue;
    int64_t w = (ParseIsoMs(ts) - kT0) / kWindow;
    Timestamp boundary = kT0 + (w + 1) * kWindow;
    auto it = std::lower_bound(readings.begin(), readings.end(), boundary,
                               [](const Reading& r, Timestamp b) { return r.at < b; });
    int64_t release = it == readings.end()
                          ? run.finish_ns
                          : run.scheduled_ns(static_cast<size_t>(it - readings.begin()));
    rows->push_back(static_cast<double>(line.wall_ns - release) / 1e6);
    last_row[w] = std::max(last_row[w], line.wall_ns - release);
  }
  for (const auto& [w, ns] : last_row) windows->push_back(static_cast<double>(ns) / 1e6);
}

}  // namespace

RunResult RunRefineChain(const BenchOptions& options) {
  ThreadedWorkload w;
  w.sensors = {FeedInfo()};
  w.build = BuildDataflow;
  w.t0 = kT0;
  // All inputs are generated before anything is timed.
  std::vector<Reading> sat_readings, paced_readings;
  auto make = [&](uint64_t stream_seed, size_t n, std::vector<Reading>* log,
                  exec::InputTrace* trace) {
    TimedSensor timed(std::make_unique<StationFeed>(stream_seed, log), &w.generate,
                      nullptr);
    trace->reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Timestamp at = kT0 + static_cast<Timestamp>(i / kPerMs);
      trace->push_back({at, "raw", *timed.Generate(at), stt::kNoWatermark});
    }
    return kT0 + ((trace->back().at - kT0) / kWindow + 1) * kWindow;
  };
  w.saturated_end = make(options.seed * 2, kSaturated, &sat_readings, &w.saturated);
  w.paced_end = make(options.seed * 2 + 1, kPaced, &paced_readings, &w.paced);
  w.paced_rate = kPacedRate;
  w.check = [&](bool saturated, const Lines& lines, Checker* check, bool perturb) {
    CheckPhase(saturated ? sat_readings : paced_readings, lines, check, perturb);
  };
  w.latencies = [&](const Lines& lines, const PacedRun& run, std::vector<double>* rows,
                    std::vector<double>* windows) {
    PhaseLatencies(paced_readings, lines, run, rows, windows);
  };
  w.fleet = [&] {
    std::vector<std::unique_ptr<sensors::SensorSimulator>> fleet;
    fleet.push_back(std::make_unique<StationFeed>(options.seed, nullptr));
    return fleet;
  };
  w.description = StrFormat(
      "refine_chain: %zu stations, %zu saturated + %zu paced readings per round, "
      "paced at %.0f/s",
      kStations, kSaturated, kPaced, kPacedRate);
  return RunThreadedWorkload(w, options);
}

}  // namespace slbench
