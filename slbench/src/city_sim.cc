// city_sim: the paper's §3 scenario at city scale on the simulator.
//
// Every district has a temperature sensor (every fourth district's in
// Fahrenheit), a humidity sensor and reactive rain, traffic and tweet
// sensors, spread over a ring of nodes. Per district: unit
// normalisation -> hourly average -> Trigger On (really starting the
// district's rain/traffic/tweet sensors) -> warehouse + map; torrential
// rain joined with slow traffic into alerts; tweets culled in space and
// filtered. The dataflow is deployed through Validate -> TranslateToDsn
// -> ParseDsn -> Executor::Deploy and run over virtual hours that cross
// 25 C. This is the only workload where routing and transfer, the event
// loop, broker publish/enrichment, sensor generation, trigger
// activation, warehouse loads and a deploy of hundreds of services do
// the work.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "common.h"
#include "dataflow/validate.h"
#include "dsn/parser.h"
#include "dsn/translate.h"
#include "exec/executor.h"
#include "monitor/monitor.h"
#include "net/event_loop.h"
#include "net/network.h"
#include "replay.h"
#include "sensors/generators.h"
#include "sinks/warehouse.h"
#include "util/strings.h"

namespace slbench {

using namespace sl;

namespace {

constexpr size_t kDistricts = 16;
constexpr size_t kNodes = 8;
constexpr Duration kRun = 10 * duration::kHour;
constexpr Duration kSlice = 10 * duration::kMinute;
/// 09:00 on 2016-03-15: the diurnal cycle crosses 25 C mid-run, and the
/// run reaches the evening rush hour, when traffic slows.
constexpr Timestamp kStart = 1458000000000 + 9 * duration::kHour;
/// Set-ups per run besides the ones that precede a measured round.
constexpr int kExtraSetups = 8;

constexpr double kTorrentialMmh = 10;
constexpr double kSlowKmh = 30;
constexpr double kHotC = 25;

struct DistrictIds {
  std::string temp, hum, rain, traffic, tweets;
  bool fahrenheit = false;
};

/// One simulator session (the StreamLoader stack, assembled here so the
/// visualization sink can hand its lines to the benchmark).
struct Session {
  std::unique_ptr<net::EventLoop> loop;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<pubsub::Broker> broker;
  std::unique_ptr<sensors::SensorFleet> fleet;
  std::unique_ptr<monitor::Monitor> monitor;
  std::unique_ptr<sinks::EventDataWarehouse> warehouse;
  std::unique_ptr<exec::Executor> executor;
  std::vector<DistrictIds> districts;
  std::vector<pubsub::SensorInfo> infos;
  dataflow::Dataflow dataflow;
  exec::DeploymentId id = 0;
  std::map<std::string, std::vector<TimedSensor::Emission>> emissions;
  GenerateStats generate;
  /// Visualization lines with their wall arrival and virtual time.
  struct VisLine {
    int64_t wall_ns;
    Timestamp virtual_at;
    std::string line;
  };
  std::vector<VisLine> vis;
  exec::InputTrace trace;  ///< filled when the source tap is on

  ~Session() {
    executor.reset();
    monitor.reset();
    fleet.reset();
    broker.reset();
    network.reset();
    loop.reset();
  }
};

struct SetupTimes {
  double total_s = 0, register_ms = 0, validate_ms = 0, translate_ms = 0,
         parse_ms = 0, deploy_ms = 0;
};

double Ms(int64_t a, int64_t b) { return static_cast<double>(b - a) / 1e6; }

Status AddSensors(Session* s, uint64_t seed) {
  for (size_t d = 0; d < kDistricts; ++d) {
    DistrictIds ids;
    ids.fahrenheit = d % 4 == 3;
    const stt::GeoPoint center{34.55 + 0.04 * static_cast<double>(d % 4),
                               135.35 + 0.05 * static_cast<double>(d / 4)};
    auto node = [&](size_t k) {
      return StrFormat("node_%zu", (d * 5 + k) % kNodes);
    };
    uint64_t base = seed * 1000003ULL + d * 16;
    std::vector<std::unique_ptr<sensors::SensorSimulator>> made;
    {
      sensors::PhysicalConfig c;
      c.id = ids.temp = StrFormat("d%02zu_temp", d);
      c.location = center;
      c.node_id = node(0);
      c.seed = base + 1;
      made.push_back(sensors::MakeTemperatureSensor(
          c, 23.0, 7.0, 0.5, ids.fahrenheit ? "fahrenheit" : "celsius"));
    }
    {
      sensors::PhysicalConfig c;
      c.id = ids.hum = StrFormat("d%02zu_hum", d);
      c.location = center;
      c.node_id = node(1);
      c.seed = base + 2;
      made.push_back(sensors::MakeHumiditySensor(c));
    }
    {
      sensors::PhysicalConfig c;
      c.id = ids.rain = StrFormat("d%02zu_rain", d);
      c.location = center;
      c.spatial_cell_deg = 0.01;
      c.node_id = node(2);
      c.seed = base + 3;
      made.push_back(sensors::MakeRainSensor(c, 0.3, 0.85, 12.0));
    }
    {
      sensors::TrafficConfig c;
      c.id = ids.traffic = StrFormat("d%02zu_traffic", d);
      c.location = {center.lat + 0.01, center.lon};
      c.road = StrFormat("route_%zu", 11 + d);
      c.node_id = node(3);
      c.seed = base + 4;
      made.push_back(sensors::MakeTrafficSensor(c));
    }
    {
      sensors::TweetConfig c;
      c.id = ids.tweets = StrFormat("d%02zu_tweets", d);
      c.center = center;
      c.node_id = node(4);
      c.seed = base + 5;
      made.push_back(sensors::MakeTweetSensor(c));
    }
    for (size_t k = 0; k < made.size(); ++k) {
      if (made[k] == nullptr) return Status::Internal("sensor construction");
      std::string id = made[k]->id();
      auto timed = std::make_unique<TimedSensor>(std::move(made[k]),
                                                 &s->generate,
                                                 &s->emissions[id]);
      s->infos.push_back(timed->info());
      // Temperature and humidity run from the start; the rest wait for
      // their district's Trigger On.
      SL_RETURN_IF_ERROR(s->fleet->Add(std::move(timed), k < 2));
    }
    s->districts.push_back(ids);
  }
  return Status::OK();
}

/// `store` is the kind of the storing sinks: the warehouse, or in-memory
/// collection where several threads would load one warehouse at once.
Result<dataflow::Dataflow> BuildDataflow(const Session& s,
                                         dataflow::SinkKind store) {
  using dataflow::SinkKind;
  dataflow::DataflowBuilder b("city_sim");
  for (size_t d = 0; d < s.districts.size(); ++d) {
    const DistrictIds& ids = s.districts[d];
    auto n = [d](const char* stem) { return StrFormat("%s_%02zu", stem, d); };
    const stt::GeoPoint center{34.55 + 0.04 * static_cast<double>(d % 4),
                               135.35 + 0.05 * static_cast<double>(d / 4)};
    b.AddSource(n("temp"), ids.temp)
        .AddTransform(n("celsius"), n("temp"), "temp",
                      StrFormat("convert_unit(temp, '%s', 'celsius')",
                                ids.fahrenheit ? "fahrenheit" : "celsius"),
                      "celsius")
        .AddAggregation(n("hourly"), n("celsius"), duration::kHour,
                        dataflow::AggFunc::kAvg, {"temp"})
        .AddTriggerOn(n("hot"), n("hourly"), duration::kHour,
                      StrFormat("avg_temp > %g", kHotC),
                      {ids.rain, ids.traffic, ids.tweets})
        .AddSink(n("hourly_wh"), n("hot"), store, n("hourly"))
        .AddSink(n("hourly_map"), n("hot"), SinkKind::kVisualization)
        .AddSource(n("hum"), ids.hum)
        .AddSink(n("hum_wh"), n("hum"), store, "humidity")
        .AddSource(n("rain"), ids.rain)
        .AddFilter(n("torrential"), n("rain"), StrFormat("rain > %g", kTorrentialMmh))
        .AddVirtualProperty(n("rain_at"), n("torrential"), "rain_ts", "$ts")
        .AddSource(n("traffic"), ids.traffic)
        .AddFilter(n("slow"), n("traffic"), StrFormat("speed < %g", kSlowKmh))
        .AddVirtualProperty(n("slow_at"), n("slow"), "speed_ts", "$ts")
        .AddJoin(n("alert"), n("rain_at"), n("slow_at"), 10 * duration::kMinute,
                 StrFormat("distance_m(point($lat, $lon), point(%.4f, %.4f)) "
                           "< 20000",
                           center.lat, center.lon))
        .AddSink(n("alert_wh"), n("alert"), store, "alerts")
        .AddSource(n("tweets"), ids.tweets)
        .AddCullSpace(n("thin"), n("tweets"),
                      {center.lat - 0.02, center.lon - 0.02},
                      {center.lat + 0.02, center.lon + 0.02}, 0.5)
        .AddFilter(n("rain_tweets"), n("thin"), "contains(text, 'rain')")
        .AddSink(n("tweets_wh"), n("rain_tweets"), store,
                 "rain_tweets")
        .AddSink(n("tweets_map"), n("rain_tweets"), SinkKind::kVisualization);
  }
  return b.Build();
}

/// Empty session -> ready to ingest, timing each sub-phase.
Result<std::unique_ptr<Session>> SetUp(uint64_t seed, bool tap,
                                       SetupTimes* times) {
  Span setup_span("setup");
  int64_t t0 = NowNs();
  auto s = std::make_unique<Session>();
  s->loop = std::make_unique<net::EventLoop>(kStart);
  s->network = std::make_unique<net::Network>(s->loop.get());
  SL_RETURN_IF_ERROR(net::BuildRingTopology(s->network.get(), kNodes, 10000.0,
                                            2, 1e5));
  s->broker = std::make_unique<pubsub::Broker>(&s->loop->clock());
  s->fleet = std::make_unique<sensors::SensorFleet>(s->loop.get(),
                                                    s->broker.get());
  s->monitor = std::make_unique<monitor::Monitor>(s->loop.get(),
                                                  s->network.get());
  s->monitor->set_window(10 * duration::kMinute);
  s->warehouse = std::make_unique<sinks::EventDataWarehouse>();
  sinks::SinkContext ctx;
  ctx.warehouse = s->warehouse.get();
  Session* raw = s.get();
  ctx.visualization_consumer = [raw](const std::string& line) {
    Span span("sinks.vis_consumer");
    raw->vis.push_back({NowNs(), raw->loop->Now(), line});
  };
  s->executor = std::make_unique<exec::Executor>(
      s->loop.get(), s->network.get(), s->broker.get(), s->monitor.get(), ctx);
  s->executor->set_fleet(s->fleet.get());
  if (tap) {
    s->executor->set_source_tap([raw](const std::string& source,
                                      const stt::TupleRef& tuple, Timestamp at,
                                      Timestamp watermark) {
      raw->trace.push_back({at, source, tuple, watermark});
    });
  }
  SL_RETURN_IF_ERROR(s->monitor->Start());

  int64_t t1 = NowNs();
  {
    Span span("pubsub.register");
    SL_RETURN_IF_ERROR(AddSensors(s.get(), seed));
  }
  int64_t t2 = NowNs();
  SL_ASSIGN_OR_RETURN(s->dataflow,
                      BuildDataflow(*s, dataflow::SinkKind::kWarehouse));
  int64_t t3 = NowNs();
  {
    Span span("dataflow.validate");
    dataflow::Validator validator(s->broker.get());
    SL_ASSIGN_OR_RETURN(dataflow::ValidationReport report,
                        validator.Validate(s->dataflow));
    if (!report.ok()) return Status::ValidationError(report.ToString());
  }
  int64_t t4 = NowNs();
  std::string text;
  {
    Span span("dsn.translate");
    SL_ASSIGN_OR_RETURN(dsn::DsnSpec spec, dsn::TranslateToDsn(s->dataflow));
    text = spec.ToString();
  }
  int64_t t5 = NowNs();
  dsn::DsnSpec parsed;
  {
    Span span("dsn.parse");
    SL_ASSIGN_OR_RETURN(parsed, dsn::ParseDsn(text));
  }
  int64_t t6 = NowNs();
  {
    Span span("exec.deploy");
    SL_ASSIGN_OR_RETURN(s->id, s->executor->Deploy(parsed));
  }
  int64_t t7 = NowNs();
  times->total_s = static_cast<double>(t7 - t0) / 1e9;
  times->register_ms = Ms(t1, t2);
  times->validate_ms = Ms(t3, t4);
  times->translate_ms = Ms(t4, t5);
  times->parse_ms = Ms(t5, t6);
  times->deploy_ms = Ms(t6, t7);
  return s;
}

/// Counts that must repeat exactly across rounds of one seed.
struct Counts {
  uint64_t ingested = 0, delivered = 0, events = 0;
  bool operator==(const Counts&) const = default;
};

struct Round {
  double run_s = 0;
  Counts counts;
  uint64_t emitted = 0;
  uint64_t process_errors = 0;
  std::vector<double> row_latency_ms;
  std::vector<double> window_latency_ms;
};

/// Property checks on one finished round.
void CheckRound(const Session& s, const Round& r, bool first, Checker* check) {
  uint64_t expected_ingested = r.emitted + ((first && check->perturb()) ? 1 : 0);
  check->Expect(r.counts.ingested == expected_ingested,
                StrFormat("ingested %llu != sum of sensors' emitted() %llu",
                          static_cast<unsigned long long>(r.counts.ingested),
                          static_cast<unsigned long long>(expected_ingested)));
  check->Expect(s.generate.calls == r.emitted,
                "Generate calls differ from emitted()");

  auto rows = [&](const std::string& dataset) {
    sinks::EventQuery all;
    auto q = s.warehouse->Query(dataset, all);
    return q.ok() ? *q : std::vector<stt::TupleRef>{};
  };
  auto field = [](const stt::TupleRef& t, const char* name) -> double {
    auto idx = t->schema()->FieldIndex(name);
    if (!idx.ok()) return NAN;
    const stt::Value& v = t->value(*idx);
    if (v.is_null()) return NAN;
    if (v.type() == stt::ValueType::kTimestamp) return static_cast<double>(v.AsTime());
    return v.type() == stt::ValueType::kInt ? static_cast<double>(v.AsInt())
                                            : v.AsDouble();
  };

  // Alerts: torrential rain with slow traffic, both inside one window.
  size_t alerts = 0;
  for (const auto& t : rows("alerts")) {
    ++alerts;
    double rain = field(t, "rain"), speed = field(t, "speed");
    double dt = std::fabs(field(t, "rain_ts") - field(t, "speed_ts"));
    check->Expect(rain > kTorrentialMmh && speed < kSlowKmh &&
                      dt < static_cast<double>(10 * duration::kMinute),
                  StrFormat("alert rain=%g speed=%g dt=%g ms breaks the join",
                            rain, speed, dt));
  }

  size_t hot_districts = 0;
  for (size_t d = 0; d < s.districts.size(); ++d) {
    const DistrictIds& ids = s.districts[d];
    // Hourly averages are plausible Celsius (Fahrenheit was normalised).
    Timestamp first_hot = -1;
    auto hourly = rows(StrFormat("hourly_%02zu", d));
    check->Expect(hourly.size() >= static_cast<size_t>(kRun / duration::kHour) - 1,
                  StrFormat("district %zu: %zu hourly rows", d, hourly.size()));
    for (const auto& t : hourly) {
      double avg = field(t, "avg_temp");
      check->Expect(avg > -15 && avg < 45,
                    StrFormat("district %zu hourly avg %g is not Celsius", d, avg));
      if (avg > kHotC && first_hot < 0) first_hot = t->timestamp();
    }
    // Reactive sensors emit only after their Trigger On.
    for (const std::string* id : {&ids.rain, &ids.traffic, &ids.tweets}) {
      const auto& em = s.emissions.at(*id);
      if (first_hot < 0) {
        check->Expect(em.empty(), *id + " emitted without a hot hour");
      } else if (!em.empty()) {
        check->Expect(em.front().ts > first_hot,
                      *id + " emitted before its activation");
      }
    }
    if (first_hot >= 0) ++hot_districts;
  }
  check->Expect(hot_districts > 0, "no district crossed 25 C: nothing triggered");
  check->Expect(alerts > 0, "no alerts were produced");
}

/// Latencies of the round's visualization rows, against the wall time
/// of the emissions that released them.
void Latencies(const Session& s, Round* r) {
  // All emissions in call order (= virtual order), for boundary lookup.
  std::vector<TimedSensor::Emission> all;
  for (const auto& [id, em] : s.emissions) all.insert(all.end(), em.begin(), em.end());
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.wall_ns < b.wall_ns; });
  // Last row of each hourly window, keyed by (sink line's district, hour).
  std::map<std::pair<std::string, Timestamp>, int64_t> window_last;
  std::map<std::pair<std::string, Timestamp>, int64_t> window_release;
  for (const auto& v : s.vis) {
    std::string sensor, avg;
    bool hourly = JsonField(v.line, "avg_temp", &avg);
    if (hourly) {
      // The window closed at hour boundary H; its release is the first
      // emission stamped at or after H.
      Timestamp h = kStart + (v.virtual_at - kStart) / duration::kHour * duration::kHour;
      auto it = std::lower_bound(all.begin(), all.end(), h,
                                 [](const auto& e, Timestamp t) { return e.ts < t; });
      if (it == all.end()) continue;
      double ms = static_cast<double>(v.wall_ns - it->wall_ns) / 1e6;
      r->row_latency_ms.push_back(ms);
      // Districts' windows differ by location (the group centroid).
      size_t at = v.line.find("\"coordinates\":");
      std::string where =
          at == std::string::npos ? "" : v.line.substr(at, v.line.find(']', at) - at);
      auto key = std::make_pair(where, h);
      window_last[key] = std::max(window_last[key], v.wall_ns);
      window_release[key] = it->wall_ns;
    } else if (JsonField(v.line, "sensor", &sensor)) {
      auto em = s.emissions.find(sensor);
      if (em == s.emissions.end() || em->second.empty()) continue;
      // The reading is the sensor's latest emission at or before the
      // row's virtual arrival.
      auto it = std::upper_bound(em->second.begin(), em->second.end(),
                                 v.virtual_at,
                                 [](Timestamp t, const auto& e) { return t < e.ts; });
      if (it == em->second.begin()) continue;
      --it;
      r->row_latency_ms.push_back(static_cast<double>(v.wall_ns - it->wall_ns) / 1e6);
    }
  }
  for (const auto& [key, last] : window_last) {
    r->window_latency_ms.push_back(
        static_cast<double>(last - window_release.at(key)) / 1e6);
  }
}

Result<Round> RunRound(Session* s) {
  Round r;
  uint64_t events0 = s->loop->events_executed();
  int64_t t0 = NowNs();
  for (Duration done = 0; done < kRun; done += kSlice) {
    Span span("exec.run_for");
    s->loop->RunFor(kSlice);
  }
  r.run_s = static_cast<double>(NowNs() - t0) / 1e9;
  SL_ASSIGN_OR_RETURN(const exec::DeploymentStats* stats,
                      s->executor->stats(s->id));
  r.counts = {stats->tuples_ingested, stats->tuples_delivered,
              s->loop->events_executed() - events0};
  r.process_errors = stats->process_errors;
  r.emitted = s->fleet->total_emitted();
  Latencies(*s, &r);
  return r;
}

}  // namespace

RunResult RunCitySim(const BenchOptions& options) {
  RunResult out;
  Checker check(options.perturb);
  const double rss0 = RssMb();
  std::vector<SetupTimes> setups;
  std::vector<Round> rounds;
  std::unique_ptr<Session> traced_session;
  size_t services = 0;

  auto fail = [&](const Status& st) {
    out.correct = false;
    out.Note("error: " + st.ToString());
    return out;
  };

  for (int i = 0; i < kExtraSetups; ++i) {
    Tracer::SetRun(static_cast<uint32_t>(1000 + i));
    SetupTimes t;
    auto s = SetUp(options.seed, false, &t);
    if (!s.ok()) return fail(s.status());
    setups.push_back(t);
  }
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  do {
    Tracer::SetRun(static_cast<uint32_t>(rounds.size()));
    SetupTimes t;
    // Round 0 warms caches and the allocator: checked and counted, not
    // measured. A traced run keeps round 1's session for the replays.
    bool keep = options.trace && rounds.size() == 1;
    auto s = SetUp(options.seed, keep, &t);
    if (!s.ok()) return fail(s.status());
    setups.push_back(t);
    services = (*s)->dataflow.nodes().size();
    out.max_threads = std::max(out.max_threads, ThreadCount());
    auto r = RunRound(s->get());
    if (!r.ok()) return fail(r.status());
    CheckRound(**s, *r, rounds.empty(), &check);
    if (!rounds.empty()) {
      check.Expect(r->counts == rounds.front().counts,
                   "simulator counts differ between rounds of one seed");
    }
    out.attempted += r->emitted;
    out.failed += r->process_errors + (r->emitted - std::min(r->emitted, r->counts.ingested));
    rounds.push_back(std::move(*r));
    if (keep) traced_session = std::move(*s);
  } while (NowNs() < deadline || rounds.size() < 3);

  std::vector<double> tps, setup_s, rows, windows;
  for (const auto& r : std::vector<Round>(rounds.begin() + 1, rounds.end())) {
    tps.push_back(static_cast<double>(r.counts.ingested) / r.run_s);
    rows.insert(rows.end(), r.row_latency_ms.begin(), r.row_latency_ms.end());
    windows.insert(windows.end(), r.window_latency_ms.begin(),
                   r.window_latency_ms.end());
  }
  for (const auto& t : setups) setup_s.push_back(t.total_s);
  out.Note(StrFormat("city_sim: %zu districts, %zu nodes, %lld h, %zu rounds, "
                     "%llu tuples/round, %zu services",
                     kDistricts, kNodes, static_cast<long long>(kRun / duration::kHour),
                     rounds.size(),
                     static_cast<unsigned long long>(rounds.front().counts.ingested),
                     services));
  out.Note(StrFormat("  rows timed %zu, windows timed %zu", rows.size(), windows.size()));
  out.Note("  per-round throughput_tps: " + JoinValues(tps));
  out.Absorb(check);

  if (!options.trace) {
    out.Set("setup_s", Median(setup_s), "s");
    out.Set("throughput_tps", Median(tps), "1/s");
    out.Set("peak_rss_mb", PeakRssMb() - rss0, "MiB");
    out.Note(LatencyLine(rows, windows));
    return out;
  }

  // Traced run: per-layer ledger.
  Session& s = *traced_session;
  const Round& r0 = rounds[1];
  out.traced_throughput_tps = Median(tps);
  auto med = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const auto& t : setups) v.push_back(t.*field);
    return Median(v);
  };
  out.Set("pubsub.register_ms", med(&SetupTimes::register_ms), "ms");
  out.Set("dataflow.validate_ms", med(&SetupTimes::validate_ms), "ms");
  out.Set("dsn.translate_ms", med(&SetupTimes::translate_ms), "ms");
  out.Set("dsn.parse_ms", med(&SetupTimes::parse_ms), "ms");
  out.Set("exec.deploy_ms", med(&SetupTimes::deploy_ms), "ms");

  const double ingested = static_cast<double>(r0.counts.ingested);
  out.Set("sensors.generate_us",
          static_cast<double>(s.generate.ns) / static_cast<double>(s.generate.calls) / 1e3,
          "us");
  out.Set("exec.events_per_tuple", static_cast<double>(r0.counts.events) / ingested,
          "count");
  out.Set("exec.event_us", r0.run_s * 1e6 / static_cast<double>(r0.counts.events), "us");
  out.Set("net.messages_per_tuple",
          static_cast<double>(s.network->total_messages()) / ingested, "count");
  out.Set("net.bytes_per_tuple",
          static_cast<double>(s.network->total_bytes_sent()) / ingested, "B");
  double route_us = ReplayRoutes(
      s.network.get(), DeployedNodePairs(s.dataflow, *s.executor, s.id, *s.broker),
      20000);
  out.Set("net.route_us", route_us, "us");

  double publish_us = ReplayPublish(s.infos, s.trace);
  auto ops = ReplayOperators(s.dataflow, s.broker.get(), s.trace, kStart, 50,
                             kStart + kRun, 1);
  if (!ops.ok()) return fail(ops.status());
  SinkReplay sinks = ReplaySinks(ops->sink_rows);
  SetLayerMetrics(*ops, sinks, publish_us, &out);

  // The same trace through the threaded runtime: its layers' figures on
  // this workload (they should not move with simulator changes). A layer
  // replay, not part of this workload's run: one span, nothing traced
  // inside. EventDataWarehouse::Load is unsynchronised and pool workers
  // would run several warehouse sinks at once, so the stores collect.
  auto collecting = BuildDataflow(s, dataflow::SinkKind::kCollect);
  if (!collecting.ok()) return fail(collecting.status());
  sinks::SinkContext ctx;
  ctx.visualization_consumer = [](const std::string&) {};
  exec::ThreadedRuntime runtime(*collecting, s.broker.get(), ctx,
                                BenchThreadedOptions(options.pool_size, kStart, 50));
  Result<FeedRun> feed = [&]() -> Result<FeedRun> {
    Span span("replay.threaded");
    Tracer::Enable(false);
    int64_t t0 = NowNs();
    Status started = runtime.Start();
    out.Set("exec.start_ms", static_cast<double>(NowNs() - t0) / 1e6, "ms");
    out.max_threads = ThreadCount();
    Result<FeedRun> run =
        started.ok() ? RunFeedSaturated(&runtime, s.trace, kStart + kRun) : started;
    Tracer::Enable(true);
    return run;
  }();
  if (!feed.ok()) return fail(feed.status());
  out.Set("exec.feed_us", feed->feed_s * 1e6 / static_cast<double>(s.trace.size()),
          "us");
  out.Set("exec.backpressure_waits",
          static_cast<double>(feed->result.backpressure_waits), "count");
  out.Set("exec.drain_ms", feed->drain_ms, "ms");
  out.Set("exec.queue_depth_max", static_cast<double>(feed->queue_depth_max),
          "count");
  out.Set("ops.batch_fill", feed->batch_fill, "count");

  // Residual: the run's time outside every replayed layer.
  size_t vis_rows = 0, wh_rows = 0;
  for (const auto& [name, list] : ops->sink_rows) {
    const dataflow::Node& node = **s.dataflow.node(name);
    (node.sink == dataflow::SinkKind::kVisualization ? vis_rows : wh_rows) +=
        list.size();
  }
  double layers_ns = static_cast<double>(s.generate.ns);
  for (const auto& [kind, t] : ops->kinds) {
    layers_ns += static_cast<double>(t.process_ns + t.flush_ns);
  }
  layers_ns += publish_us * 1e3 * ingested;
  layers_ns += route_us * 1e3 * static_cast<double>(s.network->total_messages());
  layers_ns += sinks.vis_ns * static_cast<double>(vis_rows) +
               sinks.warehouse_us * 1e3 * static_cast<double>(wh_rows);
  out.Set("exec.residual_share", 1.0 - layers_ns / (r0.run_s * 1e9), "ratio");
  return out;
}

}  // namespace slbench
