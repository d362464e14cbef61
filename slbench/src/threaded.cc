#include "threaded.h"

#include <algorithm>

#include "dataflow/validate.h"
#include "dsn/parser.h"
#include "dsn/translate.h"
#include "net/event_loop.h"
#include "util/strings.h"

namespace slbench {

using namespace sl;

namespace {

/// Set-ups per run besides the two that precede each round's phases.
constexpr int kExtraSetups = 6;

struct Session {
  std::unique_ptr<net::EventLoop> loop;
  std::unique_ptr<pubsub::Broker> broker;
  dataflow::Dataflow dataflow;
  std::unique_ptr<exec::ThreadedRuntime> runtime;
  double total_s = 0, register_ms = 0, validate_ms = 0, start_ms = 0;
};

/// Empty session -> runtime started and ready to ingest.
Result<Session> SetUp(const ThreadedWorkload& w, size_t pool, Lines* lines) {
  Span span("setup");
  Session s;
  int64_t t0 = NowNs();
  s.loop = std::make_unique<net::EventLoop>(w.t0);
  s.broker = std::make_unique<pubsub::Broker>(&s.loop->clock());
  {
    Span sub("pubsub.register");
    for (const auto& info : w.sensors) SL_RETURN_IF_ERROR(s.broker->Publish(info));
  }
  int64_t t1 = NowNs();
  SL_ASSIGN_OR_RETURN(s.dataflow, w.build());
  int64_t t2 = NowNs();
  {
    Span sub("dataflow.validate");
    dataflow::Validator validator(s.broker.get());
    SL_ASSIGN_OR_RETURN(dataflow::ValidationReport report,
                        validator.Validate(s.dataflow));
    if (!report.ok()) return Status::ValidationError(report.ToString());
  }
  int64_t t3 = NowNs();
  sinks::SinkContext ctx;
  ctx.csv_consumer = [lines](const std::string& line) {
    Span sub("sinks.csv_consumer");
    int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(lines->mu);
    lines->csv.push_back({now, line});
  };
  ctx.visualization_consumer = [lines](const std::string& line) {
    Span sub("sinks.vis_consumer");
    int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(lines->mu);
    lines->vis.push_back({now, line});
  };
  s.runtime = std::make_unique<exec::ThreadedRuntime>(
      s.dataflow, s.broker.get(), ctx, BenchThreadedOptions(pool, w.t0, 0));
  {
    Span sub("exec.start");
    SL_RETURN_IF_ERROR(s.runtime->Start());
  }
  int64_t t4 = NowNs();
  s.total_s = static_cast<double>(t4 - t0) / 1e9;
  s.register_ms = static_cast<double>(t1 - t0) / 1e6;
  s.validate_ms = static_cast<double>(t3 - t2) / 1e6;
  s.start_ms = static_cast<double>(t4 - t3) / 1e6;
  return s;
}

}  // namespace

RunResult RunThreadedWorkload(ThreadedWorkload& w, const BenchOptions& options) {
  RunResult out;
  Checker check(options.perturb);
  auto fail = [&](const Status& st) {
    out.correct = false;
    out.Note("error: " + st.ToString());
    return out;
  };
  const double rss0 = RssMb();
  std::vector<double> setup_s, register_ms, validate_ms, start_ms, tps, rows, windows,
      round_p50,
      drain_ms, feed_us, lag_ms;
  uint64_t waits = 0;
  size_t depth = 0;
  auto set_up = [&](Lines* lines) {
    auto s = SetUp(w, options.pool_size, lines);
    if (s.ok()) {
      setup_s.push_back(s->total_s);
      register_ms.push_back(s->register_ms);
      validate_ms.push_back(s->validate_ms);
      start_ms.push_back(s->start_ms);
      out.max_threads = std::max(out.max_threads, ThreadCount());
    }
    return s;
  };

  for (int i = 0; i < kExtraSetups; ++i) {
    Lines lines;
    auto s = set_up(&lines);
    if (!s.ok()) return fail(s.status());
    auto done = s->runtime->Finish(w.t0);
    if (!done.ok()) return fail(done.status());
  }

  const int64_t deadline = NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  size_t round = 0;
  do {
    Tracer::SetRun(static_cast<uint32_t>(round));
    {
      Lines lines;
      auto s = set_up(&lines);
      if (!s.ok()) return fail(s.status());
      auto run = RunFeedSaturated(s->runtime.get(), w.saturated, w.saturated_end);
      if (!run.ok()) return fail(run.status());
      out.attempted += w.saturated.size();
      out.failed += run->rejected + run->result.process_errors;
      tps.push_back(run->throughput_tps(w.saturated.size()));
      feed_us.push_back(run->feed_s * 1e6 / static_cast<double>(w.saturated.size()));
      drain_ms.push_back(run->drain_ms);
      waits += run->result.backpressure_waits;
      depth = std::max(depth, run->queue_depth_max);
      w.check(true, lines, &check, round == 0 && check.perturb());
    }
    {
      Lines lines;
      auto s = set_up(&lines);
      if (!s.ok()) return fail(s.status());
      auto run = RunFeedPaced(s->runtime.get(), w.paced, w.paced_rate, w.paced_end);
      if (!run.ok()) return fail(run.status());
      out.attempted += w.paced.size();
      out.failed += run->result.process_errors;
      lag_ms.push_back(run->lag_p50_ms);
      w.check(false, lines, &check, false);
      std::vector<double> round_rows;
      w.latencies(lines, *run, &round_rows, &windows);
      round_p50.push_back(Median(round_rows));
      rows.insert(rows.end(), round_rows.begin(), round_rows.end());
    }
    if (round == 0) {
      // The first round warms caches and the allocator: checked and
      // counted, not measured.
      for (auto* v : {&tps, &feed_us, &drain_ms, &rows, &windows, &lag_ms, &round_p50}) {
        v->clear();
      }
    }
    ++round;
  } while (NowNs() < deadline || round < 3);

  out.Note(w.description);
  out.Note(StrFormat("  %zu rounds, pool %zu, batch 64; rows timed %zu, windows timed "
                     "%zu, generator lag p50 %.4f ms",
                     round, options.pool_size, rows.size(), windows.size(),
                     Median(lag_ms)));
  out.Note("  per-round throughput_tps: " + JoinValues(tps));
  out.Note("  per-round latency_p50_ms: " + JoinValues(round_p50));
  out.Absorb(check);
  if (!options.trace) {
    out.Set("setup_s", Median(setup_s), "s");
    out.Set("throughput_tps", Median(tps), "1/s");
    out.Set("peak_rss_mb", PeakRssMb() - rss0, "MiB");
    out.Note(LatencyLine(rows, windows));
    return out;
  }

  // Traced run: the per-layer ledger.
  out.traced_throughput_tps = Median(tps);
  out.Set("pubsub.register_ms", Median(register_ms), "ms");
  out.Set("dataflow.validate_ms", Median(validate_ms), "ms");
  out.Set("exec.start_ms", Median(start_ms), "ms");
  out.Set("exec.feed_us", Median(feed_us), "us");
  out.Set("exec.backpressure_waits", static_cast<double>(waits) / static_cast<double>(round),
          "count");
  out.Set("exec.drain_ms", Median(drain_ms), "ms");
  out.Set("exec.queue_depth_max", static_cast<double>(depth), "count");
  out.Set("sensors.generate_us",
          static_cast<double>(w.generate.ns) / static_cast<double>(w.generate.calls) / 1e3,
          "us");

  auto df = w.build();
  if (!df.ok()) return fail(df.status());
  net::EventLoop loop(w.t0);
  pubsub::Broker broker(&loop.clock());
  for (const auto& info : w.sensors) (void)broker.Publish(info);
  auto ops = ReplayOperators(*df, &broker, w.saturated, w.t0, 0, w.saturated_end, 64);
  if (!ops.ok()) return fail(ops.status());
  SinkReplay sinks = ReplaySinks(ops->sink_rows);
  SetLayerMetrics(*ops, sinks, ReplayPublish(w.sensors, w.saturated), &out);
  {
    Span span("replay.dsn");
    int64_t t0 = NowNs();
    auto spec = dsn::TranslateToDsn(*df);
    if (!spec.ok()) return fail(spec.status());
    int64_t t1 = NowNs();
    auto parsed = dsn::ParseDsn(spec->ToString());
    int64_t t2 = NowNs();
    if (!parsed.ok()) return fail(parsed.status());
    out.Set("dsn.translate_ms", static_cast<double>(t1 - t0) / 1e6, "ms");
    out.Set("dsn.parse_ms", static_cast<double>(t2 - t1) / 1e6, "ms");
  }
  auto sim = RunOnSimulator(*df, w.fleet(), 4, 20 * duration::kSecond);
  if (!sim.ok()) return fail(sim.status());
  const double sim_in = static_cast<double>(std::max<uint64_t>(sim->ingested, 1));
  out.Set("exec.deploy_ms", sim->deploy_ms, "ms");
  out.Set("exec.events_per_tuple", static_cast<double>(sim->events) / sim_in, "count");
  out.Set("exec.event_us",
          sim->run_s * 1e6 / static_cast<double>(std::max<uint64_t>(sim->events, 1)), "us");
  out.Set("net.messages_per_tuple", static_cast<double>(sim->messages) / sim_in, "count");
  out.Set("net.bytes_per_tuple", static_cast<double>(sim->bytes) / sim_in, "B");
  out.Set("net.route_us", sim->route_us, "us");

  // Batch fill and the residual — CPU of a saturated phase outside the
  // replayed operator and sink layers — from one more saturated phase,
  // untraced so the spans' own cost stays out of the CPU figure.
  double layers_ns = 0;
  for (const auto& [name, list] : ops->sink_rows) {
    const dataflow::Node& node = **df->node(name);
    double per_row = node.sink == dataflow::SinkKind::kVisualization ? sinks.vis_ns
                                                                      : sinks.csv_ns;
    layers_ns += per_row * static_cast<double>(list.size());
  }
  for (const auto& [kind, t] : ops->kinds) {
    layers_ns += static_cast<double>(t.process_ns + t.flush_ns);
  }
  Lines lines;
  auto s = SetUp(w, options.pool_size, &lines);
  if (!s.ok()) return fail(s.status());
  Tracer::Enable(false);
  double cpu0 = ProcessCpuSeconds();
  auto run = RunFeedSaturated(s->runtime.get(), w.saturated, w.saturated_end);
  double cpu = ProcessCpuSeconds() - cpu0;
  Tracer::Enable(true);
  if (!run.ok()) return fail(run.status());
  out.Set("ops.batch_fill", run->batch_fill, "count");
  out.Set("exec.residual_share", 1.0 - layers_ns / (cpu * 1e9), "ratio");
  return out;
}

}  // namespace slbench
