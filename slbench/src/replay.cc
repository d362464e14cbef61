#include "replay.h"

#include <algorithm>

#include "dataflow/validate.h"
#include "dsn/translate.h"
#include "exec/executor.h"
#include "monitor/monitor.h"
#include "net/event_loop.h"
#include "ops/operator.h"
#include "sinks/factory.h"
#include "sinks/warehouse.h"

namespace slbench {

using namespace sl;

Result<stt::TupleRef> TimedSensor::Generate(Timestamp ts) {
  Span span("sensors.generate");
  int64_t t0 = NowNs();
  Result<stt::TupleRef> out = inner_->Generate(ts);
  int64_t t1 = NowNs();
  ++stats_->calls;
  stats_->ns += t1 - t0;
  if (emissions_ != nullptr) emissions_->push_back({ts, t1});
  return out;
}

// -- operators ---------------------------------------------------------------

namespace {

/// Trigger activations are only recorded by the replay: no sensor
/// starts.
class NullActivation : public ops::ActivationHandler {
 public:
  void ActivateSensors(const std::vector<std::string>&, Timestamp) override {}
  void DeactivateSensors(const std::vector<std::string>&, Timestamp) override {}
};

struct Ev {
  Timestamp at;
  size_t port;
  stt::TupleRef tuple;
};

}  // namespace

Result<OpReplay> ReplayOperators(const dataflow::Dataflow& dataflow,
                                 const pubsub::Broker* broker,
                                 const exec::InputTrace& trace,
                                 Timestamp deploy_time, Duration stagger,
                                 Timestamp end_time, size_t batch) {
  Span span("replay.operators");
  dataflow::Validator validator(broker);
  SL_ASSIGN_OR_RETURN(dataflow::ValidationReport report,
                      validator.Validate(dataflow));
  if (!report.ok()) return Status::ValidationError(report.ToString());

  NullActivation activation;
  OpReplay out;
  // Output stream of every node, time-ordered.
  std::map<std::string, std::vector<Ev>> streams;
  for (const auto& e : trace) streams[e.source].push_back({e.at, 0, e.tuple});

  size_t blocking_index = 0;
  for (const auto& name : dataflow.topological_order()) {
    const dataflow::Node& node = **dataflow.node(name);
    if (node.kind == dataflow::NodeKind::kSource) continue;
    // Merge the input streams by time (stable: port order on ties).
    std::vector<Ev> in;
    for (size_t port = 0; port < node.inputs.size(); ++port) {
      for (const Ev& e : streams[node.inputs[port]]) {
        in.push_back({e.at, port, e.tuple});
      }
    }
    std::stable_sort(in.begin(), in.end(), [](const Ev& a, const Ev& b) {
      return a.at < b.at;
    });
    if (node.kind == dataflow::NodeKind::kSink) {
      auto& rows = out.sink_rows[name];
      for (const Ev& e : in) rows.push_back(e.tuple);
      continue;
    }

    std::vector<stt::SchemaPtr> schemas;
    for (const auto& input : node.inputs) {
      schemas.push_back(report.schemas.at(input));
    }
    ops::OperatorOptions op_options;
    op_options.activation = &activation;
    SL_ASSIGN_OR_RETURN(std::unique_ptr<ops::Operator> op,
                        ops::MakeOperator(name, node.op, node.spec, schemas,
                                          node.inputs, op_options));
    std::vector<Ev>& emitted = streams[name];
    Timestamp stamp = 0;
    op->set_emit([&](const stt::TupleRef& t) {
      emitted.push_back({stamp, 0, t});
    });
    OpKindTimes& times = out.kinds[node.op];
    times.tuples += in.size();

    if (!op->is_blocking()) {
      // Runs of same-port tuples, `batch` at a time.
      std::vector<stt::TupleRef> run;
      ops::Operator::BatchContext ctx;
      size_t i = 0;
      while (i < in.size()) {
        size_t j = std::min(in.size(), i + std::max<size_t>(batch, 1));
        int64_t t0 = NowNs();
        if (batch > 1 && op->batchable(0)) {
          run.clear();
          for (size_t k = i; k < j; ++k) run.push_back(in[k].tuple);
          // Emissions of a batch carry the batch's last ingestion time.
          stamp = in[j - 1].at;
          ctx.errors.clear();
          (void)op->ProcessBatch(0, run.data(), run.size(), &ctx);
        } else {
          for (size_t k = i; k < j; ++k) {
            stamp = in[k].at;
            (void)op->Process(in[k].port, in[k].tuple);
          }
        }
        times.process_ns += NowNs() - t0;
        i = j;
      }
      continue;
    }

    const Duration interval = op->interval();
    Timestamp next =
        deploy_time + interval + stagger * static_cast<Duration>(blocking_index);
    ++blocking_index;
    auto flush = [&](Timestamp at) {
      out.cache_peak_tuples =
          std::max(out.cache_peak_tuples, op->stats().cache_size);
      stamp = at;
      int64_t t0 = NowNs();
      (void)op->Flush(at);
      times.flush_ns += NowNs() - t0;
      ++times.flushes;
    };
    size_t i = 0;
    while (i < in.size()) {
      while (next <= in[i].at) {
        flush(next);
        next += interval;
      }
      // The run of arrivals below the next boundary, timed as one.
      size_t j = i;
      int64_t t0 = NowNs();
      while (j < in.size() && in[j].at < next) {
        (void)op->Process(in[j].port, in[j].tuple);
        ++j;
      }
      times.process_ns += NowNs() - t0;
      i = j;
    }
    while (next <= end_time) {
      flush(next);
      next += interval;
    }
    if (op->parallelism() > 1) {
      double total = 0, peak = 0;
      for (size_t k = 0; k < op->parallelism(); ++k) {
        double n = static_cast<double>(op->instance_stats(k)->tuples_in);
        total += n;
        peak = std::max(peak, n);
      }
      if (total > 0) {
        out.key_skew = std::max(
            out.key_skew, peak / (total / static_cast<double>(op->parallelism())));
      }
    }
  }
  return out;
}

// -- sinks, broker, network ----------------------------------------------------

SinkReplay ReplaySinks(
    const std::map<std::string, std::vector<stt::TupleRef>>& rows) {
  Span span("replay.sinks");
  SinkReplay out;
  uint64_t n = 0;
  int64_t csv_ns = 0, vis_ns = 0, wh_ns = 0;
  size_t bytes = 0;
  sinks::EventDataWarehouse warehouse;
  sinks::SinkContext ctx;
  ctx.warehouse = &warehouse;
  ctx.csv_consumer = [&bytes](const std::string& line) { bytes += line.size(); };
  ctx.visualization_consumer = [&bytes](const std::string& line) {
    bytes += line.size();
  };
  for (const auto& [name, list] : rows) {
    auto csv = sinks::MakeSink(name, dataflow::SinkKind::kCsv, "", ctx);
    auto vis =
        sinks::MakeSink(name, dataflow::SinkKind::kVisualization, "", ctx);
    if (!csv.ok() || !vis.ok()) continue;
    int64_t t0 = NowNs();
    for (const auto& t : list) (void)(*csv)->Write(t);
    int64_t t1 = NowNs();
    for (const auto& t : list) (void)(*vis)->Write(t);
    int64_t t2 = NowNs();
    for (const auto& t : list) (void)warehouse.Load(name, t);
    int64_t t3 = NowNs();
    csv_ns += t1 - t0;
    vis_ns += t2 - t1;
    wh_ns += t3 - t2;
    n += list.size();
  }
  if (n > 0) {
    out.csv_ns = static_cast<double>(csv_ns) / static_cast<double>(n);
    out.vis_ns = static_cast<double>(vis_ns) / static_cast<double>(n);
    out.warehouse_us = static_cast<double>(wh_ns) / static_cast<double>(n) / 1e3;
  }
  return out;
}

double ReplayPublish(const std::vector<pubsub::SensorInfo>& sensors,
                     const exec::InputTrace& trace) {
  Span span("replay.publish");
  net::EventLoop loop(trace.empty() ? 0 : trace.front().at);
  pubsub::Broker broker(&loop.clock());
  uint64_t delivered = 0;
  for (const auto& info : sensors) {
    if (!broker.Publish(info).ok()) continue;
    (void)broker.SubscribeData(info.id,
                               [&delivered](const stt::TupleRef&) { ++delivered; });
  }
  int64_t t0 = NowNs();
  for (const auto& e : trace) {
    (void)broker.PublishTuple(e.tuple->sensor_id(), e.tuple);
  }
  int64_t ns = NowNs() - t0;
  return trace.empty() ? 0
                       : static_cast<double>(ns) /
                             static_cast<double>(trace.size()) / 1e3;
}

double ReplayRoutes(net::Network* network,
                    const std::vector<std::pair<std::string, std::string>>& pairs,
                    size_t calls) {
  Span span("replay.route");
  if (pairs.empty() || calls == 0) return 0;
  size_t hops = 0;
  int64_t t0 = NowNs();
  for (size_t i = 0; i < calls; ++i) {
    const auto& [from, to] = pairs[i % pairs.size()];
    auto path = network->Route(from, to);
    if (path.ok()) hops += path->size();
  }
  int64_t ns = NowNs() - t0;
  return hops == 0 ? 0
                   : static_cast<double>(ns) / static_cast<double>(calls) / 1e3;
}

std::vector<std::pair<std::string, std::string>> DeployedNodePairs(
    const dataflow::Dataflow& dataflow, const exec::Executor& executor,
    exec::DeploymentId id, const pubsub::Broker& broker) {
  auto node_of = [&](const std::string& name) -> std::string {
    const dataflow::Node& node = **dataflow.node(name);
    if (node.kind == dataflow::NodeKind::kSource) {
      auto info = broker.Find(node.sensor_id);
      return info.ok() ? info->node_id : "";
    }
    auto assigned = executor.AssignedNode(id, name);
    return assigned.ok() ? *assigned : "";
  };
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const auto& [name, node] : dataflow.nodes()) {
    for (const auto& input : node.inputs) {
      std::string from = node_of(input), to = node_of(name);
      if (!from.empty() && !to.empty()) pairs.emplace_back(from, to);
    }
  }
  return pairs;
}

// -- runtimes ------------------------------------------------------------------

exec::ThreadedOptions BenchThreadedOptions(size_t pool, Timestamp t0,
                                           Duration stagger) {
  exec::ThreadedOptions o;
  o.pool_size = pool;
  o.batch_max = 64;
  o.flush_stagger_ms = stagger;
  o.deploy_time = t0;
  return o;
}

Result<FeedRun> RunFeedSaturated(exec::ThreadedRuntime* runtime,
                                 const exec::InputTrace& trace,
                                 Timestamp end_time) {
  FeedRun run;
  int64_t t0 = NowNs();
  for (const auto& e : trace) {
    Span span("exec.feed");
    if (!runtime->Feed(e.source, e.tuple, e.at, e.watermark).ok()) ++run.rejected;
  }
  int64_t t1 = NowNs();
  Result<exec::ThreadedRunResult> result = [&] {
    Span span("exec.finish");
    return runtime->Finish(end_time);
  }();
  int64_t t2 = NowNs();
  SL_RETURN_IF_ERROR(result.status());
  run.feed_s = static_cast<double>(t1 - t0) / 1e9;
  run.drain_ms = static_cast<double>(t2 - t1) / 1e6;
  run.result = std::move(result).ValueOrDie();
  for (const auto& s : run.result.stage_samples) {
    run.queue_depth_max = std::max(run.queue_depth_max, s.queue_depth);
    run.batch_fill = std::max(run.batch_fill, s.batch_fill);
  }
  return run;
}

Result<PacedRun> RunFeedPaced(exec::ThreadedRuntime* runtime,
                              const exec::InputTrace& trace, double rate_per_s,
                              Timestamp end_time) {
  PacedRun run;
  run.rate_per_s = rate_per_s;
  run.start_ns = NowNs() + 1000000;  // 1 ms to get going
  std::vector<double> lag_ms;
  lag_ms.reserve(trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    const int64_t due = run.scheduled_ns(i);
    SpinUntil(due);
    lag_ms.push_back(static_cast<double>(NowNs() - due) / 1e6);
    const auto& e = trace[i];
    Span span("exec.feed");
    SL_RETURN_IF_ERROR(runtime->Feed(e.source, e.tuple, e.at, e.watermark));
  }
  run.finish_ns = NowNs();
  Result<exec::ThreadedRunResult> result = [&] {
    Span span("exec.finish");
    return runtime->Finish(end_time);
  }();
  SL_RETURN_IF_ERROR(result.status());
  run.result = std::move(result).ValueOrDie();
  run.lag_p50_ms = Median(lag_ms);
  run.lag_max_ms = lag_ms.empty() ? 0 : *std::max_element(lag_ms.begin(), lag_ms.end());
  return run;
}

Result<SimRun> RunOnSimulator(
    const dataflow::Dataflow& dataflow,
    std::vector<std::unique_ptr<sensors::SensorSimulator>> fleet_sensors,
    size_t nodes, Duration virtual_run) {
  Span span("replay.simulator");
  SimRun out;
  net::EventLoop loop(0);
  net::Network network(&loop);
  SL_RETURN_IF_ERROR(net::BuildRingTopology(&network, nodes, 1e9, 2, 1e5));
  pubsub::Broker broker(&loop.clock());
  sensors::SensorFleet fleet(&loop, &broker);
  monitor::Monitor monitor(&loop, &network);
  sinks::EventDataWarehouse warehouse;
  sinks::SinkContext ctx;
  ctx.warehouse = &warehouse;
  ctx.csv_consumer = [](const std::string&) {};
  ctx.visualization_consumer = [](const std::string&) {};
  exec::Executor executor(&loop, &network, &broker, &monitor, ctx);
  executor.set_fleet(&fleet);
  for (auto& s : fleet_sensors) {
    SL_RETURN_IF_ERROR(fleet.Add(std::move(s), /*start_active=*/true));
  }
  SL_ASSIGN_OR_RETURN(dsn::DsnSpec spec, dsn::TranslateToDsn(dataflow));
  int64_t t0 = NowNs();
  SL_ASSIGN_OR_RETURN(exec::DeploymentId id, executor.Deploy(spec));
  out.deploy_ms = static_cast<double>(NowNs() - t0) / 1e6;
  uint64_t events0 = loop.events_executed();
  int64_t t1 = NowNs();
  loop.RunFor(virtual_run);
  out.run_s = static_cast<double>(NowNs() - t1) / 1e9;
  out.events = loop.events_executed() - events0;
  SL_ASSIGN_OR_RETURN(const exec::DeploymentStats* stats, executor.stats(id));
  out.ingested = stats->tuples_ingested;
  out.messages = network.total_messages();
  out.bytes = network.total_bytes_sent();
  out.route_us = ReplayRoutes(
      &network, DeployedNodePairs(dataflow, executor, id, broker), 20000);
  return out;
}

void SetLayerMetrics(const OpReplay& ops, const SinkReplay& sinks,
                     double publish_us, RunResult* out) {
  using dataflow::OpKind;
  auto per_tuple = [&](OpKind kind) {
    auto it = ops.kinds.find(kind);
    if (it == ops.kinds.end() || it->second.tuples == 0) return 0.0;
    return static_cast<double>(it->second.process_ns) /
           static_cast<double>(it->second.tuples);
  };
  auto per_flush_ms = [&](OpKind kind) {
    auto it = ops.kinds.find(kind);
    if (it == ops.kinds.end() || it->second.flushes == 0) return 0.0;
    return static_cast<double>(it->second.flush_ns) /
           static_cast<double>(it->second.flushes) / 1e6;
  };
  out->Set("ops.filter_ns", per_tuple(OpKind::kFilter), "ns");
  out->Set("ops.transform_ns", per_tuple(OpKind::kTransform), "ns");
  out->Set("ops.vprop_ns", per_tuple(OpKind::kVirtualProperty), "ns");
  out->Set("ops.cull_ns", per_tuple(OpKind::kCullSpace), "ns");
  out->Set("ops.aggregation_ns", per_tuple(OpKind::kAggregation), "ns");
  out->Set("ops.aggregation_flush_ms", per_flush_ms(OpKind::kAggregation),
           "ms");
  out->Set("ops.join_ns", per_tuple(OpKind::kJoin), "ns");
  out->Set("ops.join_flush_ms", per_flush_ms(OpKind::kJoin), "ms");
  out->Set("ops.trigger_ns", per_tuple(OpKind::kTriggerOn), "ns");
  out->Set("ops.cache_peak_tuples", static_cast<double>(ops.cache_peak_tuples),
           "count");
  out->Set("ops.key_skew", ops.key_skew, "ratio");
  out->Set("sinks.csv_write_ns", sinks.csv_ns, "ns");
  out->Set("sinks.vis_write_ns", sinks.vis_ns, "ns");
  out->Set("sinks.warehouse_load_us", sinks.warehouse_us, "us");
  out->Set("pubsub.publish_us", publish_us, "us");
}

}  // namespace slbench
