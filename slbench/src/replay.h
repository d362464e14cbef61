// slbench: layer replays and the runtime feeders the workloads share.
//
// A layer replay times one module from outside, at its public
// functions, on inputs a workload captured: the operators through
// ops::MakeOperator + Process/ProcessBatch/Flush, the sinks through
// sinks::MakeSink + Write and EventDataWarehouse::Load, the broker
// through Broker::PublishTuple, the network through Network::Route.
// Replays run after the measured phases, single-threaded, so they never
// perturb an end-to-end figure.

#ifndef SLBENCH_REPLAY_H_
#define SLBENCH_REPLAY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "dataflow/graph.h"
#include "exec/executor.h"
#include "exec/threaded_runtime.h"
#include "net/network.h"
#include "pubsub/broker.h"
#include "sensors/simulator.h"

namespace slbench {

using sl::Duration;
using sl::Timestamp;

// -- timed sensors -----------------------------------------------------------

/// Totals of every Generate call made through TimedSensor wrappers.
struct GenerateStats {
  uint64_t calls = 0;
  int64_t ns = 0;
};

/// \brief Wraps a sensor simulator and times each Generate call.
///
/// Optionally records (sensor, ts, wall ns) per emission, which the
/// simulator workload needs to date its sink rows.
class TimedSensor : public sl::sensors::SensorSimulator {
 public:
  struct Emission {
    Timestamp ts;
    int64_t wall_ns;
  };

  TimedSensor(std::unique_ptr<sl::sensors::SensorSimulator> inner,
              GenerateStats* stats, std::vector<Emission>* emissions)
      : SensorSimulator(inner->info()),
        inner_(std::move(inner)),
        stats_(stats),
        emissions_(emissions) {}

  sl::Result<sl::stt::TupleRef> Generate(Timestamp ts) override;

 private:
  std::unique_ptr<sl::sensors::SensorSimulator> inner_;
  GenerateStats* stats_;
  std::vector<Emission>* emissions_;
};

// -- operators ---------------------------------------------------------------

/// Per-kind operator service times from a replay.
struct OpKindTimes {
  uint64_t tuples = 0;
  int64_t process_ns = 0;
  uint64_t flushes = 0;
  int64_t flush_ns = 0;
};

struct OpReplay {
  std::map<sl::dataflow::OpKind, OpKindTimes> kinds;
  size_t cache_peak_tuples = 0;
  /// Max-over-mean input share of the busiest instance among the
  /// key-partitioned operators; 1 when none is partitioned.
  double key_skew = 1;
  /// Tuples that reached each sink, in replay order.
  std::map<std::string, std::vector<sl::stt::TupleRef>> sink_rows;
};

/// Replays `trace` through freshly built operators of `dataflow`, stage
/// by stage in topological order, flushing blocking operators on the
/// runtimes' boundary schedule (deploy_time + interval + stagger * k-th
/// blocking operator + n * interval) up to `end_time`. Stateless
/// batchable operators receive ProcessBatch runs of `batch` tuples.
sl::Result<OpReplay> ReplayOperators(const sl::dataflow::Dataflow& dataflow,
                                     const sl::pubsub::Broker* broker,
                                     const sl::exec::InputTrace& trace,
                                     Timestamp deploy_time, Duration stagger,
                                     Timestamp end_time, size_t batch);

// -- sinks, broker, network ----------------------------------------------------

struct SinkReplay {
  double csv_ns = 0;        ///< per CsvSink::Write
  double vis_ns = 0;        ///< per VisualizationSink::Write
  double warehouse_us = 0;  ///< per EventDataWarehouse::Load
};
/// Writes every sink's rows through a fresh CSV sink, visualization sink
/// and warehouse dataset of its own.
SinkReplay ReplaySinks(
    const std::map<std::string, std::vector<sl::stt::TupleRef>>& rows);

/// Mean Broker::PublishTuple time (us) over the trace's tuples, on a
/// broker holding `sensors`, each with one subscriber.
double ReplayPublish(const std::vector<sl::pubsub::SensorInfo>& sensors,
                     const sl::exec::InputTrace& trace);

/// Mean Network::Route time (us) over `pairs`, cycled for `calls` calls.
double ReplayRoutes(sl::net::Network* network,
                    const std::vector<std::pair<std::string, std::string>>& pairs,
                    size_t calls);

/// The node pairs a deployment's edges transfer over: the producing
/// sensor's node or operator's assigned node, to the consumer's.
std::vector<std::pair<std::string, std::string>> DeployedNodePairs(
    const sl::dataflow::Dataflow& dataflow, const sl::exec::Executor& executor,
    sl::exec::DeploymentId id, const sl::pubsub::Broker& broker);

// -- runtimes ------------------------------------------------------------------

/// What one saturated Feed replay on the threaded runtime measured.
struct FeedRun {
  double feed_s = 0;    ///< wall time of the Feed loop
  double drain_ms = 0;  ///< wall time of Finish
  uint64_t rejected = 0;  ///< Feed calls that returned an error
  sl::exec::ThreadedRunResult result;
  size_t queue_depth_max = 0;
  double batch_fill = 0;  ///< fullest columnar batches of any stage

  double throughput_tps(size_t fed) const {
    return static_cast<double>(fed) / (feed_s + drain_ms / 1e3);
  }
};

/// Feeds `trace` flat out from the calling thread into a started
/// `runtime` and finishes at `end_time`.
sl::Result<FeedRun> RunFeedSaturated(sl::exec::ThreadedRuntime* runtime,
                                     const sl::exec::InputTrace& trace,
                                     Timestamp end_time);

/// The threaded runtime's options every workload uses: `pool` workers,
/// batches of up to 64, flushes on the boundaries t0 + k * interval.
sl::exec::ThreadedOptions BenchThreadedOptions(size_t pool, Timestamp t0,
                                               Duration stagger);

/// What one paced (open-loop) Feed replay measured.
struct PacedRun {
  int64_t start_ns = 0;   ///< scheduled send of trace[0]
  double rate_per_s = 0;  ///< scheduled sends per wall second
  int64_t finish_ns = 0;  ///< when Finish was called
  /// How far behind schedule the generator ran, at the median and max.
  double lag_p50_ms = 0;
  double lag_max_ms = 0;
  sl::exec::ThreadedRunResult result;

  int64_t scheduled_ns(size_t i) const {
    return start_ns + static_cast<int64_t>(static_cast<double>(i) * 1e9 /
                                           rate_per_s);
  }
};

/// Feeds `trace` into a started `runtime` on a fixed schedule of
/// `rate_per_s` sends per second, whatever the runtime does (an open
/// loop), then finishes at `end_time`.
sl::Result<PacedRun> RunFeedPaced(sl::exec::ThreadedRuntime* runtime,
                                  const sl::exec::InputTrace& trace,
                                  double rate_per_s, Timestamp end_time);

/// What a short simulator run of a workload's dataflow measured.
struct SimRun {
  double deploy_ms = 0;
  uint64_t ingested = 0;
  uint64_t events = 0;
  double run_s = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  double route_us = 0;
};

/// Runs `dataflow` on a fresh simulator session of `nodes` ring nodes
/// whose fleet is `sensors`, for `virtual_run` of stream time: the
/// replay that gives the threaded workloads their simulator-layer
/// figures.
sl::Result<SimRun> RunOnSimulator(
    const sl::dataflow::Dataflow& dataflow,
    std::vector<std::unique_ptr<sl::sensors::SensorSimulator>> sensors,
    size_t nodes, Duration virtual_run);

/// Fills the per-layer metrics every workload reports from the replays
/// (operators, sinks, broker) and the simulator/threaded figures.
void SetLayerMetrics(const OpReplay& ops, const SinkReplay& sinks,
                     double publish_us, RunResult* out);

}  // namespace slbench

#endif  // SLBENCH_REPLAY_H_
