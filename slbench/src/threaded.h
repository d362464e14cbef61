// slbench: the round loop both threaded-runtime workloads share.
//
// A round is a saturated phase (the whole saturated trace fed flat out
// from the calling thread, Finish included) and a paced phase (the paced
// trace fed on a fixed open-loop schedule). Each phase runs on a fresh
// session: sensor publication, Validate and ThreadedRuntime::Start,
// which together are the set-up time. The pool has nproc - 1 workers, so
// with the thread that calls Feed the run never has more threads than
// processors; no live feed threads or shard threads are started.

#ifndef SLBENCH_THREADED_H_
#define SLBENCH_THREADED_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "replay.h"

namespace slbench {

/// One sink line and when the sink's consumer received it.
struct Line {
  int64_t wall_ns;
  std::string text;
};

/// Sink lines of one phase. Sink stages run on pool workers (and on the
/// Feed thread when it helps a full ring drain), so appends are locked.
struct Lines {
  std::mutex mu;
  std::vector<Line> csv, vis;
};

/// \brief What a threaded workload supplies to the shared round loop.
struct ThreadedWorkload {
  std::vector<sl::pubsub::SensorInfo> sensors;
  std::function<sl::Result<sl::dataflow::Dataflow>()> build;
  Timestamp t0 = 0;  ///< deploy time: the first window starts here
  sl::exec::InputTrace saturated, paced;
  Timestamp saturated_end = 0, paced_end = 0;  ///< Finish times
  double paced_rate = 0;                       ///< sends per wall second
  GenerateStats generate;                      ///< input generation
  /// Checks a phase's sink lines against that phase's inputs; with
  /// `perturb` one expected value is shifted first.
  std::function<void(bool saturated, const Lines&, Checker*, bool perturb)> check;
  /// Appends the paced phase's per-row and per-window latencies (ms).
  std::function<void(const Lines&, const PacedRun&, std::vector<double>* rows,
                     std::vector<double>* windows)>
      latencies;
  /// Fresh sensors for the simulator replay of the traced run.
  std::function<std::vector<std::unique_ptr<sl::sensors::SensorSimulator>>()> fleet;
  std::string description;  ///< first human-readable line
};

RunResult RunThreadedWorkload(ThreadedWorkload& workload,
                              const BenchOptions& options);

}  // namespace slbench

#endif  // SLBENCH_THREADED_H_
