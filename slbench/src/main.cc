// slbench: the end-to-end benchmark's command line.
//
//   slbench --workload <city_sim|refine_chain|keyed_windows> --seed <n>
//           --seconds <s> --trace <0|1> [--spans <file>] [--perturb 1]
//
// Prints human-readable lines, then one JSON object as the last line:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ledger,
// and the spans go to --spans. --perturb 1 shifts one expected value in
// the output check (its self-test): the run must then report failures.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "util/logging.h"
#include "util/strings.h"

using namespace slbench;

namespace {

void PrintResult(const RunResult& r) {
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += sl::StrFormat(", \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                        static_cast<unsigned long long>(r.attempted),
                        static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, vu] : r.metrics) {
    if (!first) json += ", ";
    first = false;
    json += sl::StrFormat("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          name.c_str(), vu.first, vu.second.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: slbench --workload <city_sim|refine_chain|keyed_windows>"
               " --seed <n> --seconds <s> --trace <0|1> [--spans <file>]"
               " [--perturb 1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") options.workload = value;
    else if (key == "--seed") options.seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") options.seconds = std::strtod(value, nullptr);
    else if (key == "--trace") options.trace = std::strcmp(value, "0") != 0;
    else if (key == "--spans") options.spans_path = value;
    else if (key == "--perturb") options.perturb = std::strcmp(value, "0") != 0;
    else return Usage();
  }
  if (options.seconds <= 0) return Usage();
  options.pool_size = Nproc() > 1 ? Nproc() - 1 : 1;  sl::Logger::Get().set_level(sl::LogLevel::kError);

  Tracer::Enable(options.trace);
  RunResult result;
  if (options.workload == "city_sim") {
    result = RunCitySim(options);
  } else if (options.workload == "refine_chain") {
    result = RunRefineChain(options);
  } else if (options.workload == "keyed_windows") {
    result = RunKeyedWindows(options);
  } else {
    return Usage();
  }
  Tracer::Enable(false);

  if (result.max_threads > static_cast<int>(Nproc())) {
    result.correct = false;
    result.Note(sl::StrFormat("threads %d exceed nproc %u", result.max_threads,
                              Nproc()));
  }
  result.Note(sl::StrFormat("threads after Start: %d (nproc %u, pool %zu)",
                            result.max_threads, Nproc(), options.pool_size));
  for (const auto& [name, vu] : result.metrics) {
    result.Note(sl::StrFormat("  %-28s %14.6g %s", name.c_str(), vu.first,
                              vu.second.c_str()));
  }
  if (options.trace && !options.spans_path.empty()) {
    std::string header = sl::StrFormat(
        "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
        "\"traced_throughput_tps\":%.17g}",
        options.workload.c_str(), static_cast<unsigned long long>(options.seed),
        options.seconds, result.traced_throughput_tps);
    if (!Tracer::Write(options.spans_path, header)) {
      result.Note("could not write spans to " + options.spans_path);
      result.correct = false;
    } else {
      result.Note("spans: " + options.spans_path);
    }
  }
  for (const auto& line : result.notes) std::printf("%s\n", line.c_str());
  PrintResult(result);
  return 0;
}
