// Entry point of one benchmark workload process (see perfbench/README.md).
// perfbench/run.py builds this binary and runs each workload in its own
// process; the last stdout line is the JSON report.

#include <cstdio>
#include <exception>
#include <filesystem>

#include "support.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::optional<Options> options = ParseOptions(argc, argv);
  if (!options) return 2;
  Report report;
  try {
    std::filesystem::create_directories(options->workdir);
    if (options->trace) {
      Tracer::Enable();
      report.DeclareLayerMetrics();
    }
    RecordCommon(report);
    const Clock::time_point start = Clock::now();
    if (options->workload == "serve_fresh") {
      RunServeFresh(*options, report);
    } else if (options->workload == "corpus_ingest") {
      RunCorpusIngest(*options, report);
    } else if (options->workload == "weak_train") {
      RunWeakTrain(*options, report);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   options->workload.c_str());
      return 2;
    }
    const double wall_s = SecondsSince(start);
    if (options->trace) {
      const std::filesystem::path path =
          std::filesystem::path(options->workdir) /
          ("trace-" + options->workload + ".jsonl");
      FinishTrace(Tracer::Take(), wall_s, path.string(), report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
