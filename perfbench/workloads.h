// The benchmark's workloads. Each runs in its own process, reads its
// fixed parameters from Options, and fills the Report: every end-to-end
// metric always, and in a traced run (--trace 1) its per-layer metrics.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "support.h"

namespace perfbench {

void RunServeFresh(const Options& options, Report& report);
void RunCorpusIngest(const Options& options, Report& report);
void RunWeakTrain(const Options& options, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
