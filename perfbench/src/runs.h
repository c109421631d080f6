// The two kinds of run: the timed run yields the end-to-end metrics, the
// traced run the per-layer ones. Each prints its result line and returns the
// process exit code.

#ifndef PERFBENCH_RUNS_H_
#define PERFBENCH_RUNS_H_

#include <cstdint>

#include "inputs.h"

namespace perfbench {

int RunTimed(const WorkloadSpec& spec, uint64_t seed, int seconds,
             int64_t main_start_ns);

int RunTraced(const WorkloadSpec& spec, uint64_t seed, int seconds,
              int64_t main_start_ns);

}  // namespace perfbench

#endif  // PERFBENCH_RUNS_H_
