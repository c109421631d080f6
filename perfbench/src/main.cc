// RetraSyn end-to-end benchmark driver.
//
//   perfbench --workload <tdrive_hires|crowd_1m|durable_paced> --seed <n>
//             --seconds <s> --trace <0|1>
//
// --trace 0 runs the timed run (end-to-end metrics), --trace 1 the traced
// run (per-layer metrics). The last line of standard output is the result
// object; context lines go to standard error. See perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "inputs.h"
#include "runs.h"

int main(int argc, char** argv) {
  const int64_t main_start_ns = perfbench::NowNs();
  std::string workload;
  long long seed = -1;
  int seconds = 0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      seed = std::atoll(value);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      seconds = std::atoi(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      trace = std::atoi(value);
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag);
      return 2;
    }
  }
  perfbench::WorkloadSpec spec;
  if (!perfbench::LookupWorkload(workload, &spec) || seed < 0 ||
      seconds < 1 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "<tdrive_hires|crowd_1m|durable_paced> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  const uint64_t s = static_cast<uint64_t>(seed);
  return trace == 1
             ? perfbench::RunTraced(spec, s, seconds, main_start_ns)
             : perfbench::RunTimed(spec, s, seconds, main_start_ns);
}
