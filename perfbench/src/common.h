// Shared helpers of the end-to-end benchmark: clocks, quantiles, process
// memory, digests, the output-check ledger and the result line.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

/// CPU time of the whole process since it started, all threads, in ns.
int64_t ProcessCpuNs();

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty input.
double Quantile(std::vector<double> values, double q);

/// A field of /proc/self/status ("VmRSS", "VmHWM") in MiB; 0 if unreadable.
double ProcStatusMiB(const char* field);

/// splitmix64 finalizer.
uint64_t Mix64(uint64_t x);

/// Order-sensitive digest of a cell-count vector.
uint64_t DigestCounts(const std::vector<uint32_t>& counts);

/// Counts every public call the benchmark makes and collects the output
/// checks; a failed check makes the run incorrect.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  /// Counts one operation; returns its success.
  bool Op(bool ok, const char* what);
  void Check(bool ok, const std::string& what);
  bool correct() const { return failures.empty(); }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints the result object as the last line of standard output and the
/// failed checks on standard error.
void PrintResult(const Ledger& ledger, const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
