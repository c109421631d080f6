#include "common.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double ProcStatusMiB(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double mib = 0.0;
  const size_t len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      long kb = 0;
      if (std::sscanf(line + len + 1, "%ld", &kb) == 1) mib = kb / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mib;
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t DigestCounts(const std::vector<uint32_t>& counts) {
  uint64_t h = Mix64(counts.size());
  for (uint32_t c : counts) h = Mix64(h ^ c);
  return h;
}

bool Ledger::Op(bool ok, const char* what) {
  ++attempted;
  if (!ok) {
    if (failed == 0) std::fprintf(stderr, "perfbench: %s failed\n", what);
    ++failed;
  }
  return ok;
}

void Ledger::Check(bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
}

void PrintResult(const Ledger& ledger, const std::vector<Metric>& metrics) {
  for (const std::string& f : ledger.failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }
  std::string line = "{\"correct\": ";
  line += ledger.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(ledger.attempted);
  line += ", \"failed\": " + std::to_string(ledger.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.9g", metrics[i].value);
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::fflush(stderr);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
