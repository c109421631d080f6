// Pieces both the timed and the traced run drive the service with:
// admission, the round schedule, the recording release sink and its
// range-query probes, the output checks and the per-run scratch directory.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "core/release_server.h"
#include "core/release_sink.h"
#include "geo/grid.h"
#include "inputs.h"
#include "ldp/budget.h"
#include "service/ingest_session.h"
#include "stream/cell_stream.h"

namespace perfbench {

/// Admits one producer's events straight into the session, counting the
/// accepted and refused calls. Cache-line aligned: each producer bumps its
/// own counters once per event, and neighbours must not share a line.
class alignas(64) AdmitSink : public EventSink {
 public:
  explicit AdmitSink(retrasyn::IngestSession* session) : session_(session) {}

  void Emit(const Event& e) override;

  uint64_t accepted = 0;
  uint64_t failed = 0;
  int64_t first_ok_ns = 0;      ///< when the first call was accepted
  int64_t first_ok_cpu_ns = 0;  ///< ProcessCpuNs() then
  std::string first_error;

 private:
  retrasyn::IngestSession* session_;
};

/// Admits one event into \p session; the status of the call.
retrasyn::Status Admit(retrasyn::IngestSession& session, const Event& e);

/// Produces and admits round \p t, one producer thread per sink (inline for
/// a single sink); returns how many users the generator located in round t.
uint32_t AdmitRound(RoundSource& source, int64_t t,
                    std::vector<AdmitSink>& sinks);

/// The deployment's consumer: forwards every round to a ReleaseServer
/// (retaining kRetention rounds) and records, per round, when it arrived,
/// its population, and a digest of its density. Rounds must arrive exactly
/// once and in order.
class RecordingSink : public retrasyn::ReleaseSink {
 public:
  static constexpr int64_t kRetention = 64;
  /// Densities kept for the range-query reference sums.
  static constexpr int64_t kRing = 16;

  /// \p around_server, when set, wraps the ReleaseServer::OnRound call (the
  /// traced run puts a span there).
  explicit RecordingSink(
      const retrasyn::UniformGrid& grid,
      std::function<retrasyn::Status(int64_t, const std::function<
                                                  retrasyn::Status()>&)>
          around_server = nullptr);

  retrasyn::Status OnRound(const retrasyn::RoundRelease& round) override;

  /// Issues one seeded RangeCount against the server over the newest
  /// delivered rounds and compares it with the sum of the pushed densities.
  /// Returns false (and fills \p why) on a mismatch; does nothing before the
  /// first delivery. \p timed receives the RangeCount call to time.
  bool ProbeRange(retrasyn::Rng& rng, std::string* why,
                  const std::function<uint64_t(
                      const std::function<uint64_t()>&)>& timed);

  // Read only after the service is drained.
  int64_t rounds() const { return static_cast<int64_t>(recv_ns_.size()); }
  const std::vector<int64_t>& recv_ns() const { return recv_ns_; }
  const std::vector<uint64_t>& active() const { return active_; }
  const std::vector<uint64_t>& digests() const { return digests_; }
  int64_t order_errors() const { return order_errors_; }
  int64_t sum_errors() const { return sum_errors_; }
  const retrasyn::Status& server_status() const { return server_status_; }

 private:
  const retrasyn::UniformGrid* grid_;
  std::function<retrasyn::Status(int64_t,
                                 const std::function<retrasyn::Status()>&)>
      around_server_;
  mutable retrasyn::Mutex mu_;
  retrasyn::ReleaseServer server_ GUARDED_BY(mu_);
  std::deque<std::vector<uint32_t>> ring_ GUARDED_BY(mu_);
  int64_t delivered_ GUARDED_BY(mu_) = 0;
  std::vector<int64_t> recv_ns_;
  std::vector<uint64_t> active_;
  std::vector<uint64_t> digests_;
  int64_t order_errors_ = 0;
  int64_t sum_errors_ = 0;
  retrasyn::Status server_status_;
};

/// Waits until round \p t of an open loop is due and returns when it was
/// due; a closed loop's round is due now.
int64_t AwaitRound(const WorkloadSpec& spec, int64_t loop_start, int64_t t);

/// Issues the two seeded RangeCount probes that follow every Tick and checks
/// them; \p timed receives each RangeCount call.
void ProbeRanges(RecordingSink& sink, retrasyn::Rng& rng, Ledger& ledger,
                 const std::function<uint64_t(
                     const std::function<uint64_t()>&)>& timed);

/// The per-round release checks: every round delivered once, in order, its
/// density summing to its population, which equals the users the generator
/// located (\p located, one entry per round).
void CheckReleases(const RecordingSink& sink,
                   const std::vector<uint32_t>& located, Ledger& ledger);

/// The privacy invariant of the workload's division strategy.
void CheckPrivacy(const WorkloadSpec& spec, double epsilon,
                  const retrasyn::ReportWindowTracker& tracker,
                  const retrasyn::BudgetLedger& budget, Ledger& ledger);

/// Compares the per-timestamp cell counts of \p snapshot with the digests of
/// the densities the sink was pushed. Empty string when they agree.
std::string CheckSnapshotAgainstDigests(const retrasyn::CellStreamSet& snapshot,
                                        uint32_t num_cells,
                                        const std::vector<uint64_t>& digests);

/// Byte-level equality of two snapshots. Empty string when identical.
std::string CompareSnapshots(const retrasyn::CellStreamSet& a,
                             const retrasyn::CellStreamSet& b);

/// Creates an empty scratch directory under .bench_out/ for this run.
std::string MakeScratchDir(const std::string& workload, uint64_t seed,
                           const char* tag);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
