// Workload definitions and their seeded input generators. The service only
// ever sees the generated Enter/Move/Quit events; every generator is a pure
// function of (workload, seed), independent of how many producer threads
// drain it.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "geo/point.h"

namespace perfbench {

struct Event {
  enum Kind : uint8_t { kEnter, kMove, kQuit };
  Kind kind = kEnter;
  uint64_t user = 0;
  retrasyn::Point p{};
};

class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void Emit(const Event& event) = 0;
};

/// Round-by-round event generator. Produce(t, part, parts) emits the events
/// of round t owned by producer `part` (users partitioned exactly as
/// IngestSession shards them; `parts` as given to MakeSource); every part of
/// round t must be produced before any part of round t + 1. Returns how many
/// users of the part report a location (Enter or Move) in round t.
class RoundSource {
 public:
  virtual ~RoundSource() = default;
  virtual uint32_t Produce(int64_t t, int part, int parts, EventSink& sink) = 0;
};

struct WorkloadSpec {
  std::string name;
  retrasyn::BoundingBox box;
  uint32_t grid_k = 0;
  retrasyn::DivisionStrategy division = retrasyn::DivisionStrategy::kPopulation;
  retrasyn::SyncPolicy sync = retrasyn::SyncPolicy::kInline;
  /// Ingest shards, each fed by its own producer thread.
  int producers = 1;
  /// Journal at kEveryRound plus periodic checkpoints with history spill.
  bool durable = false;
  /// Journal segment size of the durable workload. Compaction retires whole
  /// segments and Recover decodes every segment left, so segments of ~45
  /// rounds keep what recovery reads within a few MiB whatever round the run
  /// stops at (the 64 MiB default swings it by a whole segment).
  int64_t journal_segment_bytes = 4 << 20;
  /// Checkpoint cadence of the durable workload and of the traced run's
  /// checkpoint calls on every workload.
  int64_t checkpoint_every = 50;
  /// > 0: open loop, one round due every interval_ms; 0: closed loop.
  double interval_ms = 0.0;
  /// Closed loop: rounds run per second of --seconds, about the rate of the
  /// reference host. A fixed round count, not a deadline, so that the
  /// horizon-dependent metrics (snapshot_s, peak_rss_mb) cover the same
  /// rounds in every run instead of following the host's speed.
  double rounds_per_second = 0.0;
  /// Average stream length (Eq. 8 lambda).
  double lambda = 13.61;

  /// Rounds a run of \p seconds makes. An open loop schedules the seconds'
  /// worth of intervals plus half a checkpoint cadence, so the run ends
  /// mid-cadence and recovery replays a fixed journal suffix.
  int64_t PlannedRounds(int seconds) const;

  /// The shipped RetraSynConfig defaults plus this workload's settings.
  retrasyn::RetraSynConfig Config(uint64_t seed) const;
};

/// The three workloads; false for an unknown name.
bool LookupWorkload(const std::string& name, WorkloadSpec* spec);

/// A fresh generator for \p spec seeded with \p seed, to be drained by
/// \p parts producers (the events do not depend on \p parts). \p max_rounds
/// bounds the horizon of sources that materialize their input up front (the
/// open loop knows its round count in advance).
std::unique_ptr<RoundSource> MakeSource(const WorkloadSpec& spec,
                                        uint64_t seed, int64_t max_rounds,
                                        int parts);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
