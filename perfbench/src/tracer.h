// In-memory span recorder of the traced run. Spans are recorded by the
// benchmark's own code around its calls into each layer's public functions:
// name, start, end, the enclosing span on the same thread, the round they
// belong to (shared by every span of that round, on every thread) and a work
// count (events, points, states, bytes). Nothing is written until the run
// ends.

#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"

namespace perfbench {

enum SpanKind : uint8_t {
  kAdmit,            // service.admit: IngestSession::Enter/Move/Quit
  kLocate,           // geo.locate: SpatialGrid::Locate
  kTick,             // service.tick: IngestSession::Tick
  kObserve,          // core.observe: the round handler's engine step
  kCollect,          // ldp.collect: TransitionCollector::Collect
  kModelUpdate,      // core.model_update: ApplyPostprocess + ReplaceAll/UpdateStates
  kDmu,              // core.dmu: SelectSignificantTransitions
  kSamplerSync,      // core.sampler_sync: TransitionSamplerCache::Sync
  kSynthesize,       // core.synthesize: Synthesizer::Initialize/Step
  kReleaseServer,    // core.release_server: ReleaseServer::OnRound
  kRangeQuery,       // core.range_query: ReleaseServer::RangeCount
  kSnapshot,         // core.snapshot: Synthesizer::Snapshot
  kJournalAppend,    // journal.append: JournalWriter::Append (events)
  kJournalSync,      // journal.sync: round-boundary Append + fdatasync
  kJournalScan,      // journal.scan: JournalReader::ScanDir
  kCheckpointEncode, // checkpoint.encode: EncodeCheckpointBody/EncodeHistoryBody
  kCheckpointWrite,  // checkpoint.write: WriteFramedFile
  kCheckpointDecode, // checkpoint.decode: DecodeCheckpointBody
  kBenchCheck,       // bench.check: the benchmark's own method checks
  kBenchGenerate,    // bench.generate: the benchmark's input generator
  kNumSpanKinds,
};

const char* SpanName(SpanKind kind);
/// The layer a span belongs to: its name up to the first '.'.
std::string SpanLayer(SpanKind kind);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t round = -1;   ///< -1: not part of a round (end-of-run calls)
  uint64_t count = 0;   ///< work done inside the span
  int32_t parent = -1;  ///< index of the enclosing span on the same thread
  SpanKind kind = kAdmit;
};

class Tracer {
 public:
  struct ThreadLog {
    int thread = 0;
    std::vector<Span> spans;
    std::vector<int32_t> open;
  };

  /// RAII span on the calling thread.
  class Scope {
   public:
    Scope(Tracer* tracer, SpanKind kind, int64_t round, uint64_t count = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void set_count(uint64_t count) { count_ = count; }

   private:
    ThreadLog* log_;
    int32_t index_;
    uint64_t count_;
  };

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Every thread's log. Call only once the traced threads are joined.
  std::vector<const ThreadLog*> Logs() const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  ThreadLog* Local();

  mutable retrasyn::Mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_ GUARDED_BY(mu_);
};

/// Self time of every span: its duration minus the durations of the spans
/// directly nested in it on the same thread. Indexed like ThreadLog::spans.
std::vector<int64_t> SelfTimes(const Tracer::ThreadLog& log);

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
