// The traced run: the same workload, inputs and schedule as the timed run,
// but every layer call is made from the benchmark's own code and wrapped in
// a span. The round handler is TracedEngine, which performs
// RetraSynEngine::Observe's calls in the engine's order (and so releases the
// same bytes — checked against the shipped engine); journal and checkpoint
// calls are made by the benchmark in the order the service makes them. From
// the spans it derives the per-layer metrics. It also checks two method
// properties: the OUE estimates are unbiased with their exact variance, and
// the crowd_1m release under sharded async ingestion equals a single-shard
// inline run of the same inputs.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint/checkpoint_format.h"
#include "common.h"
#include "common/file_io.h"
#include "common/logging.h"
#include "core/allocation.h"
#include "core/dmu.h"
#include "core/mobility_model.h"
#include "core/synthesizer.h"
#include "core/transition_sampler_cache.h"
#include "geo/grid.h"
#include "geo/state_space.h"
#include "harness.h"
#include "journal/journal_reader.h"
#include "journal/journal_writer.h"
#include "ldp/aggregate.h"
#include "ldp/budget.h"
#include "ldp/frequency_oracle.h"
#include "runs.h"
#include "service/trajectory_service.h"
#include "tracer.h"

namespace perfbench {

using retrasyn::CellStream;
using retrasyn::CellStreamSet;
using retrasyn::EngineCheckpointState;
using retrasyn::Mutex;
using retrasyn::MutexLock;
using retrasyn::RetraSynConfig;
using retrasyn::SessionCheckpointState;
using retrasyn::StateId;
using retrasyn::StateSpace;
using retrasyn::Status;
using retrasyn::TimestampBatch;
using retrasyn::TrajectoryService;
using retrasyn::UniformGrid;
using retrasyn::UserObservation;

namespace {

/// Budget-division rounds below this epsilon are skipped (core/engine.cc).
constexpr double kMinRoundEpsilon = 1e-4;

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

// --- checkpoint worker -------------------------------------------------------

/// Pairs the engine half of a checkpoint (captured by the round handler) with
/// the session half (captured after Tick returns) and encodes and writes both
/// on its own thread, as the service's checkpoint worker does.
class CheckpointWorker {
 public:
  CheckpointWorker(Tracer* tracer, std::string dir, std::string grid_describe)
      : tracer_(tracer),
        dir_(std::move(dir)),
        grid_describe_(std::move(grid_describe)),
        thread_([this] { Loop(); }) {}

  ~CheckpointWorker() { Finish(); }

  CheckpointWorker(const CheckpointWorker&) = delete;
  CheckpointWorker& operator=(const CheckpointWorker&) = delete;

  void PutEngine(int64_t closed, EngineCheckpointState state,
                 std::shared_ptr<const std::vector<CellStream>> spilled) {
    MutexLock lock(mu_);
    Pending& p = pending_[closed];
    p.engine = std::move(state);
    p.spilled = std::move(spilled);
    p.has_engine = true;
    cv_.NotifyAll();
  }

  void PutSession(int64_t closed, SessionCheckpointState state) {
    MutexLock lock(mu_);
    Pending& p = pending_[closed];
    p.session = std::move(state);
    p.has_session = true;
    cv_.NotifyAll();
  }

  /// Writes what is complete and joins the worker.
  void Finish() {
    {
      MutexLock lock(mu_);
      stop_ = true;
      cv_.NotifyAll();
    }
    if (thread_.joinable()) thread_.join();
  }

  // Read after Finish().
  std::vector<uint64_t> bytes;
  std::string last_file;
  int64_t last_round = -1;
  Status status;

 private:
  struct Pending {
    bool has_engine = false;
    bool has_session = false;
    EngineCheckpointState engine;
    SessionCheckpointState session;
    std::shared_ptr<const std::vector<CellStream>> spilled;
  };

  void Loop() {
    mu_.Lock();
    while (true) {
      auto ready = pending_.end();
      for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        if (it->second.has_engine && it->second.has_session) {
          ready = it;
          break;
        }
      }
      if (ready == pending_.end()) {
        if (stop_) break;
        cv_.Wait(mu_);
        continue;
      }
      const int64_t closed = ready->first;
      Pending work = std::move(ready->second);
      pending_.erase(ready);
      mu_.Unlock();
      Write(closed, std::move(work));
      mu_.Lock();
    }
    mu_.Unlock();
  }

  void Write(int64_t closed, Pending work) {
    retrasyn::CheckpointState state;
    state.round = closed;
    state.grid_describe = grid_describe_;
    state.engine = std::move(work.engine);
    state.session = std::move(work.session);
    spill_rounds_.push_back(closed);
    state.spill_rounds = spill_rounds_;
    std::string body;
    std::string history;
    {
      Tracer::Scope span(tracer_, kCheckpointEncode, closed - 1);
      retrasyn::EncodeHistoryBody(*work.spilled, &history);
      retrasyn::EncodeCheckpointBody(state, &body);
      span.set_count(body.size() + history.size());
    }
    Status st;
    {
      Tracer::Scope span(tracer_, kCheckpointWrite, closed - 1,
                         body.size() + history.size());
      st = retrasyn::WriteFramedFile(dir_, retrasyn::HistoryFileName(closed),
                                     retrasyn::kHistoryMagic, 0, history);
      if (st.ok()) {
        st = retrasyn::WriteFramedFile(dir_,
                                       retrasyn::CheckpointFileName(closed),
                                       retrasyn::kCheckpointMagic, 0, body);
      }
    }
    if (!st.ok()) {
      if (status.ok()) status = st;
      return;
    }
    bytes.push_back(body.size() + history.size());
    last_file = dir_ + "/" + retrasyn::CheckpointFileName(closed);
    last_round = closed;
  }

  Tracer* tracer_;
  const std::string dir_;
  const std::string grid_describe_;
  std::vector<int64_t> spill_rounds_;
  Mutex mu_;
  retrasyn::CondVar cv_;
  std::map<int64_t, Pending> pending_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  std::thread thread_;
};

// --- the traced round handler ------------------------------------------------

/// z-scores of the OUE estimates against the exact histogram of the submitted
/// states: z = (f_hat - f) / sqrt(Var), Var = [f p(1-p) + (1-f) q(1-q)] /
/// (n (p-q)^2).
struct ZScores {
  double n = 0.0;
  double sum = 0.0;
  double sum2 = 0.0;
  double sum4 = 0.0;
};

struct RoundStats {
  uint64_t reports = 0;
  uint64_t selected = 0;
  uint64_t cells_rebuilt = 0;
  int64_t observe_end_ns = 0;
};

/// RetraSynEngine::Observe, call for call, with a span around each layer
/// call. Population-division reporter selection, stream-index retirement,
/// budget allocation and checkpoint capture follow core/engine.cc so the
/// released bytes equal the shipped engine's.
class TracedEngine : public retrasyn::StreamReleaseEngine {
 public:
  TracedEngine(const StateSpace& states, const RetraSynConfig& config,
               Tracer* tracer, CheckpointWorker* checkpoints,
               int64_t checkpoint_every)
      : states_(&states),
        config_(config),
        rng_(config.seed),
        collector_(states.size(), config.collection_mode, config.oracle),
        model_(states),
        synthesizer_(states, SynthConfig(config)),
        shadow_cache_(states),
        allocator_(config.allocation, config.window, states.size()),
        ledger_(config.window, config.epsilon),
        tracker_(config.window),
        tracer_(tracer),
        checkpoints_(checkpoints),
        checkpoint_every_(checkpoint_every),
        true_counts_(states.size(), 0) {
    RETRASYN_CHECK(config.num_threads == 1 && config.use_dmu &&
                   config.use_eq &&
                   config.allocation.kind != retrasyn::AllocationKind::kRandom);
  }

  void Observe(const TimestampBatch& batch) override {
    const int64_t t = batch.t;
    {
      Tracer::Scope observe(tracer_, kObserve, t);
      ObserveRound(batch);
    }
    stats_.back().observe_end_ns = NowNs();
    if (checkpoints_ != nullptr && (t + 1) % checkpoint_every_ == 0) {
      CaptureCheckpoint(t + 1);
    }
  }

  CellStreamSet SnapshotRelease(int64_t num_timestamps) const override {
    CellStreamSet live;
    {
      Tracer::Scope span(tracer_, kSnapshot, -1);
      live = synthesizer_.Snapshot(num_timestamps);
      span.set_count(live.TotalPoints());
    }
    if (history_.empty()) return live;
    CellStreamSet stitched(num_timestamps);
    for (const auto& part : history_) {
      for (const CellStream& s : *part) stitched.Add(s).CheckOK();
    }
    for (const CellStream& s : live.streams()) stitched.Add(s).CheckOK();
    return stitched;
  }

  std::vector<uint32_t> LiveDensity() const override {
    return synthesizer_.LiveDensity();
  }

  CellStreamSet Finish(int64_t num_timestamps) override {
    return synthesizer_.Finish(num_timestamps);
  }

  std::string name() const override { return "RetraSyn-traced"; }

  /// Captures a checkpoint from the calling thread; the caller guarantees
  /// no round is in flight.
  void CaptureCheckpoint(int64_t closed) {
    auto spilled = std::make_shared<const std::vector<CellStream>>(
        synthesizer_.TakeFinished());
    history_.push_back(spilled);
    checkpoints_->PutEngine(closed, Capture(), spilled);
  }

  // Read after the service is drained.
  const std::vector<RoundStats>& stats() const { return stats_; }
  const ZScores& zscores() const { return z_; }
  const retrasyn::ReportWindowTracker& tracker() const { return tracker_; }
  const retrasyn::BudgetLedger& ledger() const { return ledger_; }

 private:
  enum class UserStatus : uint8_t { kUnknown = 0, kActive, kInactive, kQuitted };

  static retrasyn::SynthesizerConfig SynthConfig(const RetraSynConfig& config) {
    retrasyn::SynthesizerConfig synth;
    synth.lambda = config.lambda;
    synth.num_threads = 1;
    synth.use_sampler_cache = config.use_sampler_cache;
    return synth;
  }

  void ObserveRound(const TimestampBatch& batch) {
    const int64_t t = batch.t;
    stats_.emplace_back();
    RoundStats& round = stats_.back();

    std::vector<StateId> report_states;
    double eps_round = 0.0;
    if (config_.division == retrasyn::DivisionStrategy::kPopulation) {
      const std::vector<uint32_t> eligible = PrepareEligible(batch);
      const std::vector<uint32_t> chosen = ChooseReporters(batch, eligible);
      report_states.reserve(chosen.size());
      for (uint32_t i : chosen) {
        report_states.push_back(batch.observations[i].state);
      }
      CommitStatuses(batch, chosen);
      eps_round = config_.epsilon;
      ledger_.Record(t, 0.0);
    } else {
      for (const UserObservation& obs : batch.observations) {
        report_states.push_back(obs.state);
      }
      double eps_t = 0.0;
      if (!report_states.empty()) {
        switch (config_.allocation.kind) {
          case retrasyn::AllocationKind::kUniform:
            eps_t = config_.epsilon / config_.window;
            break;
          case retrasyn::AllocationKind::kSample:
            eps_t = (t % config_.window == 0) ? config_.epsilon : 0.0;
            break;
          default:
            eps_t = allocator_.Portion(t) * ledger_.RemainingAt(t);
            break;
        }
        eps_t = std::min(eps_t, ledger_.RemainingAt(t));
      }
      if (!(eps_t >= kMinRoundEpsilon)) {
        eps_t = 0.0;
        report_states.clear();
      }
      ledger_.Record(t, report_states.empty() ? 0.0 : eps_t);
      eps_round = eps_t;
    }

    retrasyn::CollectionResult result;
    {
      Tracer::Scope span(tracer_, kCollect, t, states_->size());
      result = collector_.Collect(report_states, eps_round, rng_);
    }
    round.reports = result.num_reports;
    if (result.num_reports > 0) {
      Tracer::Scope span(tracer_, kBenchCheck, t);
      AddZScores(report_states, result);
    }

    size_t num_significant = 0;
    if (result.num_reports > 0) {
      {
        Tracer::Scope span(tracer_, kModelUpdate, t);
        retrasyn::ApplyPostprocess(config_.postprocess, result.frequencies, 1.0);
        if (!collected_once_) model_.ReplaceAll(result.frequencies);
      }
      if (collected_once_) {
        retrasyn::DmuDecision decision;
        {
          Tracer::Scope span(tracer_, kDmu, t);
          decision = retrasyn::SelectSignificantTransitions(
              model_.frequencies(), result.frequencies, eps_round,
              result.num_reports);
        }
        Tracer::Scope span(tracer_, kModelUpdate, t, decision.selected.size());
        model_.UpdateStates(decision.selected, result.frequencies);
        num_significant = decision.selected.size();
      }
      collected_once_ = true;
    }
    round.selected = num_significant;
    if (config_.allocation.kind == retrasyn::AllocationKind::kAdaptive &&
        result.num_reports > 0) {
      allocator_.RecordRound(result.frequencies, num_significant);
    }

    if (model_.initialized()) {
      {
        Tracer::Scope span(tracer_, kSamplerSync, t);
        shadow_cache_.Sync(model_);
      }
      const uint64_t points_before = synthesizer_.total_points();
      const uint64_t cells_before = synthesizer_.cache_stats().cell_rebuilds;
      Tracer::Scope span(tracer_, kSynthesize, t);
      if (!synthesizer_.initialized()) {
        synthesizer_.Initialize(model_, batch.num_active, t, rng_);
      } else {
        synthesizer_.Step(model_, batch.num_active, t, rng_);
      }
      span.set_count(synthesizer_.total_points() - points_before);
      round.cells_rebuilt = synthesizer_.cache_stats().cell_rebuilds - cells_before;
    }
  }

  void AddZScores(const std::vector<StateId>& submitted,
                  const retrasyn::CollectionResult& result) {
    if (collector_.EffectiveOracle(result.epsilon) != retrasyn::OracleKind::kOue) {
      return;
    }
    for (StateId s : submitted) ++true_counts_[s];
    const double n = static_cast<double>(result.num_reports);
    const double p = retrasyn::OueParams::p();
    const double q = retrasyn::OueParams{result.epsilon, states_->size()}.q();
    const double scale = n * (p - q) * (p - q);
    for (size_t s = 0; s < true_counts_.size(); ++s) {
      const double f = true_counts_[s] / n;
      const double var = (f * p * (1 - p) + (1 - f) * q * (1 - q)) / scale;
      const double z = (result.frequencies[s] - f) / std::sqrt(var);
      z_.n += 1.0;
      z_.sum += z;
      z_.sum2 += z * z;
      z_.sum4 += z * z * z * z;
    }
    for (StateId s : submitted) true_counts_[s] = 0;
  }

  void EnsureUser(uint32_t user) {
    if (user < status_.size()) return;
    const size_t size = std::max<size_t>(user + 1, status_.size() * 2);
    status_.resize(size, UserStatus::kUnknown);
  }

  void RetireQuitted(int64_t t) {
    if (!config_.recycle_stream_indices) return;
    while (!quitted_at_.empty() &&
           quitted_at_.front().first <= t - config_.window) {
      for (uint32_t user : quitted_at_.front().second) {
        status_[user] = UserStatus::kUnknown;
      }
      total_retired_ += quitted_at_.front().second.size();
      quitted_at_.pop_front();
    }
  }

  std::vector<uint32_t> PrepareEligible(const TimestampBatch& batch) {
    const int64_t t = batch.t;
    RetireQuitted(t);
    for (const UserObservation& obs : batch.observations) {
      if (obs.is_enter) {
        EnsureUser(obs.user_index);
        status_[obs.user_index] = UserStatus::kActive;
      }
    }
    while (!reported_at_.empty() &&
           reported_at_.front().first <= t - config_.window) {
      for (uint32_t user : reported_at_.front().second) {
        if (status_[user] == UserStatus::kInactive) {
          status_[user] = UserStatus::kActive;
        }
      }
      reported_at_.pop_front();
    }
    std::vector<uint32_t> eligible;
    eligible.reserve(batch.observations.size());
    for (uint32_t i = 0; i < batch.observations.size(); ++i) {
      const UserObservation& obs = batch.observations[i];
      if (obs.user_index >= status_.size() ||
          status_[obs.user_index] != UserStatus::kActive) {
        continue;
      }
      eligible.push_back(i);
    }
    return eligible;
  }

  std::vector<uint32_t> ChooseReporters(const TimestampBatch& batch,
                                        const std::vector<uint32_t>& eligible) {
    const double p = allocator_.Portion(batch.t);
    const uint32_t k = static_cast<uint32_t>(
        std::llround(p * static_cast<double>(eligible.size())));
    if (k == 0) return {};
    if (k >= eligible.size()) return eligible;
    std::vector<uint32_t> picks = rng_.SampleWithoutReplacement(
        static_cast<uint32_t>(eligible.size()), k);
    std::vector<uint32_t> chosen;
    chosen.reserve(picks.size());
    for (uint32_t idx : picks) chosen.push_back(eligible[idx]);
    return chosen;
  }

  void CommitStatuses(const TimestampBatch& batch,
                      const std::vector<uint32_t>& chosen) {
    const int64_t t = batch.t;
    std::vector<uint32_t> reported;
    reported.reserve(chosen.size());
    for (uint32_t i : chosen) {
      const uint32_t user = batch.observations[i].user_index;
      EnsureUser(user);
      status_[user] = UserStatus::kInactive;
      reported.push_back(user);
      tracker_.RecordReport(user, t);
    }
    if (!reported.empty()) reported_at_.emplace_back(t, std::move(reported));
    std::vector<uint32_t> quitted;
    for (const UserObservation& obs : batch.observations) {
      if (obs.is_quit) {
        EnsureUser(obs.user_index);
        status_[obs.user_index] = UserStatus::kQuitted;
        if (config_.recycle_stream_indices) quitted.push_back(obs.user_index);
      }
    }
    if (!quitted.empty()) quitted_at_.emplace_back(t, std::move(quitted));
  }

  EngineCheckpointState Capture() const {
    EngineCheckpointState state;
    state.rng_state = rng_.state();
    state.collected_once = collected_once_;
    state.model_freq = model_.frequencies();
    state.model_initialized = model_.initialized();
    state.live = synthesizer_.live_streams();
    state.finished = synthesizer_.finished_streams();
    state.total_points = synthesizer_.total_points();
    state.synth_initialized = synthesizer_.initialized();
    state.allocator_rounds_recorded = allocator_.rounds_recorded();
    state.allocator_freq_history = allocator_.freq_history();
    state.allocator_ratio_history = allocator_.ratio_history();
    state.ledger_spends = ledger_.spends();
    state.ledger_window_sum = ledger_.window_sum();
    state.ledger_last_t = ledger_.last_t();
    state.ledger_max_window_spend = ledger_.MaxWindowSpend();
    state.tracker_last_report.assign(tracker_.last_reports().begin(),
                                     tracker_.last_reports().end());
    std::sort(state.tracker_last_report.begin(),
              state.tracker_last_report.end());
    state.tracker_violation = tracker_.HasViolation();
    state.tracker_num_reports = tracker_.num_reports();
    state.status.reserve(status_.size());
    for (UserStatus s : status_) state.status.push_back(static_cast<uint8_t>(s));
    state.reported_at = reported_at_;
    state.quitted_at = quitted_at_;
    state.total_retired = total_retired_;
    return state;
  }

  const StateSpace* states_;
  RetraSynConfig config_;
  retrasyn::Rng rng_;
  retrasyn::TransitionCollector collector_;
  retrasyn::GlobalMobilityModel model_;
  retrasyn::Synthesizer synthesizer_;
  /// Synthesizer::Step syncs its own sampler cache; this one is synced
  /// against the same model just before, so its Sync can be timed apart.
  retrasyn::TransitionSamplerCache shadow_cache_;
  retrasyn::PortionAllocator allocator_;
  retrasyn::BudgetLedger ledger_;
  retrasyn::ReportWindowTracker tracker_;
  Tracer* tracer_;
  CheckpointWorker* checkpoints_;
  int64_t checkpoint_every_;
  bool collected_once_ = false;
  std::vector<UserStatus> status_;
  std::deque<std::pair<int64_t, std::vector<uint32_t>>> reported_at_;
  std::deque<std::pair<int64_t, std::vector<uint32_t>>> quitted_at_;
  uint64_t total_retired_ = 0;
  std::vector<std::shared_ptr<const std::vector<CellStream>>> history_;
  std::vector<RoundStats> stats_;
  ZScores z_;
  std::vector<uint32_t> true_counts_;
};

// --- reference runs ----------------------------------------------------------

struct ReferenceRun {
  std::vector<uint64_t> digests;
  double events_per_s = 0.0;
  double round_close_p50_ms = 0.0;
};

/// Drives the shipped engine over the first \p rounds rounds of the
/// workload's inputs (unpaced, no journal) and records the released digests.
ReferenceRun RunReference(const WorkloadSpec& spec, uint64_t seed,
                          int64_t planned_rounds, int64_t rounds, int shards,
                          retrasyn::SyncPolicy sync, Ledger& ledger) {
  ReferenceRun out;
  std::unique_ptr<RoundSource> source =
      MakeSource(spec, seed, planned_rounds, shards);
  UniformGrid grid(spec.box, spec.grid_k);
  StateSpace states(grid);
  RetraSynConfig config = spec.Config(seed);
  config.ingest_shards = shards;
  config.sync_policy = sync;
  auto created = TrajectoryService::Create(states, config);
  if (!ledger.Op(created.ok(), "TrajectoryService::Create")) return out;
  std::unique_ptr<TrajectoryService> service = std::move(created).ValueOrDie();
  RecordingSink sink(grid);
  service->AddSink(&sink);
  std::vector<AdmitSink> admit(static_cast<size_t>(shards),
                               AdmitSink(&service->session()));
  std::vector<int64_t> tick_start;
  const int64_t start = NowNs();
  for (int64_t t = 0; t < rounds; ++t) {
    AdmitRound(*source, t, admit);
    tick_start.push_back(NowNs());
    if (!ledger.Op(service->session().Tick().ok(), "IngestSession::Tick")) break;
  }
  ledger.Op(service->Drain().ok(), "TrajectoryService::Drain");
  const double wall_s = (NowNs() - start) * 1e-9;
  uint64_t accepted = 0;
  for (const AdmitSink& a : admit) {
    accepted += a.accepted;
    ledger.attempted += a.accepted + a.failed;
    ledger.failed += a.failed;
  }
  std::vector<double> close_ms;
  for (int64_t t = 0; t < sink.rounds() && t < rounds; ++t) {
    close_ms.push_back(Ms(sink.recv_ns()[t] - tick_start[t]));
  }
  out.digests = sink.digests();
  out.events_per_s = accepted / wall_s;
  out.round_close_p50_ms = Quantile(close_ms, 0.5);
  return out;
}

// --- span aggregation --------------------------------------------------------

struct KindTotals {
  int64_t dur_ns = 0;
  uint64_t count = 0;
  std::map<int64_t, int64_t> per_round_ns;
};

}  // namespace

int RunTraced(const WorkloadSpec& spec, uint64_t seed, int seconds,
              int64_t main_start_ns) {
  (void)main_start_ns;
  Ledger ledger;
  Tracer tracer;
  const int64_t planned_rounds = spec.PlannedRounds(seconds);
  std::unique_ptr<RoundSource> source =
      MakeSource(spec, seed, planned_rounds, spec.producers);
  const std::string scratch = MakeScratchDir(spec.name, seed, "traced");

  UniformGrid grid(spec.box, spec.grid_k);
  StateSpace states(grid);
  RetraSynConfig config = spec.Config(seed);
  const std::string checkpoint_dir = scratch + "/checkpoint";
  retrasyn::CreateDirIfMissing(checkpoint_dir).CheckOK();
  CheckpointWorker checkpoints(&tracer, checkpoint_dir, grid.Describe());
  auto engine_owned = std::make_unique<TracedEngine>(
      states, config, &tracer, &checkpoints, spec.checkpoint_every);
  TracedEngine* engine = engine_owned.get();
  // The service keeps its journal and checkpoint manager off: the benchmark
  // makes those calls itself below.
  auto created = TrajectoryService::CreateWithEngine(
      states, std::move(engine_owned),
      retrasyn::ServiceOptions::FromConfig(config));
  if (!ledger.Op(created.ok(), "TrajectoryService::CreateWithEngine")) {
    std::fprintf(stderr, "perfbench: %s\n", created.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<TrajectoryService> service = std::move(created).ValueOrDie();
  RecordingSink sink(grid, [&tracer](int64_t t,
                                     const std::function<Status()>& call) {
    Tracer::Scope span(&tracer, kReleaseServer, t);
    return call();
  });
  service->AddSink(&sink);
  retrasyn::IngestSession& session = service->session();

  const int parts = spec.producers;
  retrasyn::CreateDirIfMissing(scratch + "/journal").CheckOK();
  std::vector<std::unique_ptr<retrasyn::JournalWriter>> journals;
  for (int p = 0; p < parts; ++p) {
    retrasyn::JournalOptions options;  // kEveryRound, as the durable workload
    options.segment_bytes = spec.journal_segment_bytes;
    auto writer = retrasyn::JournalWriter::Open(
        scratch + "/journal/" + retrasyn::ShardJournalDirName(p), options);
    if (!ledger.Op(writer.ok(), "JournalWriter::Open")) {
      std::fprintf(stderr, "perfbench: %s\n", writer.status().ToString().c_str());
      return 1;
    }
    journals.push_back(std::move(writer).ValueOrDie());
  }

  struct Part {
    std::vector<Event> events;
    uint32_t located = 0;
    uint64_t accepted = 0;
    uint64_t refused = 0;
    uint64_t journaled = 0;
    uint64_t journal_bytes = 0;
    uint64_t journal_failed = 0;
    uint64_t cell_checksum = 0;  ///< keeps the Locate calls observable
  };
  class BufferSink : public EventSink {
   public:
    explicit BufferSink(std::vector<Event>* out) : out_(out) {}
    void Emit(const Event& e) override { out_->push_back(e); }

   private:
    std::vector<Event>* out_;
  };
  std::vector<Part> part_state(static_cast<size_t>(parts));
  // The durable workload journals every round; elsewhere the journal calls
  // cover the rounds that start within the first kShadowJournalEvents
  // events, which bounds the disk and the read-back on crowd_1m.
  constexpr uint64_t kShadowJournalEvents = 6000000;
  bool journal_round = true;
  int64_t journaled_rounds = 0;
  auto run_part = [&](int64_t t, int p) {
    Part& part = part_state[static_cast<size_t>(p)];
    part.events.clear();
    BufferSink buffer(&part.events);
    {
      Tracer::Scope span(&tracer, kBenchGenerate, t);
      part.located = source->Produce(t, p, parts, buffer);
    }
    {
      Tracer::Scope span(&tracer, kLocate, t);
      uint64_t located = 0;
      uint64_t cell_sum = 0;
      for (const Event& e : part.events) {
        if (e.kind == Event::kQuit) continue;
        cell_sum += grid.Locate(e.p);
        ++located;
      }
      span.set_count(located);
      part.cell_checksum += cell_sum;
    }
    {
      Tracer::Scope span(&tracer, kAdmit, t, part.events.size());
      for (const Event& e : part.events) {
        if (Admit(session, e).ok()) {
          ++part.accepted;
        } else {
          ++part.refused;
        }
      }
    }
    if (!journal_round) return;
    retrasyn::JournalWriter& journal = *journals[static_cast<size_t>(p)];
    const uint64_t bytes_before = journal.bytes_appended();
    Tracer::Scope span(&tracer, kJournalAppend, t, part.events.size());
    for (const Event& e : part.events) {
      const retrasyn::JournalEvent je =
          e.kind == Event::kEnter  ? retrasyn::JournalEvent::Enter(e.user, e.p)
          : e.kind == Event::kMove ? retrasyn::JournalEvent::Move(e.user, e.p)
                                   : retrasyn::JournalEvent::Quit(e.user);
      if (!journal.Append(je).ok()) ++part.journal_failed;
    }
    part.journaled += part.events.size();
    part.journal_bytes += journal.bytes_appended() - bytes_before;
  };

  retrasyn::Rng query_rng(Mix64(seed ^ 0x71756572ull));
  std::vector<int64_t> due_ns, admit_start_ns, tick_start_ns, tick_end_ns;
  std::vector<uint32_t> located;
  const int64_t loop_start = NowNs();
  for (int64_t t = 0; t < planned_rounds; ++t) {
    due_ns.push_back(AwaitRound(spec, loop_start, t));
    admit_start_ns.push_back(NowNs());
    if (parts == 1) {
      run_part(t, 0);
    } else {
      std::vector<std::thread> producers;
      for (int p = 0; p < parts; ++p) producers.emplace_back(run_part, t, p);
      for (std::thread& th : producers) th.join();
    }
    uint32_t round_located = 0;
    for (const Part& part : part_state) round_located += part.located;
    located.push_back(round_located);
    if (journal_round) {
      for (auto& journal : journals) journal->BeginRoundSync();
    }
    tick_start_ns.push_back(NowNs());
    Status tick;
    {
      Tracer::Scope span(&tracer, kTick, t);
      tick = session.Tick();
    }
    tick_end_ns.push_back(NowNs());
    if (!ledger.Op(tick.ok(), "IngestSession::Tick")) {
      std::fprintf(stderr, "perfbench: %s\n", tick.ToString().c_str());
      break;
    }
    if (journal_round) {
      Tracer::Scope span(&tracer, kJournalSync, t);
      for (auto& journal : journals) {
        ledger.Op(journal->Append(retrasyn::JournalEvent::Tick()).ok(),
                  "JournalWriter::Append(Tick)");
      }
      ++journaled_rounds;
      uint64_t total = 0;
      for (const Part& part : part_state) total += part.journaled;
      journal_round = spec.durable || total < kShadowJournalEvents;
    }
    if ((t + 1) % spec.checkpoint_every == 0) {
      checkpoints.PutSession(t + 1, session.SaveCheckpointState());
    }
    ProbeRanges(sink, query_rng, ledger,
                [&](const std::function<uint64_t()>& call) {
                  Tracer::Scope span(&tracer, kRangeQuery, t, 1);
                  return call();
                });
  }
  ledger.Op(service->Drain().ok(), "TrajectoryService::Drain");
  const int64_t drain_end = NowNs();
  const int64_t rounds = static_cast<int64_t>(tick_start_ns.size());

  // A shutdown checkpoint, so every run has one to decode.
  if (rounds % spec.checkpoint_every != 0) {
    engine->CaptureCheckpoint(rounds);
    checkpoints.PutSession(rounds, session.SaveCheckpointState());
  }

  uint64_t accepted = 0, journaled = 0, journal_bytes = 0;
  for (const Part& part : part_state) {
    accepted += part.accepted;
    journaled += part.journaled;
    journal_bytes += part.journal_bytes;
    ledger.attempted += part.accepted + part.refused + part.journaled;
    ledger.failed += part.refused + part.journal_failed;
  }

  // --- output checks (as in the timed run) --------------------------------
  CheckReleases(sink, located, ledger);
  CheckPrivacy(spec, config.epsilon, engine->tracker(), engine->ledger(),
               ledger);
  {
    auto snap = service->SnapshotRelease();
    if (ledger.Op(snap.ok(), "TrajectoryService::SnapshotRelease")) {
      const std::string diff = CheckSnapshotAgainstDigests(
          snap.value(), states.num_cells(), sink.digests());
      ledger.Check(diff.empty(), diff);
    }
  }

  // --- durable layers read back --------------------------------------------
  checkpoints.Finish();
  ledger.Op(checkpoints.status.ok(), "checkpoint write");
  uint64_t scanned = 0;
  for (int p = 0; p < parts; ++p) {
    ledger.Op(journals[static_cast<size_t>(p)]->Close().ok(), "JournalWriter::Close");
    Tracer::Scope span(&tracer, kJournalScan, -1);
    auto scan = retrasyn::JournalReader::ScanDir(
        scratch + "/journal/" + retrasyn::ShardJournalDirName(p));
    if (ledger.Op(scan.ok(), "JournalReader::ScanDir")) {
      scanned += scan.value().events.size();
      span.set_count(scan.value().events.size());
    }
  }
  const uint64_t boundaries = static_cast<uint64_t>(journaled_rounds * parts);
  ledger.Check(scanned == journaled + boundaries,
               "journal scan returned " + std::to_string(scanned) +
                   " records, " +
                   std::to_string(journaled + boundaries) + " appended");
  uint64_t fingerprint = 0;
  auto framed = retrasyn::ReadFramedFile(
      checkpoints.last_file, retrasyn::kCheckpointMagic, &fingerprint);
  if (ledger.Op(framed.ok(), "ReadFramedFile")) {
    retrasyn::CheckpointState decoded;
    Status st;
    {
      Tracer::Scope span(&tracer, kCheckpointDecode, -1, framed.value().size());
      st = retrasyn::DecodeCheckpointBody(framed.value().data(),
                                          framed.value().size(), &decoded);
    }
    ledger.Op(st.ok(), "DecodeCheckpointBody");
    ledger.Check(decoded.round == checkpoints.last_round,
                 "decoded checkpoint is not the last one written");
  }

  // --- method checks -------------------------------------------------------
  const ZScores z = engine->zscores();
  const double z_mean = z.sum / z.n;
  const double z_ms = z.sum2 / z.n;
  const double se_mean = std::sqrt(z_ms / z.n);
  const double se_ms = std::sqrt(std::max(0.0, z.sum4 / z.n - z_ms * z_ms) / z.n);
  ledger.Check(z.n > 0 && std::fabs(z_mean) <= 5 * se_mean &&
                   std::fabs(z_ms - 1.0) <= 5 * se_ms,
               "OUE z-scores: mean " + std::to_string(z_mean) +
                   ", mean square " + std::to_string(z_ms) + " over " +
                   std::to_string(z.n) + " state-rounds");

  // --- per-layer metrics ---------------------------------------------------
  std::vector<KindTotals> totals(kNumSpanKinds);
  std::map<std::string, double> layer_self_ms;
  for (const Tracer::ThreadLog* log : tracer.Logs()) {
    const std::vector<int64_t> self = SelfTimes(*log);
    for (size_t i = 0; i < log->spans.size(); ++i) {
      const Span& s = log->spans[i];
      KindTotals& k = totals[s.kind];
      k.dur_ns += s.end_ns - s.start_ns;
      k.count += s.count;
      if (s.round >= 0) k.per_round_ns[s.round] += s.end_ns - s.start_ns;
      layer_self_ms[SpanLayer(s.kind)] += Ms(self[i]);
    }
  }
  auto round_median_ms = [&](SpanKind kind) {
    std::vector<double> v;
    for (const auto& [round, ns] : totals[kind].per_round_ns) v.push_back(Ms(ns));
    return Quantile(v, 0.5);
  };
  auto per_unit_ns = [&](SpanKind kind) {
    return totals[kind].count == 0
               ? 0.0
               : static_cast<double>(totals[kind].dur_ns) / totals[kind].count;
  };
  const std::vector<RoundStats>& rs = engine->stats();
  auto mean_of = [&](uint64_t RoundStats::*field) {
    double sum = 0.0;
    for (const RoundStats& r : rs) sum += static_cast<double>(r.*field);
    return rs.empty() ? 0.0 : sum / rs.size();
  };
  std::vector<double> wait_ms, close_ms, lag_ms;
  int64_t busy_ns = 0;  // as in the timed run: the open loop's rate base
  for (int64_t t = 0; t < std::min(rounds, sink.rounds()); ++t) {
    const int64_t recv = sink.recv_ns()[t];
    // kInline delivers inside Tick: there the wait starts when the engine
    // step ends.
    const int64_t from =
        recv > tick_end_ns[t] ? tick_end_ns[t] : rs[t].observe_end_ns;
    wait_ms.push_back(Ms(recv - from));
    close_ms.push_back(Ms(recv - tick_start_ns[t]));
    lag_ms.push_back(Ms(recv - due_ns[t]));
    busy_ns += recv - admit_start_ns[t];
  }
  double checkpoint_bytes = 0.0;
  for (uint64_t b : checkpoints.bytes) checkpoint_bytes += b;
  if (!checkpoints.bytes.empty()) checkpoint_bytes /= checkpoints.bytes.size();

  std::vector<Metric> metrics = {
      {"service.admit_ns_per_event", per_unit_ns(kAdmit), "ns"},
      {"service.tick_ms", round_median_ms(kTick), "ms"},
      {"service.release_wait_ms", Quantile(wait_ms, 0.5), "ms"},
      {"geo.locate_ns", per_unit_ns(kLocate), "ns"},
      {"ldp.collect_ms", round_median_ms(kCollect), "ms"},
      {"ldp.collect_ns_per_state", per_unit_ns(kCollect), "ns"},
      {"ldp.reports_per_round", mean_of(&RoundStats::reports), "count"},
      {"core.model_update_ms", round_median_ms(kModelUpdate), "ms"},
      {"core.dmu_ms", round_median_ms(kDmu), "ms"},
      {"core.dmu_selected_per_round", mean_of(&RoundStats::selected), "count"},
      {"core.sampler_sync_ms", round_median_ms(kSamplerSync), "ms"},
      {"core.sampler_cells_rebuilt_per_round",
       mean_of(&RoundStats::cells_rebuilt), "count"},
      {"core.synthesize_ms", round_median_ms(kSynthesize), "ms"},
      {"core.synthesize_ns_per_point", per_unit_ns(kSynthesize), "ns"},
      {"core.release_server_ms", round_median_ms(kReleaseServer), "ms"},
      {"core.range_query_us", per_unit_ns(kRangeQuery) * 1e-3, "us"},
      {"core.snapshot_ms", Ms(totals[kSnapshot].dur_ns), "ms"},
      {"journal.append_ns_per_event", per_unit_ns(kJournalAppend), "ns"},
      {"journal.sync_ms", round_median_ms(kJournalSync), "ms"},
      {"journal.bytes_per_event",
       journaled == 0 ? 0.0 : static_cast<double>(journal_bytes) / journaled,
       "bytes"},
      {"journal.scan_ms", Ms(totals[kJournalScan].dur_ns), "ms"},
      {"checkpoint.encode_ms", round_median_ms(kCheckpointEncode), "ms"},
      {"checkpoint.write_ms", round_median_ms(kCheckpointWrite), "ms"},
      {"checkpoint.bytes", checkpoint_bytes, "bytes"},
      {"checkpoint.decode_ms", Ms(totals[kCheckpointDecode].dur_ns), "ms"},
  };

  // The traced service is done: free it before the reference runs.
  const double traced_peak_mib = ProcStatusMiB("VmHWM");
  service.reset();

  // The traced engine releases what the shipped engine releases; on crowd_1m
  // the sharded async release also equals a single-shard inline one.
  const int64_t ref_rounds =
      std::min<int64_t>(rounds, spec.name == "crowd_1m" ? 10 : 300);
  ReferenceRun shipped = RunReference(spec, seed, planned_rounds, ref_rounds,
                                      spec.producers, spec.sync, ledger);
  std::vector<uint64_t> traced_prefix(
      sink.digests().begin(),
      sink.digests().begin() + std::min<int64_t>(ref_rounds, sink.rounds()));
  ledger.Check(shipped.digests == traced_prefix,
               "traced engine's release differs from the shipped engine's");
  // On crowd_1m two single-shard, single-producer runs follow: async (the
  // sharding baseline, all else equal) and inline (the determinism check).
  ReferenceRun single_async;
  ReferenceRun single;
  if (spec.producers > 1) {
    single_async = RunReference(spec, seed, planned_rounds, ref_rounds, 1,
                                spec.sync, ledger);
    single = RunReference(spec, seed, planned_rounds, ref_rounds, 1,
                          retrasyn::SyncPolicy::kInline, ledger);
    ledger.Check(single_async.digests == shipped.digests &&
                     single.digests == shipped.digests,
                 "sharded async release differs from single-shard runs");
  }

  const std::string trace_path =
      ".bench_out/trace-" + spec.name + "-s" + std::to_string(seed) + ".jsonl";
  ledger.Check(tracer.WriteJsonLines(trace_path), "could not write " + trace_path);
  (void)retrasyn::RemoveDirTree(scratch);
  (void)retrasyn::SyncDir(".bench_out");

  std::string self_json;
  for (const auto& [layer, ms] : layer_self_ms) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.4f", self_json.empty() ? "" : ", ",
                  layer.c_str(), rounds > 0 ? ms / rounds : 0.0);
    self_json += buf;
  }
  std::fprintf(
      stderr,
      "perfbench-context {\"mode\": \"traced\", \"workload\": \"%s\", "
      "\"seed\": %llu, \"rounds\": %lld, \"events\": %llu, "
      "\"events_per_s\": %.1f, \"round_close_p50_ms\": %.4f, "
      "\"release_lag_p50_ms\": %.4f, \"z_mean\": %.6f, \"z_mean_square\": %.6f, "
      "\"z_state_rounds\": %.0f, \"reference_rounds\": %lld, "
      "\"shipped_events_per_s\": %.1f, \"shipped_round_close_p50_ms\": %.4f, "
      "\"single_shard_async_events_per_s\": %.1f, "
      "\"single_shard_async_round_close_p50_ms\": %.4f, "
      "\"single_shard_inline_events_per_s\": %.1f, "
      "\"single_shard_inline_round_close_p50_ms\": %.4f, "
      "\"generate_ms_per_round\": %.4f, "
      "\"peak_rss_mib\": %.1f, \"self_ms_per_round\": {%s}, "
      "\"trace\": \"%s\"}\n",
      spec.name.c_str(), static_cast<unsigned long long>(seed),
      static_cast<long long>(rounds), static_cast<unsigned long long>(accepted),
      accepted / ((spec.interval_ms > 0.0 ? busy_ns : drain_end - loop_start) *
                  1e-9),
      Quantile(close_ms, 0.5),
      Quantile(lag_ms, 0.5), z_mean, z_ms, z.n,
      static_cast<long long>(ref_rounds), shipped.events_per_s,
      shipped.round_close_p50_ms, single_async.events_per_s,
      single_async.round_close_p50_ms, single.events_per_s,
      single.round_close_p50_ms, round_median_ms(kBenchGenerate),
      traced_peak_mib, self_json.c_str(),
      trace_path.c_str());
  PrintResult(ledger, metrics);
  return 0;
}

}  // namespace perfbench
