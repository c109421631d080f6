// The timed run: drives the shipped service through one workload with no
// instrumentation of its own beyond clock stamps at the public API, then
// checks the outputs and prints the end-to-end metrics.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/file_io.h"
#include "geo/grid.h"
#include "geo/state_space.h"
#include "harness.h"
#include "runs.h"
#include "service/trajectory_service.h"

namespace perfbench {

using retrasyn::RetraSynConfig;
using retrasyn::StateSpace;
using retrasyn::Status;
using retrasyn::TrajectoryService;
using retrasyn::UniformGrid;

namespace {

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

}  // namespace

int RunTimed(const WorkloadSpec& spec, uint64_t seed, int seconds,
             int64_t main_start_ns) {
  Ledger ledger;
  const bool open_loop = spec.interval_ms > 0.0;
  const int64_t planned_rounds = spec.PlannedRounds(seconds);

  // --- the benchmark's own preparation, not timed ---------------------------
  // Input generation (stream/network_generator on durable_paced, the 1M
  // slots on crowd_1m) and the scratch directory.
  const int64_t gen_start = NowNs();
  const int64_t gen_cpu_start = ProcessCpuNs();
  std::unique_ptr<RoundSource> source =
      MakeSource(spec, seed, planned_rounds, spec.producers);
  const int64_t gen_ns = NowNs() - gen_start;
  const double rss_base_mib = ProcStatusMiB("VmRSS");
  const std::string scratch = MakeScratchDir(spec.name, seed, "timed");

  // --- set-up: grid, state space, Create, up to the first accepted event ---
  const int64_t setup_cpu_start = ProcessCpuNs();
  const int64_t setup_start = NowNs();
  auto grid = std::make_unique<UniformGrid>(spec.box, spec.grid_k);
  auto states = std::make_unique<StateSpace>(*grid);
  const int64_t states_built = NowNs();
  RetraSynConfig config = spec.Config(seed);
  if (spec.durable) {
    config.journal_dir = scratch + "/journal";
    config.checkpoint_dir = scratch + "/checkpoint";
    config.checkpoint_every_rounds = spec.checkpoint_every;
    config.journal_segment_bytes = spec.journal_segment_bytes;
  }
  auto created = TrajectoryService::Create(*states, config);
  const int64_t service_created = NowNs();
  if (!ledger.Op(created.ok(), "TrajectoryService::Create")) {
    std::fprintf(stderr, "perfbench: %s\n", created.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<TrajectoryService> service = std::move(created).ValueOrDie();
  RecordingSink sink(*grid);
  service->AddSink(&sink);
  retrasyn::IngestSession& session = service->session();
  std::vector<AdmitSink> admit(static_cast<size_t>(spec.producers),
                               AdmitSink(&session));

  // --- the measured loop -------------------------------------------------
  retrasyn::Rng query_rng(Mix64(seed ^ 0x71756572ull));
  std::vector<int64_t> due_ns, admit_start_ns, tick_start_ns, lateness_ns;
  std::vector<uint32_t> located;
  const int64_t loop_start = NowNs();
  for (int64_t t = 0; t < planned_rounds; ++t) {
    due_ns.push_back(AwaitRound(spec, loop_start, t));
    admit_start_ns.push_back(NowNs());
    if (open_loop) lateness_ns.push_back(admit_start_ns.back() - due_ns.back());
    located.push_back(AdmitRound(*source, t, admit));
    tick_start_ns.push_back(NowNs());
    const Status tick = session.Tick();
    if (!ledger.Op(tick.ok(), "IngestSession::Tick")) {
      std::fprintf(stderr, "perfbench: %s\n", tick.ToString().c_str());
      break;
    }
    // A consumer reading the release server while the stream runs.
    ProbeRanges(sink, query_rng, ledger,
                [](const std::function<uint64_t()>& call) { return call(); });
  }
  const Status drained = service->Drain();
  ledger.Op(drained.ok(), "TrajectoryService::Drain");
  const int64_t drain_end = NowNs();

  uint64_t accepted = 0;
  int64_t first_ok_ns = 0;
  int64_t first_ok_cpu_ns = 0;
  for (const AdmitSink& a : admit) {
    accepted += a.accepted;
    ledger.attempted += a.accepted + a.failed;
    ledger.failed += a.failed;
    if (a.failed > 0) {
      std::fprintf(stderr, "perfbench: event refused: %s\n", a.first_error.c_str());
    }
    if (a.first_ok_ns > 0 && (first_ok_ns == 0 || a.first_ok_ns < first_ok_ns)) {
      first_ok_ns = a.first_ok_ns;
      first_ok_cpu_ns = a.first_ok_cpu_ns;
    }
  }
  const int64_t rounds = static_cast<int64_t>(tick_start_ns.size());

  // --- output checks -----------------------------------------------------
  CheckReleases(sink, located, ledger);
  const retrasyn::RetraSynEngine* engine = service->retrasyn_engine();
  CheckPrivacy(spec, config.epsilon, engine->report_tracker(),
               engine->budget_ledger(), ledger);
  const retrasyn::ComponentTimes times = engine->component_times();
  const retrasyn::IngestStats ingest = service->ingest_stats();
  // The service's own latency histograms (p50, ms), for comparison with the
  // traced layer times.
  std::string telemetry_json;
  for (const retrasyn::MetricSample& m : service->telemetry().metrics) {
    if (m.kind != retrasyn::MetricKind::kHistogram || m.histogram.count == 0) {
      continue;
    }
    char entry[160];
    std::snprintf(entry, sizeof(entry), "%s\"%s\": %.4f",
                  telemetry_json.empty() ? "" : ", ", m.name.c_str(),
                  m.histogram.Percentile(0.5) * 1e3);
    telemetry_json += entry;
  }

  // --- snapshot ------------------------------------------------------------
  // One call: later calls in the same process reuse the first one's freed
  // memory and read faster (34, 26, 12 ms on tdrive_hires), so a median of
  // repeats is a different, noisier figure than the first call.
  const int64_t snap_start = NowNs();
  auto snap = service->SnapshotRelease();
  const double snapshot_s = (NowNs() - snap_start) * 1e-9;
  if (!ledger.Op(snap.ok(), "TrajectoryService::SnapshotRelease")) {
    std::fprintf(stderr, "perfbench: %s\n", snap.status().ToString().c_str());
    return 1;
  }
  double hwm_mib = ProcStatusMiB("VmHWM");
  const double snapshot_hwm_mib = hwm_mib;

  // --- restart -------------------------------------------------------------
  double recover_s = 0.0;
  service.reset();
  if (spec.durable) {
    const int64_t rec_start = NowNs();
    auto recovered = TrajectoryService::Recover(*states, config);
    recover_s = (NowNs() - rec_start) * 1e-9;
    if (ledger.Op(recovered.ok(), "TrajectoryService::Recover")) {
      std::unique_ptr<TrajectoryService> again = std::move(recovered).ValueOrDie();
      ledger.Op(again->Drain().ok(), "TrajectoryService::Drain");
      auto snap2 = again->SnapshotRelease();
      if (ledger.Op(snap2.ok(), "TrajectoryService::SnapshotRelease")) {
        const std::string diff = CompareSnapshots(snap.value(), snap2.value());
        ledger.Check(diff.empty(), "recovered snapshot differs: " + diff);
      }
      hwm_mib = std::max(hwm_mib, ProcStatusMiB("VmHWM"));
    } else {
      std::fprintf(stderr, "perfbench: %s\n",
                   recovered.status().ToString().c_str());
    }
  } else {
    // Without a journal a restart rebuilds the deployment from nothing:
    // grid, state space and a fresh service (the median of 101).
    std::vector<double> restarts;
    for (int i = 0; i < 101; ++i) {
      const int64_t start = NowNs();
      UniformGrid g(spec.box, spec.grid_k);
      StateSpace s(g);
      auto fresh = TrajectoryService::Create(s, config);
      restarts.push_back((NowNs() - start) * 1e-9);
      ledger.Op(fresh.ok(), "TrajectoryService::Create");
    }
    recover_s = Quantile(restarts, 0.5);
  }

  const std::string snap_diff = CheckSnapshotAgainstDigests(
      snap.value(), states->num_cells(), sink.digests());
  ledger.Check(snap_diff.empty(), snap_diff);
  // Commit the deletions now, not during the next run's set-up.
  retrasyn::RemoveDirTree(scratch).CheckOK();
  retrasyn::SyncDir(".bench_out").CheckOK();

  // --- metrics -------------------------------------------------------------
  std::vector<double> close_ms, lag_ms;
  int64_t busy_ns = 0;
  for (int64_t t = 0; t < std::min(rounds, sink.rounds()); ++t) {
    close_ms.push_back(Ms(sink.recv_ns()[t] - tick_start_ns[t]));
    lag_ms.push_back(Ms(sink.recv_ns()[t] - due_ns[t]));
    busy_ns += sink.recv_ns()[t] - admit_start_ns[t];
  }
  // The CPU time the process spent from its start (loading included) to the
  // first accepted event, less the benchmark's preparation. CPU time, not
  // wall time: on durable_paced Create waits on a few directory fsyncs whose
  // latency ranged over 0.2-2.5 ms per call here, noise that would drown any
  // change in the set-up's own work. The wall-clock parts are in the context.
  const double setup_s =
      (first_ok_cpu_ns - (setup_cpu_start - gen_cpu_start)) * 1e-9;
  const double setup_wall_s =
      ((gen_start - main_start_ns) + (first_ok_ns - setup_start)) * 1e-9;
  // A closed loop keeps the service busy from the first admission to
  // Drain(); an open loop's wall clock is its schedule, so there the rate is
  // taken over the service's busy time: each round's admission and close.
  const double events_per_s =
      static_cast<double>(accepted) /
      ((open_loop ? busy_ns : drain_end - loop_start) * 1e-9);
  std::vector<Metric> metrics = {
      {"setup_s", setup_s, "s"},
      {"events_per_s", events_per_s, "events/s"},
      {"round_close_p50_ms", Quantile(close_ms, 0.5), "ms"},
      {"round_close_p99_ms", Quantile(close_ms, 0.99), "ms"},
      {"release_lag_p50_ms", Quantile(lag_ms, 0.5), "ms"},
      {"release_lag_p99_ms", Quantile(lag_ms, 0.99), "ms"},
      {"snapshot_s", snapshot_s, "s"},
      {"recover_s", recover_s, "s"},
      {"peak_rss_mb", hwm_mib - rss_base_mib, "MiB"},
  };

  // Context for the README: run shape, generator lateness, the engine's own
  // component_times() and the ingest stats.
  std::vector<double> late_ms;
  for (int64_t ns : lateness_ns) late_ms.push_back(Ms(ns));
  std::fprintf(
      stderr,
      "perfbench-context {\"mode\": \"timed\", \"workload\": \"%s\", "
      "\"seed\": %llu, \"rounds\": %lld, \"events\": %llu, \"producers\": %d, "
      "\"wall_events_per_s\": %.1f, "
      "\"input_gen_s\": %.4f, \"generator_late_p50_ms\": %.4f, "
      "\"generator_late_max_ms\": %.4f, \"engine_user_side_ms\": %.4f, "
      "\"engine_model_construction_ms\": %.4f, \"engine_dmu_ms\": %.4f, "
      "\"engine_synthesis_ms\": %.4f, \"ingest_seal_ms_per_round\": %.4f, "
      "\"ingest_merge_ms_per_round\": %.4f, "
      "\"ingest_commit_ms_per_round\": %.4f, \"setup_flags_s\": %.6f, "
      "\"setup_wall_s\": %.6f, \"setup_grid_states_s\": %.6f, "
      "\"setup_create_s\": %.6f, "
      "\"rss_base_mib\": %.1f, \"hwm_after_snapshot_mib\": %.1f, "
      "\"hwm_end_mib\": %.1f, \"telemetry_p50_ms\": {%s}}\n",
      spec.name.c_str(), static_cast<unsigned long long>(seed),
      static_cast<long long>(rounds), static_cast<unsigned long long>(accepted),
      spec.producers,
      static_cast<double>(accepted) / ((drain_end - loop_start) * 1e-9),
      gen_ns * 1e-9, Quantile(late_ms, 0.5),
      late_ms.empty() ? 0.0 : *std::max_element(late_ms.begin(), late_ms.end()),
      times.user_side.Mean() * 1e3, times.model_construction.Mean() * 1e3,
      times.dmu.Mean() * 1e3, times.synthesis.Mean() * 1e3,
      rounds > 0 ? ingest.seal_seconds * 1e3 / rounds : 0.0,
      rounds > 0 ? ingest.merge_seconds * 1e3 / rounds : 0.0,
      rounds > 0 ? ingest.commit_seconds * 1e3 / rounds : 0.0,
      (gen_start - main_start_ns) * 1e-9, setup_wall_s,
      (states_built - setup_start) * 1e-9,
      (service_created - states_built) * 1e-9, rss_base_mib, snapshot_hwm_mib,
      hwm_mib, telemetry_json.c_str());
  PrintResult(ledger, metrics);
  return 0;
}

}  // namespace perfbench
