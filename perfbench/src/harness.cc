#include "harness.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/file_io.h"
#include "metrics/queries.h"

namespace perfbench {

using retrasyn::MutexLock;
using retrasyn::Status;

Status Admit(retrasyn::IngestSession& session, const Event& e) {
  switch (e.kind) {
    case Event::kEnter:
      return session.Enter(e.user, e.p);
    case Event::kMove:
      return session.Move(e.user, e.p);
    case Event::kQuit:
      break;
  }
  return session.Quit(e.user);
}

void AdmitSink::Emit(const Event& e) {
  const Status st = Admit(*session_, e);
  if (st.ok()) {
    ++accepted;
    if (first_ok_ns == 0) {
      first_ok_ns = NowNs();
      first_ok_cpu_ns = ProcessCpuNs();
    }
  } else if (failed++ == 0) {
    first_error = st.ToString();
  }
}

uint32_t AdmitRound(RoundSource& source, int64_t t,
                    std::vector<AdmitSink>& sinks) {
  const int parts = static_cast<int>(sinks.size());
  if (parts == 1) return source.Produce(t, 0, 1, sinks[0]);
  std::vector<uint32_t> located(sinks.size(), 0);
  std::vector<std::thread> producers;
  producers.reserve(sinks.size());
  for (int p = 0; p < parts; ++p) {
    producers.emplace_back(
        [&, p] { located[p] = source.Produce(t, p, parts, sinks[p]); });
  }
  for (std::thread& th : producers) th.join();
  uint32_t total = 0;
  for (uint32_t n : located) total += n;
  return total;
}

RecordingSink::RecordingSink(
    const retrasyn::UniformGrid& grid,
    std::function<Status(int64_t, const std::function<Status()>&)>
        around_server)
    : grid_(&grid),
      around_server_(std::move(around_server)),
      server_(grid, kRetention) {}

Status RecordingSink::OnRound(const retrasyn::RoundRelease& round) {
  const int64_t now = NowNs();
  uint64_t sum = 0;
  for (uint32_t c : round.density) sum += c;
  if (round.t != rounds()) ++order_errors_;
  if (sum != round.active) ++sum_errors_;
  recv_ns_.push_back(now);
  active_.push_back(round.active);
  digests_.push_back(DigestCounts(round.density));
  MutexLock lock(mu_);
  auto forward = [this, &round]() NO_THREAD_SAFETY_ANALYSIS {
    return server_.OnRound(round);
  };
  Status st = around_server_ ? around_server_(round.t, forward) : forward();
  if (!st.ok() && server_status_.ok()) server_status_ = st;
  ring_.push_back(round.density);
  if (static_cast<int64_t>(ring_.size()) > kRing) ring_.pop_front();
  delivered_ = round.t + 1;
  return st;
}

bool RecordingSink::ProbeRange(
    retrasyn::Rng& rng, std::string* why,
    const std::function<uint64_t(const std::function<uint64_t()>&)>& timed) {
  MutexLock lock(mu_);
  if (ring_.empty()) return true;
  const uint32_t k = grid_->k();
  retrasyn::RangeQuery q;
  q.row_lo = static_cast<uint32_t>(rng.UniformInt(k));
  q.row_hi = std::min<uint32_t>(
      k - 1, q.row_lo + static_cast<uint32_t>(rng.UniformInt(k / 4 + 1)));
  q.col_lo = static_cast<uint32_t>(rng.UniformInt(k));
  q.col_hi = std::min<uint32_t>(
      k - 1, q.col_lo + static_cast<uint32_t>(rng.UniformInt(k / 4 + 1)));
  const int64_t span =
      1 + static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(ring_.size())));
  q.t_end = delivered_;
  q.t_start = delivered_ - span;
  uint64_t expected = 0;
  for (int64_t t = q.t_start; t < q.t_end; ++t) {
    const std::vector<uint32_t>& d =
        ring_[ring_.size() - static_cast<size_t>(delivered_ - t)];
    for (uint32_t r = q.row_lo; r <= q.row_hi; ++r) {
      for (uint32_t c = q.col_lo; c <= q.col_hi; ++c) {
        expected += d[grid_->Cell(r, c)];
      }
    }
  }
  const uint64_t got =
      timed([&]() NO_THREAD_SAFETY_ANALYSIS { return server_.RangeCount(q); });
  if (got != expected) {
    *why = "RangeCount over rows [" + std::to_string(q.row_lo) + "," +
           std::to_string(q.row_hi) + "] cols [" + std::to_string(q.col_lo) +
           "," + std::to_string(q.col_hi) + "] rounds [" +
           std::to_string(q.t_start) + "," + std::to_string(q.t_end) +
           ") answered " + std::to_string(got) + ", pushed densities sum to " +
           std::to_string(expected);
    return false;
  }
  return true;
}

int64_t AwaitRound(const WorkloadSpec& spec, int64_t loop_start, int64_t t) {
  if (spec.interval_ms <= 0.0) return NowNs();
  const int64_t due =
      loop_start + std::llround(static_cast<double>(t) * spec.interval_ms * 1e6);
  const int64_t now = NowNs();
  if (now < due) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
  return due;
}

void ProbeRanges(
    RecordingSink& sink, retrasyn::Rng& rng, Ledger& ledger,
    const std::function<uint64_t(const std::function<uint64_t()>&)>& timed) {
  for (int q = 0; q < 2; ++q) {
    std::string why;
    const bool match = sink.ProbeRange(rng, &why, timed);
    ++ledger.attempted;
    ledger.Check(match, why);
  }
}

void CheckReleases(const RecordingSink& sink,
                   const std::vector<uint32_t>& located, Ledger& ledger) {
  const int64_t rounds = static_cast<int64_t>(located.size());
  ledger.Check(sink.rounds() == rounds,
               "sink received " + std::to_string(sink.rounds()) + " of " +
                   std::to_string(rounds) + " rounds");
  ledger.Check(sink.order_errors() == 0, "rounds delivered out of order");
  ledger.Check(sink.sum_errors() == 0,
               "a round's density does not sum to its population");
  ledger.Check(sink.server_status().ok(), "ReleaseServer::OnRound failed");
  for (int64_t t = 0; t < std::min(rounds, sink.rounds()); ++t) {
    if (sink.active()[t] != located[t]) {
      ledger.Check(false, "round " + std::to_string(t) + " released " +
                              std::to_string(sink.active()[t]) +
                              " synthetic users for " +
                              std::to_string(located[t]) + " active users");
      return;
    }
  }
}

void CheckPrivacy(const WorkloadSpec& spec, double epsilon,
                  const retrasyn::ReportWindowTracker& tracker,
                  const retrasyn::BudgetLedger& budget, Ledger& ledger) {
  if (spec.division == retrasyn::DivisionStrategy::kPopulation) {
    ledger.Check(!tracker.HasViolation(),
                 "a user reported twice within one window");
  } else {
    ledger.Check(budget.MaxWindowSpend() <= epsilon * (1.0 + 1e-9),
                 "window spend " + std::to_string(budget.MaxWindowSpend()) +
                     " exceeds epsilon");
  }
}

std::string CheckSnapshotAgainstDigests(const retrasyn::CellStreamSet& snapshot,
                                        uint32_t num_cells,
                                        const std::vector<uint64_t>& digests) {
  const int64_t rounds = static_cast<int64_t>(digests.size());
  if (snapshot.num_timestamps() != rounds) {
    return "snapshot horizon " + std::to_string(snapshot.num_timestamps()) +
           " != " + std::to_string(rounds) + " delivered rounds";
  }
  std::vector<uint32_t> counts(static_cast<size_t>(rounds) * num_cells, 0);
  for (const retrasyn::CellStream& s : snapshot.streams()) {
    for (size_t i = 0; i < s.cells.size(); ++i) {
      ++counts[static_cast<size_t>(s.enter_time + static_cast<int64_t>(i)) *
                   num_cells +
               s.cells[i]];
    }
  }
  std::vector<uint32_t> round_counts(num_cells);
  for (int64_t t = 0; t < rounds; ++t) {
    std::copy(counts.begin() + t * num_cells,
              counts.begin() + (t + 1) * num_cells, round_counts.begin());
    if (DigestCounts(round_counts) != digests[static_cast<size_t>(t)]) {
      return "snapshot cell counts at t=" + std::to_string(t) +
             " differ from the density pushed to the sink";
    }
  }
  return "";
}

std::string CompareSnapshots(const retrasyn::CellStreamSet& a,
                             const retrasyn::CellStreamSet& b) {
  if (a.num_timestamps() != b.num_timestamps()) return "horizons differ";
  if (a.streams().size() != b.streams().size()) {
    return "stream counts differ (" + std::to_string(a.streams().size()) +
           " vs " + std::to_string(b.streams().size()) + ")";
  }
  for (size_t i = 0; i < a.streams().size(); ++i) {
    if (a.streams()[i].enter_time != b.streams()[i].enter_time ||
        a.streams()[i].cells != b.streams()[i].cells) {
      return "stream " + std::to_string(i) + " differs";
    }
  }
  return "";
}

std::string MakeScratchDir(const std::string& workload, uint64_t seed,
                           const char* tag) {
  retrasyn::CreateDirIfMissing(".bench_out").CheckOK();
  const std::string dir = ".bench_out/" + workload + "-" + tag + "-s" +
                          std::to_string(seed) + "-p" +
                          std::to_string(::getpid());
  (void)retrasyn::RemoveDirTree(dir);
  retrasyn::CreateDirIfMissing(dir).CheckOK();
  // Settle pending metadata (an earlier run's deletions included) before
  // anything is timed, so the set-up's own fsyncs pay only for themselves.
  retrasyn::SyncDir(".bench_out").CheckOK();
  retrasyn::SyncDir(dir).CheckOK();
  return dir;
}

}  // namespace perfbench
