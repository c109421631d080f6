#include "inputs.h"

#include <algorithm>
#include <cmath>

#include "common.h"
#include "common/logging.h"
#include "common/rng.h"
#include "service/ingest_session.h"
#include "stream/network_generator.h"

namespace perfbench {

using retrasyn::BoundingBox;
using retrasyn::Point;
using retrasyn::Rng;

retrasyn::RetraSynConfig WorkloadSpec::Config(uint64_t seed) const {
  retrasyn::RetraSynConfig config;
  config.seed = seed;
  config.division = division;
  config.sync_policy = sync;
  config.ingest_shards = producers;
  config.lambda = lambda;
  return config;
}

int64_t WorkloadSpec::PlannedRounds(int seconds) const {
  if (interval_ms <= 0.0) return std::llround(seconds * rounds_per_second);
  return std::llround(seconds * 1000.0 / interval_ms) + checkpoint_every / 2;
}

bool LookupWorkload(const std::string& name, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "tdrive_hires") {
    // Collection-bound: |S| = 44,292 binomial pairs per round against only
    // ~3.5k admitted events.
    s.box = BoundingBox{0.0, 0.0, 30000.0, 30000.0};
    s.grid_k = 64;
    s.checkpoint_every = 100;
    s.rounds_per_second = 90.0;
  } else if (name == "crowd_1m") {
    // Ingest-bound: ~1M admitted events per round against |S| = 2,628.
    s.box = BoundingBox{0.0, 0.0, 16000.0, 16000.0};
    s.grid_k = 16;
    s.sync = retrasyn::SyncPolicy::kAsync;
    s.producers = std::clamp(retrasyn::ThreadPool::DefaultConcurrency(), 1, 8);
    s.checkpoint_every = 40;
    s.lambda = 42.7;
    s.rounds_per_second = 6.0;
  } else if (name == "durable_paced") {
    // The only workload that journals, checkpoints and recovers.
    s.box = BoundingBox{0.0, 0.0, 10000.0, 10000.0};
    s.grid_k = 32;
    s.division = retrasyn::DivisionStrategy::kBudget;
    s.sync = retrasyn::SyncPolicy::kAsync;
    s.durable = true;
    s.checkpoint_every = 50;
    s.interval_ms = 10.0;
  } else {
    return false;
  }
  *spec = s;
  return true;
}

namespace {

// --- tdrive_hires: T-Drive-like hotspot taxis, generated round by round ----
//
// The streaming counterpart of stream/hotspot_generator: hotspots with a
// daily attractiveness cycle, taxis driving between them with route noise
// and dwelling, geometric lifetimes of mean 13.61 reports and daily-cycle
// arrivals, calibrated to ~3.5k live taxis. Half the departing taxis send an
// explicit Quit, the other half fall silent (the session quits them).
class HotspotTaxis : public RoundSource {
 public:
  explicit HotspotTaxis(uint64_t seed) : rng_(Mix64(seed ^ 0x7464726976ull)) {
    for (int h = 0; h < 6; ++h) {
      Hotspot spot;
      spot.center = Point{rng_.UniformDouble(3000.0, 27000.0),
                          rng_.UniformDouble(3000.0, 27000.0)};
      spot.base_weight = rng_.UniformDouble(0.5, 1.5);
      spot.amplitude = rng_.UniformDouble(0.3, 0.9);
      spot.phase = (h % 2 == 0) ? rng_.UniformDouble(0.25, 0.4)
                                : rng_.UniformDouble(0.75, 0.95);
      hotspots_.push_back(spot);
    }
  }

  uint32_t Produce(int64_t t, int part, int parts, EventSink& sink) override {
    RETRASYN_CHECK(part == 0 && parts == 1);
    if (t == 0) {
      for (int i = 0; i < kInitialTaxis; ++i) Spawn(t, sink);
      return static_cast<uint32_t>(live_.size());
    }
    size_t kept = 0;
    for (Taxi& taxi : live_) {
      if (rng_.Bernoulli(kQuitProbability)) {
        if (rng_.Bernoulli(0.5)) sink.Emit(Event{Event::kQuit, taxi.id, {}});
        continue;
      }
      Step(t, taxi);
      sink.Emit(Event{Event::kMove, taxi.id, taxi.position});
      live_[kept++] = taxi;
    }
    live_.resize(kept);
    const double day = static_cast<double>(t % kDayLength) / kDayLength;
    const double lambda =
        kMeanArrivals * (1.0 + 0.6 * std::sin(2.0 * M_PI * (day - 0.3)));
    const uint64_t arrivals =
        rng_.Binomial(static_cast<uint64_t>(std::ceil(lambda * 2.0)), 0.5);
    for (uint64_t i = 0; i < arrivals; ++i) Spawn(t, sink);
    return static_cast<uint32_t>(live_.size());
  }

 private:
  static constexpr int kInitialTaxis = 3600;
  static constexpr double kMeanArrivals = 260.0;
  static constexpr double kQuitProbability = 1.0 / 13.61;
  static constexpr int64_t kDayLength = 144;
  static constexpr double kSigma = 1500.0;

  struct Hotspot {
    Point center;
    double base_weight;
    double amplitude;
    double phase;
  };
  struct Taxi {
    uint64_t id = 0;
    Point position;
    Point destination;
    bool dwelling = false;
  };

  Point NearHotspot(int64_t t) {
    const double day = static_cast<double>(t % kDayLength) / kDayLength;
    double weights[6];
    double total = 0.0;
    for (size_t h = 0; h < hotspots_.size(); ++h) {
      const Hotspot& s = hotspots_[h];
      weights[h] = s.base_weight *
                   std::max(0.05, 1.0 + s.amplitude *
                                            std::sin(2.0 * M_PI * (day - s.phase)));
      total += weights[h];
    }
    double u = rng_.UniformDouble() * total;
    size_t h = 0;
    while (h + 1 < hotspots_.size() && u >= weights[h]) u -= weights[h++];
    return Clamp(Point{hotspots_[h].center.x + rng_.Gaussian(0.0, kSigma),
                       hotspots_[h].center.y + rng_.Gaussian(0.0, kSigma)});
  }

  static Point Clamp(Point p) {
    p.x = std::clamp(p.x, 0.0, 30000.0);
    p.y = std::clamp(p.y, 0.0, 30000.0);
    return p;
  }

  void Spawn(int64_t t, EventSink& sink) {
    Taxi taxi;
    taxi.id = next_id_++;
    taxi.position = NearHotspot(t);
    taxi.destination = NearHotspot(t);
    sink.Emit(Event{Event::kEnter, taxi.id, taxi.position});
    live_.push_back(taxi);
  }

  void Step(int64_t t, Taxi& taxi) {
    if (taxi.dwelling) {
      taxi.dwelling = false;
      taxi.destination = NearHotspot(t);
      return;
    }
    const double dx = taxi.destination.x - taxi.position.x;
    const double dy = taxi.destination.y - taxi.position.y;
    const double dist = std::sqrt(dx * dx + dy * dy);
    const double step = rng_.UniformDouble(800.0, 3500.0);
    if (dist <= step) {
      taxi.position = taxi.destination;
      if (rng_.Bernoulli(0.6)) {
        taxi.dwelling = true;
      } else {
        taxi.destination = NearHotspot(t);
      }
      return;
    }
    const double ux = dx / dist;
    const double uy = dy / dist;
    const double noise = rng_.Gaussian(0.0, 500.0);
    taxi.position = Clamp(Point{taxi.position.x + ux * step - uy * noise,
                                taxi.position.y + uy * step + ux * noise});
  }

  Rng rng_;
  std::vector<Hotspot> hotspots_;
  std::vector<Taxi> live_;
  uint64_t next_id_ = 1;
};

// --- crowd_1m: ~1M concurrent random walkers with churn ---------------------
//
// A fixed set of user slots. Each round a slot's user moves by a uniform
// step of at most 150 units (cells are 1000 wide), or leaves with
// probability 3/128 (two thirds by Quit, one third by silence); an empty slot
// is refilled by a new user the next round. Every decision is a hash of
// (seed, slot, round), so the events do not depend on how many producers
// split the slots.
//
// Each producer owns the slots whose user belongs to its shard, stored
// contiguously, and touches no other: the generator's cost per producer
// falls with the producer count instead of scanning every slot. A slot whose
// next user belongs to another shard is handed over through an outbox that
// its new owner drains at the start of the next round.
class Crowd : public RoundSource {
 public:
  static constexpr uint32_t kSlots = 1000000;
  static constexpr uint64_t kIdStride = 1ull << 20;  // > kSlots

  Crowd(uint64_t seed, int parts)
      : seed_(Mix64(seed ^ 0x63726f7764ull)),
        parts_(parts),
        own_(static_cast<size_t>(parts)),
        outbox_{Outboxes(static_cast<size_t>(parts) * parts),
                Outboxes(static_cast<size_t>(parts) * parts)} {
    for (std::vector<Slot>& own : own_) own.reserve(kSlots / parts + kSlots / 64);
    for (uint32_t i = 0; i < kSlots; ++i) {
      const uint64_t user = i + 1;
      own_[retrasyn::IngestSession::ShardOf(user, parts)].push_back(
          Slot{user, i, 0.0f, 0.0f, false});
    }
  }

  uint32_t Produce(int64_t t, int part, int parts, EventSink& sink) override {
    RETRASYN_CHECK(parts == parts_);
    std::vector<Slot>& own = own_[static_cast<size_t>(part)];
    // Slots handed over in round t - 1 (written by their old owners then).
    Outboxes& inbox = outbox_[(t + 1) & 1];
    for (int from = 0; from < parts; ++from) {
      std::vector<Slot>& moved = inbox[static_cast<size_t>(from) * parts + part];
      own.insert(own.end(), moved.begin(), moved.end());
      moved.clear();
    }
    Outboxes& outbox = outbox_[t & 1];
    uint32_t located = 0;
    size_t kept = 0;
    for (Slot s : own) {
      const uint64_t h =
          Mix64(seed_ ^ Mix64((static_cast<uint64_t>(t) << 20) | s.slot));
      if (!s.active) {
        s.x = static_cast<float>((h & 0xffffff) * (16000.0 / 16777216.0));
        s.y = static_cast<float>(((h >> 24) & 0xffffff) *
                                 (16000.0 / 16777216.0));
        s.active = true;
        sink.Emit(Event{Event::kEnter, s.user, Point{s.x, s.y}});
        ++located;
        own[kept++] = s;
        continue;
      }
      const uint32_t leave = static_cast<uint32_t>(h >> 57);  // 0..127
      if (leave < 3) {  // ~2.3%: depart, by Quit or by silence
        if (leave < 2) sink.Emit(Event{Event::kQuit, s.user, {}});
        s.active = false;
        s.user += kIdStride;
        const uint32_t owner = retrasyn::IngestSession::ShardOf(s.user, parts);
        if (owner == static_cast<uint32_t>(part)) {
          own[kept++] = s;
        } else {
          outbox[static_cast<size_t>(part) * parts + owner].push_back(s);
        }
        continue;
      }
      const double dx =
          static_cast<double>(h & 0xfffff) / 1048576.0 * 300.0 - 150.0;
      const double dy =
          static_cast<double>((h >> 20) & 0xfffff) / 1048576.0 * 300.0 - 150.0;
      s.x = static_cast<float>(Reflect(s.x + dx));
      s.y = static_cast<float>(Reflect(s.y + dy));
      sink.Emit(Event{Event::kMove, s.user, Point{s.x, s.y}});
      ++located;
      own[kept++] = s;
    }
    own.resize(kept);
    return located;
  }

 private:
  struct Slot {
    uint64_t user;  ///< the user acting in this slot next
    uint32_t slot;  ///< keys the slot's hash decisions
    float x;
    float y;
    bool active;
  };
  /// [from * parts + to]: slots handed from one producer to another.
  using Outboxes = std::vector<std::vector<Slot>>;

  static double Reflect(double v) {
    if (v < 0.0) return -v;
    if (v > 16000.0) return 32000.0 - v;
    return v;
  }

  uint64_t seed_;
  int parts_;
  std::vector<std::vector<Slot>> own_;  ///< per producer
  Outboxes outbox_[2];                  ///< by round parity
};

// --- durable_paced: network-constrained (Oldenburg-like) objects -----------
//
// stream/network_generator materializes the whole horizon; this replays it
// round by round. Streams that end before the horizon send an explicit Quit
// when their id is even and fall silent when it is odd.
class NetworkReplay : public RoundSource {
 public:
  NetworkReplay(uint64_t seed, int64_t rounds) {
    retrasyn::NetworkGeneratorConfig config;
    config.num_timestamps = std::max<int64_t>(rounds, 2);
    config.initial_objects = 2500;
    config.arrivals_per_timestamp = 125;
    config.quit_probability = 0.02;
    config.network.grid_dim = 16;
    Rng rng(Mix64(seed ^ 0x6f6c64656eull));
    db_ = retrasyn::GenerateNetworkStreams(config, rng);
    order_.resize(db_.streams().size());
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    std::stable_sort(order_.begin(), order_.end(), [this](size_t a, size_t b) {
      return db_.streams()[a].enter_time < db_.streams()[b].enter_time;
    });
  }

  uint32_t Produce(int64_t t, int part, int parts, EventSink& sink) override {
    RETRASYN_CHECK(part == 0 && parts == 1);
    const auto& streams = db_.streams();
    while (cursor_ < order_.size() &&
           streams[order_[cursor_]].enter_time <= t) {
      live_.push_back(order_[cursor_++]);
    }
    uint32_t located = 0;
    size_t kept = 0;
    for (size_t idx : live_) {
      const retrasyn::UserStream& s = streams[idx];
      const uint64_t user = idx + 1;
      if (t >= s.end_time()) {
        if (user % 2 == 0) sink.Emit(Event{Event::kQuit, user, {}});
        continue;
      }
      sink.Emit(Event{t == s.enter_time ? Event::kEnter : Event::kMove, user,
                      s.At(t)});
      ++located;
      live_[kept++] = idx;
    }
    live_.resize(kept);
    return located;
  }

 private:
  retrasyn::StreamDatabase db_;
  std::vector<size_t> order_;
  size_t cursor_ = 0;
  std::vector<size_t> live_;
};

}  // namespace

std::unique_ptr<RoundSource> MakeSource(const WorkloadSpec& spec,
                                        uint64_t seed, int64_t max_rounds,
                                        int parts) {
  if (spec.name == "crowd_1m") return std::make_unique<Crowd>(seed, parts);
  RETRASYN_CHECK(parts == 1);
  if (spec.name == "tdrive_hires") return std::make_unique<HotspotTaxis>(seed);
  return std::make_unique<NetworkReplay>(seed, max_rounds);
}

}  // namespace perfbench
