#include "tracer.h"

#include <cstdio>

#include "common.h"

namespace perfbench {

namespace {

const char* const kSpanNames[kNumSpanKinds] = {
    "service.admit",     "geo.locate",        "service.tick",
    "core.observe",      "ldp.collect",       "core.model_update",
    "core.dmu",          "core.sampler_sync", "core.synthesize",
    "core.release_server", "core.range_query", "core.snapshot",
    "journal.append",    "journal.sync",      "journal.scan",
    "checkpoint.encode", "checkpoint.write",  "checkpoint.decode",
    "bench.check",       "bench.generate",
};

// One tracer exists per process; the thread-local cache is keyed by it so a
// thread never writes into another tracer's log.
thread_local Tracer* tls_owner = nullptr;
thread_local Tracer::ThreadLog* tls_log = nullptr;

}  // namespace

const char* SpanName(SpanKind kind) { return kSpanNames[kind]; }

std::string SpanLayer(SpanKind kind) {
  const std::string name = kSpanNames[kind];
  return name.substr(0, name.find('.'));
}

Tracer::ThreadLog* Tracer::Local() {
  if (tls_owner != this) {
    retrasyn::MutexLock lock(mu_);
    logs_.push_back(std::make_unique<ThreadLog>());
    logs_.back()->thread = static_cast<int>(logs_.size()) - 1;
    tls_owner = this;
    tls_log = logs_.back().get();
  }
  return tls_log;
}

Tracer::Scope::Scope(Tracer* tracer, SpanKind kind, int64_t round,
                     uint64_t count)
    : log_(tracer->Local()), count_(count) {
  Span span;
  span.kind = kind;
  span.round = round;
  span.parent = log_->open.empty() ? -1 : log_->open.back();
  index_ = static_cast<int32_t>(log_->spans.size());
  log_->open.push_back(index_);
  span.start_ns = NowNs();
  log_->spans.push_back(span);
}

Tracer::Scope::~Scope() {
  Span& span = log_->spans[static_cast<size_t>(index_)];
  span.end_ns = NowNs();
  span.count = count_;
  log_->open.pop_back();
}

std::vector<const Tracer::ThreadLog*> Tracer::Logs() const {
  retrasyn::MutexLock lock(mu_);
  std::vector<const ThreadLog*> out;
  for (const auto& log : logs_) out.push_back(log.get());
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const ThreadLog* log : Logs()) {
    for (size_t i = 0; i < log->spans.size(); ++i) {
      const Span& s = log->spans[i];
      char parent[32] = "null";
      if (s.parent >= 0) {
        std::snprintf(parent, sizeof(parent), "\"%d:%d\"", log->thread, s.parent);
      }
      std::fprintf(f,
                   "{\"id\": \"%d:%zu\", \"parent\": %s, \"name\": \"%s\", "
                   "\"round\": %lld, \"start_ns\": %lld, \"end_ns\": %lld, "
                   "\"count\": %llu}\n",
                   log->thread, i, parent, SpanName(s.kind),
                   static_cast<long long>(s.round),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.count));
    }
  }
  return std::fclose(f) == 0;
}

std::vector<int64_t> SelfTimes(const Tracer::ThreadLog& log) {
  std::vector<int64_t> self(log.spans.size());
  for (size_t i = 0; i < log.spans.size(); ++i) {
    self[i] = log.spans[i].end_ns - log.spans[i].start_ns;
  }
  for (const Span& s : log.spans) {
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
  }
  return self;
}

}  // namespace perfbench
