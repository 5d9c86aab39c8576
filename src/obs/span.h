#ifndef MLCORE_OBS_SPAN_H_
#define MLCORE_OBS_SPAN_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/timing.h"

// Per-query trace spans (DESIGN.md §12).
//
// A Trace is a fixed-capacity buffer of SpanRecords owned by one query:
// the Engine allocates it at submission, hands it (plus a parent span id)
// through DccsExecution into the search, and reads it back after the query
// quiesces — the completed span tree feeds the slow-query log and
// stats_report(). Span names are static string literals from the span
// taxonomy (DESIGN.md §12); never pass a dynamically built name.
//
// Concurrency contract: Commit() is safe from any number of threads
// concurrently (one fetch_add claims a slot; overflow drops the record and
// counts it). Reading (records()) is only safe after every recording
// thread is done with the trace — for the Engine that is after RunValidated
// returns, and a search returns only after its ParallelFor has finished
// every lane. This keeps the hot path to a
// slot claim and a struct write, with no locking.

namespace mlcore::obs {

/// 0 = "no span" (the null parent).
using SpanId = uint32_t;

struct SpanRecord {
  const char* name = "";  // static literal from the span taxonomy
  SpanId id = 0;
  SpanId parent = 0;
  double start_ms = 0;  // offset from the owning trace's creation
  double wall_ms = 0;
  double cpu_ms = -1;  // thread CPU time; -1 = not measured / unsupported
};

class Trace {
 public:
  /// Default capacity covers the query taxonomy (root + 4 phases + one
  /// lane span per search thread + subscription stages) with headroom.
  explicit Trace(uint32_t capacity = 64);

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// Claims a fresh span id (never 0). Ids are per-trace, not global.
  SpanId NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Milliseconds since this trace was created; span start offsets are
  /// measured on this clock.
  double AgeMs() const { return clock_.Millis(); }

  /// Appends a finished span. Thread-safe; drops (and counts) when full.
  void Commit(const SpanRecord& record);

  /// Convenience for spans whose duration was measured externally
  /// (admission wait, snapshot pin): claims an id, commits, returns it.
  SpanId Add(const char* name, SpanId parent, double start_ms,
             double wall_ms, double cpu_ms = -1);

  /// All committed spans in start order. Only call once every recording
  /// thread has finished (see the file comment).
  std::vector<SpanRecord> records() const;

  int64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  WallTimer clock_;
  std::atomic<SpanId> next_id_{1};
  std::atomic<uint32_t> used_{0};
  std::vector<SpanRecord> slots_;
  std::atomic<int64_t> dropped_{0};
};

/// RAII span. Construction claims an id and starts a wall (and thread-CPU)
/// stopwatch; destruction (or End()) commits the record. A Span built with
/// a null trace — or any Span under MLCORE_OBS_DISABLED — records nothing
/// but still runs its wall stopwatch, because callers read durations off
/// it (`wall_seconds()`, `timer()` for CheckQueryStop): the disabled build
/// pays exactly the WallTimer the uninstrumented code already paid.
///
/// Must start and end on the same thread (the CPU clock is per-thread).
class Span {
 public:
  Span() = default;  // inert

  Span(Trace* trace, const char* name, SpanId parent = 0) : name_(name) {
    if constexpr (kEnabled) {
      if (trace != nullptr) {
        trace_ = trace;
        parent_ = parent;
        id_ = trace->NextId();
        start_ms_ = trace->AgeMs();
        cpu_.Restart();
      }
    } else {
      (void)trace;
      (void)parent;
    }
    timer_.Restart();
  }

  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

  ~Span() { End(); }

  /// Commits now (idempotent); later wall_seconds() reads keep ticking but
  /// the recorded span is frozen.
  void End() {
    if (trace_ == nullptr) return;
    SpanRecord record;
    record.name = name_;
    record.id = id_;
    record.parent = parent_;
    record.start_ms = start_ms_;
    record.wall_ms = timer_.Millis();
    record.cpu_ms = cpu_.Millis();
    trace_->Commit(record);
    trace_ = nullptr;
  }

  /// This span's id for parenting children; 0 when not recording.
  SpanId id() const { return id_; }

  /// The span's wall stopwatch — CheckQueryStop measures search budgets
  /// against exactly this timer, so budget semantics cannot drift from
  /// what the span reports.
  const WallTimer& timer() const { return timer_; }
  double wall_seconds() const { return timer_.Seconds(); }

 private:
  Trace* trace_ = nullptr;
  const char* name_ = "";
  SpanId id_ = 0;
  SpanId parent_ = 0;
  double start_ms_ = 0;
  WallTimer timer_;
  ThreadCpuTimer cpu_;
};

/// One completed query's trace, annotated for the slow-query log.
struct TraceSummary {
  std::string label;  // request shape, e.g. "run algo=bu d=3 s=2 k=5"
  uint64_t epoch = 0;
  double total_ms = 0;
  std::vector<SpanRecord> spans;
  int64_t dropped_spans = 0;
};

/// Keeps the N slowest queries by total duration. Offer() is called once
/// per completed query (cold path) and takes a ranked mutex; Snapshot()
/// returns entries sorted slowest-first.
class SlowQueryLog {
 public:
  explicit SlowQueryLog(size_t capacity = 16) : capacity_(capacity) {}

  void Offer(TraceSummary summary);
  std::vector<TraceSummary> Snapshot() const;
  void Clear();

 private:
  const size_t capacity_;
  mutable util::Mutex mu_{util::lock_rank::kObsSlowLog,
                          "obs::SlowQueryLog::mu_"};
  // Sorted slowest-first; size <= capacity_.
  std::vector<TraceSummary> entries_ MLCORE_GUARDED_BY(mu_);
};

}  // namespace mlcore::obs

#endif  // MLCORE_OBS_SPAN_H_
