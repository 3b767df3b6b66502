// Causal span tracing: deterministic, low-overhead request traces.
//
// A *trace* is a tree of *spans* (named, timed operations) describing one
// request end-to-end — e.g. a gateway fetch fanning into DHT lookup RPCs,
// Bitswap want broadcasts, and monitor captures; or one query-daemon HTTP
// request descending into cache lookup, rollup decode, and per-segment
// scans. Spans carry both simulated time (when produced inside the
// discrete-event simulator) and wall time (a process-wide steady-clock
// epoch, microseconds), so the same machinery profiles the simulator and
// the real daemon.
//
// Determinism: trace and span IDs are derived from (config seed, a
// monotonic sequence number) via a splitmix64 mix — no RNG stream is
// consumed and the same seed reproduces the same IDs and parent links
// byte-for-byte, provided spans are started in a deterministic order
// (single-threaded simulation, or daemon requests issued one at a time).
// Head sampling keeps overhead bounded: the n-th trace is sampled iff
// n % sample_every == 0, and unsampled traces cost one atomic increment
// with no allocation.
//
// The tracer is inert by default (TracerConfig::enabled = false): no
// allocations, no metrics, no scheduled work — a tracing-off run is
// byte-identical to a build without this layer, the same invariant the
// churn subsystem establishes for fault injection.
//
// Thread-safety: start/end/add_span are safe from multiple threads (the
// span buffer is lock-sharded; sequence counters are atomic). The
// *implicit* current() context is a plain member that needs its callers
// serialized, so only the single-threaded simulator uses it; the query
// daemon, whose requests run concurrently, passes each request's
// SpanContext down its call chain explicitly.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/time.hpp"

namespace ipfsmon::obs {

/// Microseconds since a process-wide steady-clock epoch (first call).
/// Monotonic, comparable across threads, unaffected by NTP steps.
std::int64_t wall_micros_now();

/// Identifies a span within a trace; propagated across async boundaries
/// (scheduler events, network payloads) to parent downstream spans.
struct SpanContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  bool sampled = false;

  bool valid() const { return trace_id != 0; }
};

using SpanAttrs = std::vector<std::pair<std::string, std::string>>;

/// One finished span as stored in the buffer and fed to exporters.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  // 0 = trace root
  /// Global record order (assigned when the span ends); snapshot() sorts
  /// by this, so exports are reproducible.
  std::uint64_t seq = 0;
  std::string name;
  util::SimTime start_sim = 0;
  util::SimTime end_sim = 0;
  std::int64_t start_us = 0;
  std::int64_t end_us = 0;
  SpanAttrs attrs;
};

struct TracerConfig {
  /// Master switch. Off (the default) makes every tracer call a no-op.
  bool enabled = false;
  /// Seed for trace/span ID derivation; same seed ⇒ same IDs.
  std::uint64_t seed = 0;
  /// Head sampling: trace n (0-based) is kept iff n % sample_every == 0.
  /// 1 keeps everything; 0 is treated as 1.
  std::uint64_t sample_every = 64;
  /// Lock shards for the span buffer (by trace id); >= 1.
  std::size_t shards = 4;
  /// Finished spans kept per shard; the oldest are dropped on overflow
  /// (and counted), so /debug/spans always shows the most recent work.
  std::size_t shard_capacity = 4096;
};

class Tracer;

/// RAII handle for an in-flight span. Move-only; ends (and records) on
/// destruction unless end() was called. Inert spans — from a disabled
/// tracer, an unsampled trace, or an invalid parent — hold no allocation
/// and every method is a cheap no-op.
class Span {
 public:
  Span() = default;
  Span(Span&& other) noexcept
      : tracer_(other.tracer_), ctx_(other.ctx_), rec_(std::move(other.rec_)) {
    other.tracer_ = nullptr;
  }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      end();
      tracer_ = other.tracer_;
      ctx_ = other.ctx_;
      rec_ = std::move(other.rec_);
      other.tracer_ = nullptr;
    }
    return *this;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  /// True while the span is live and will be recorded.
  bool active() const { return tracer_ != nullptr; }

  /// Context to hand to children / stamp on payloads. Invalid for inert
  /// spans, so downstream instrumentation short-circuits naturally.
  const SpanContext& context() const { return ctx_; }

  void set_attr(std::string_view key, std::string value);
  void set_attr(std::string_view key, std::uint64_t value);

  /// Records the span (idempotent). Timestamps are taken here.
  void end();

 private:
  friend class Tracer;
  Span(Tracer* tracer, const SpanContext& ctx,
       std::unique_ptr<SpanRecord> rec)
      : tracer_(tracer), ctx_(ctx), rec_(std::move(rec)) {}

  Tracer* tracer_ = nullptr;
  SpanContext ctx_{};
  std::unique_ptr<SpanRecord> rec_;
};

class Tracer {
 public:
  Tracer() = default;
  explicit Tracer(const TracerConfig& config) { configure(config); }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// (Re)arms the tracer: installs the config and resets buffers and
  /// sequence counters. Not safe against concurrent span activity.
  void configure(const TracerConfig& config);

  const TracerConfig& config() const { return config_; }
  bool enabled() const { return config_.enabled; }

  /// Source for simulated-time stamps; unset ⇒ sim timestamps are 0
  /// (the daemon case).
  void set_sim_clock(std::function<util::SimTime()> clock) {
    sim_clock_ = std::move(clock);
  }

  /// Starts a new root span, applying head sampling. Returns an inert
  /// span when disabled or when this trace is not sampled.
  Span start_trace(std::string_view name);

  /// Starts a child span. Inert unless `parent` is valid and sampled.
  Span start_span(std::string_view name, const SpanContext& parent);

  /// Records an already-finished span with explicit timestamps (for
  /// retroactive instrumentation, e.g. HTTP accept→parse measured before
  /// the request span exists, or instant point events with start == end).
  /// Wall times of -1 mean "now". Returns the new span's context
  /// (invalid if nothing was recorded).
  SpanContext add_span(std::string_view name, const SpanContext& parent,
                       util::SimTime start_sim, util::SimTime end_sim,
                       SpanAttrs attrs = {}, std::int64_t start_us = -1,
                       std::int64_t end_us = -1);

  /// Implicit context for synchronous call chains of the single-threaded
  /// simulator (see the thread-safety note in the header comment). Prefer
  /// ScopedContext over raw set_current().
  const SpanContext& current() const { return current_; }
  void set_current(const SpanContext& ctx) { current_ = ctx; }

  /// All buffered spans, ordered by record sequence.
  std::vector<SpanRecord> snapshot() const;

  /// Drops all buffered spans (counters keep running).
  void clear();

  std::uint64_t traces_started() const {
    return trace_seq_.load(std::memory_order_relaxed);
  }
  std::uint64_t spans_recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  std::uint64_t spans_dropped() const;
  std::size_t spans_buffered() const;

  /// The ID mix: splitmix64 over (seed, stream, n), forced nonzero.
  /// Exposed for the microbenchmarks and determinism tests.
  static std::uint64_t derive_id(std::uint64_t seed, std::uint64_t stream,
                                 std::uint64_t n);

 private:
  friend class Span;

  struct Shard {
    mutable std::mutex mu;
    std::deque<SpanRecord> spans;
    std::uint64_t dropped = 0;
  };

  Span make_span(std::string_view name, const SpanContext& ctx,
                 std::uint64_t parent_id);
  void record(std::unique_ptr<SpanRecord> rec);
  util::SimTime sim_now() const { return sim_clock_ ? sim_clock_() : 0; }

  TracerConfig config_{};
  std::function<util::SimTime()> sim_clock_;
  std::atomic<std::uint64_t> trace_seq_{0};
  std::atomic<std::uint64_t> span_seq_{0};
  std::atomic<std::uint64_t> record_seq_{0};
  std::atomic<std::uint64_t> recorded_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
  SpanContext current_{};
};

/// Sets the tracer's implicit context for the current scope, restoring
/// the previous one on exit. The cheap way to parent synchronous callees
/// without threading SpanContext through every signature.
class ScopedContext {
 public:
  ScopedContext(Tracer& tracer, const SpanContext& ctx)
      : tracer_(tracer), prev_(tracer.current()) {
    tracer_.set_current(ctx);
  }
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;
  ~ScopedContext() { tracer_.set_current(prev_); }

 private:
  Tracer& tracer_;
  SpanContext prev_;
};

}  // namespace ipfsmon::obs
