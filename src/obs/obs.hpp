// Observability plane — shared configuration, counters, and the hot-path
// guard macro.
//
// Everything in src/obs/ obeys two contracts the rest of the tree is built
// on:
//
//  * Determinism: every artifact a run can export (spans, timelines,
//    counters) is timestamped in *simulated* seconds and merged in
//    tenant-index order, so for a fixed (seed, config) the bytes are
//    identical at any shard count and across reruns.  Wall-clock shows up
//    only in the self-profiling section (obs/profile.hpp), which is
//    documented as machine-dependent — the same carve-out FleetResult
//    already makes for wall_seconds.
//  * Near-zero overhead: hooks that sit on the JANUS_HOT event path are
//    a single pointer-null branch when observability is off (the default),
//    and allocation-free when it is on (preallocated rings, fixed-width
//    records).  janus-lint's hot-path-obs-guard check enforces that every
//    obs-sink access inside a JANUS_HOT function goes through JANUS_OBS.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/annotations.hpp"

/// The only sanctioned way to touch an observability sink from a JANUS_HOT
/// function: one predictable null test on the sink pointer, then the
/// recording expression.  With observability disabled the sink is null and
/// the branch is never taken, so the steady-state event path pays one
/// compare against a register.  janus-lint (hot-path-obs-guard) flags any
/// obs-sink access in a hot region that is not wrapped in this macro.
#define JANUS_OBS(sink, expr) \
  do {                        \
    if ((sink) != nullptr) {  \
      expr;                   \
    }                         \
  } while (0)

namespace janus {

/// Fleet-level observability switches (FleetConfig::obs).  Everything is
/// off by default; the hot-path hooks stay null-sink branches until a
/// front end (janus_cli --trace-out / --obs-timeline) turns a pillar on.
struct ObsConfig {
  /// Record per-request, per-stage spans into per-tenant rings.
  bool trace = false;
  /// Record one TimelineRow per (epoch, tenant, stage) at every
  /// reconciliation barrier.
  bool timeline = false;
  /// Deterministic span sampling: request r is recorded iff
  /// r % sample_every == 0.  Keyed on the request *index* (not arrival
  /// time or any shard-local state), so the sampled set is a pure function
  /// of the config — 1 records everything.
  int sample_every = 1;
  /// Span slots preallocated per tenant ring; the ring overwrites oldest
  /// and counts drops (no silent truncation).
  std::size_t ring_capacity = std::size_t{1} << 14;

  bool enabled() const noexcept { return trace || timeline; }
};

/// Deterministic event-path counters, accumulated per tenant and merged in
/// tenant-index order — part of the bit-identical result set.
struct ObsCounters {
  std::uint64_t invocations = 0;
  std::uint64_t cold_starts = 0;
  /// Invocations that waited for a pod (scale-out limit hit), cumulative —
  /// the hot-path JANUS_OBS hook in Platform::invoke.
  std::uint64_t queued = 0;
  std::uint64_t spans_recorded = 0;
  std::uint64_t spans_dropped = 0;

  void merge(const ObsCounters& other) noexcept {
    invocations += other.invocations;
    cold_starts += other.cold_starts;
    queued += other.queued;
    spans_recorded += other.spans_recorded;
    spans_dropped += other.spans_dropped;
  }
};

/// Per-shard engine gauges for the self-profiling pillar.  A static-path
/// engine runs one tenant at a time, so its peak is the largest calendar
/// any one tenant needed, whatever the shard count; a live-path engine
/// runs a block of tenants, so its peak depends on the block layout.  The
/// gauges are reported only in the machine-dependent profile section,
/// never in the bit-identical metric set.
struct EngineObs {
  std::uint64_t peak_pending = 0;

  JANUS_HOT void note_pending(std::size_t pending) noexcept {
    if (pending > peak_pending) {
      peak_pending = static_cast<std::uint64_t>(pending);
    }
  }
};

}  // namespace janus
