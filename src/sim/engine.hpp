// Discrete-event simulation engine.
//
// The calendar is one binary min-heap of 16-byte (time, seq|slot) nodes;
// each event's closure is placement-built into a per-engine slot pool, so
// heap sifts move 16 hot bytes and never a closure, and the steady-state
// event path performs no heap allocation.  A fleet engine holds one tenant
// (static path) or one 64-tenant block (live path): tens to about a
// thousand pending events, where bench_engine measures the heap as fast
// as a bucketed ladder calendar.
//
// Ordering contract (what keeps fleet metrics bit-identical at any shard
// count): events execute in strict (time, insertion-seq) order, and a
// schedule_at with t < now() is clamped to now() — it fires as soon as
// possible, after any already-queued events at now().
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/inline_function.hpp"
#include "common/types.hpp"
#include "obs/obs.hpp"

namespace janus {

/// Inline capture budget for one scheduled event.  The largest producer is
/// Platform's completion closure, and the budget is exactly its size:
/// `this` and two int indices (16) + InvocationOutcome (48) + the caller's
/// 32-byte InvokeFn = 96 bytes.  exp/runner's open-loop arrival closures are far
/// smaller (16).  Both are static_asserted against this budget at their
/// construction sites by InlineFunction itself.  Keep this as small as
/// those captures allow: slot size times pending events is the pool's
/// working set, and a live-path 64-tenant block keeps about a thousand
/// events pending.
inline constexpr std::size_t kEventCaptureBytes = 96;
using EventFn = InlineFunction<void(), kEventCaptureBytes>;

class SimEngine {
 public:
  SimEngine() = default;
  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;
  ~SimEngine();

  Seconds now() const noexcept { return now_; }

  /// Time of the most recently executed event (0.0 before any ran).
  /// Unlike now(), run_until's boundary clamp never advances it, so after
  /// a drain-to-infinity run it still reads the true makespan — what the
  /// fleet reports as sim_end_s for achieved-throughput accounting.
  Seconds last_event_s() const noexcept { return last_event_; }

  /// Schedules `fn` at absolute simulated time `t`.  A `t` earlier than
  /// now() is clamped to now(): the event fires "as soon as possible",
  /// after any already-queued events at now() (insertion order still
  /// breaks the tie).  Load generators that draw arrivals lazily can
  /// therefore hand the engine a time that slipped into the past without
  /// special-casing; time never flows backwards.
  ///
  /// The callable is placement-built directly into the engine's slot pool
  /// (through EventFn, which bounds and static_asserts its capture size);
  /// on the steady-state path scheduling performs zero heap allocations.
  template <typename F>
  JANUS_HOT void schedule_at(Seconds t, F&& fn) {
    if (t < now_) t = now_;  // clamp: the past is served "now"
    require(next_seq_ < kMaxSeq, "event sequence space exhausted");
    // The node's globally-largest seq makes it run after already-queued
    // peers at the same time — the clamp contract.
    // janus-lint: allow(hot-path-growth) heap_ keeps its high-water
    // capacity across drains and restart(); growth stops once warm.
    heap_.push_back(
        {t, (next_seq_++ << kSlotBits) | acquire_slot(std::forward<F>(fn))});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    JANUS_OBS(obs_, obs_->note_pending(heap_.size()));
  }

  /// Schedules `fn` after `delay` seconds (>= 0).
  template <typename F>
  JANUS_HOT void schedule_after(Seconds delay, F&& fn) {
    require(delay >= 0.0, "negative delay");
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Executes the next event; returns false when the calendar is empty.
  JANUS_HOT bool step() {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const EventNode node = heap_.back();
    heap_.pop_back();
    now_ = node.time;
    last_event_ = node.time;
    ++executed_;
#if defined(__GNUC__) || defined(__clang__)
    // Overlap the next closure's slot fetch with this event's execution:
    // the slot was last touched when it was scheduled, possibly many
    // events ago, so its line may have left L1.
    if (!heap_.empty()) __builtin_prefetch(slot_ptr(heap_.front().slot()));
#endif
    // Invoke in place — no relocation.  The Slot[] slabs never move even
    // if a re-entrant schedule_at grows the pool, so the pointer stays
    // valid; the guard releases the slot after the closure returns — or
    // during unwinding if it throws, so the capture is still destroyed
    // (matching the old engine, where the heap Event died with the stack).
    struct SlotGuard {
      SimEngine* engine;
      std::uint32_t slot;
      ~SlotGuard() { engine->release_slot(slot); }
    } guard{this, node.slot()};
    (*slot_ptr(guard.slot))();
    return true;
  }

  /// Runs until the calendar drains.
  void run();

  /// Runs until simulated time passes `t` or the calendar drains.  An
  /// event at exactly `t` still fires; now() ends at `t` even when the
  /// calendar drains earlier (or was empty).
  void run_until(Seconds t);

  std::size_t pending() const noexcept { return heap_.size(); }
  std::uint64_t executed() const noexcept { return executed_; }

  /// Returns a drained engine (pending() == 0) to the state a fresh one
  /// starts in — clock, sequence and executed count at zero — keeping its
  /// calendar and closure-slot storage, so a fleet shard runs one engine
  /// block after another on it without reallocating.  Throws if events
  /// are still pending.
  void restart();

  /// Arms the calendar-occupancy gauge (self-profiling pillar); null (the
  /// default) keeps the hook a single never-taken branch in schedule_at.
  /// The sink must outlive the engine's run and is written only from the
  /// thread driving this engine.
  void set_obs(EngineObs* obs) noexcept { obs_ = obs; }

 private:
  /// 16-byte calendar node: time plus (seq << 24 | slot).  seq lives in
  /// the high 40 bits so comparing the packed word compares seq (unique
  /// per event, so the slot bits never decide anything); the closure lives
  /// in the slot pool.
  struct EventNode {
    Seconds time;
    std::uint64_t seq_slot;

    std::uint32_t slot() const noexcept {
      return static_cast<std::uint32_t>(seq_slot & kSlotMask);
    }
  };
  static constexpr std::uint64_t kSlotBits = 24;  // 16M in-flight closures
  static constexpr std::uint64_t kSlotMask = (1ULL << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = 1ULL << (64 - kSlotBits);

  /// Strict (time, seq) total order, expressed as "executes later" so the
  /// STL heap helpers keep the soonest event at the root.  seq is unique,
  /// so the order is total and no two runs can pop ties differently.
  struct Later {
    bool operator()(const EventNode& a, const EventNode& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq_slot > b.seq_slot;
    }
  };

  static constexpr std::size_t kSlabSlots = 256;  // closures per slab
  struct Slot {
    alignas(std::max_align_t) unsigned char bytes[sizeof(EventFn)];
  };

  JANUS_HOT EventFn* slot_ptr(std::uint32_t slot) noexcept {
    return reinterpret_cast<EventFn*>(
        slabs_[slot / kSlabSlots][slot % kSlabSlots].bytes);
  }

  /// Placement-builds the callable into a pooled slot (freed slots recycle
  /// LIFO, so the line is usually still hot) and returns its index.
  template <typename F>
  JANUS_HOT std::uint32_t acquire_slot(F&& fn) {
    if (free_slots_.empty()) grow_pool();
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    ::new (static_cast<void*>(slot_ptr(slot))) EventFn(std::forward<F>(fn));
    return slot;
  }

  JANUS_HOT void release_slot(std::uint32_t slot) noexcept {
    slot_ptr(slot)->~EventFn();
    // janus-lint: allow(hot-path-growth) free list capacity is reserved in
    // grow_pool for every slot that exists; push_back never reallocates.
    free_slots_.push_back(slot);
  }

  void grow_pool();

  // Min-heap on (time, seq) under Later: the root is the next event.
  std::vector<EventNode> heap_;

  // Closure slot pool: slabs never move, freed slots recycle LIFO.
  std::vector<std::unique_ptr<Slot[]>> slabs_;
  std::vector<std::uint32_t> free_slots_;

  Seconds now_ = 0.0;
  Seconds last_event_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  EngineObs* obs_ = nullptr;
};

}  // namespace janus
