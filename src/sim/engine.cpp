#include "sim/engine.hpp"

namespace janus {

SimEngine::~SimEngine() {
  // Destroy closures of any never-executed events (run_until stopped, or
  // the owner tore down mid-simulation).
  for (const EventNode& n : heap_) release_slot(n.slot());
}

void SimEngine::grow_pool() {
  require(slabs_.size() * kSlabSlots < (kSlotMask + 1) - kSlabSlots,
          "event slot space exhausted (16M in-flight events)");
  const std::uint32_t base =
      static_cast<std::uint32_t>(slabs_.size() * kSlabSlots);
  slabs_.push_back(std::make_unique<Slot[]>(kSlabSlots));
  free_slots_.reserve(slabs_.size() * kSlabSlots);
  // Reversed so the new slab's slots hand out in ascending order.
  for (std::size_t i = kSlabSlots; i > 0; --i) {
    free_slots_.push_back(base + static_cast<std::uint32_t>(i - 1));
  }
}

void SimEngine::restart() {
  require(heap_.empty(), "only a drained engine can restart");
  now_ = 0.0;
  last_event_ = 0.0;
  next_seq_ = 0;
  executed_ = 0;
}

JANUS_HOT void SimEngine::run() {
  while (step()) {
  }
}

JANUS_HOT void SimEngine::run_until(Seconds t) {
  // The heap root is the earliest pending event; an event scheduled at
  // <= t by a firing event is picked up on the next iteration.
  while (!heap_.empty() && heap_.front().time <= t) step();
  if (now_ < t) now_ = t;
}

}  // namespace janus
