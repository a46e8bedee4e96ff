// Exact heap-allocation counter for the benchmark binary.
//
// alloc_count.cpp replaces the global operator new/delete family for this
// executable only; every successful allocation, from any thread, bumps one
// relaxed atomic.  Forked worker processes count in their own address
// space, so a caller that wants a whole-run figure measures a 1-process
// run.
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations made through operator new (all overloads) since start-up.
std::uint64_t heap_allocations() noexcept;

}  // namespace perfbench
