// Compact binary codec for the fleet's mergeable metrics.
//
// This is the wire format between `run_fleet` and its forked worker
// processes: EmpiricalDistribution, Histogram, ObsCounters, epoch
// snapshots, timeline rows, and span records, encoded field-by-field in
// explicit little-endian order.
//
// Contracts the multi-process merge leans on:
//
//  * Bit-exact round trips.  Doubles travel as their IEEE-754 bit
//    pattern (never printed/parsed), and EmpiricalDistribution carries
//    its running moments verbatim instead of re-deriving them, so
//    decode(encode(x)) == x to the last bit — the whole point of process
//    sharding being indistinguishable from the in-process path.
//  * Explicit byte order.  Values are assembled shift-by-shift, not
//    memcpy'd structs: no padding, no host-endianness, no ABI in the
//    format.
//  * Versioned envelope.  Every stream starts with magic + version; a
//    reader confronted with a future (or corrupt) stream throws instead
//    of misinterpreting bytes.  Bump kCodecVersion on any layout change.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "fleet/control.hpp"
#include "obs/obs.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "stats/empirical.hpp"
#include "stats/histogram.hpp"

namespace janus::codec {

inline constexpr std::uint32_t kMagic = 0x4a4e5343u;  // "JNSC"
// v2: FleetSliceOutcome gained sim_end_s (frontier achieved-rps makespan).
inline constexpr std::uint16_t kCodecVersion = 2;

/// Append-only little-endian byte sink.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);  // IEEE-754 bit pattern, bit-exact round trip
  void str(const std::string& s);

  const std::vector<std::uint8_t>& bytes() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  /// Empties the buffer but keeps its capacity, for a writer reused per
  /// message.
  void clear() noexcept { buf_.clear(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian reader over a decoded buffer; every
/// overrun or mismatch throws (via require), nothing is silently zeroed.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::string str();

  std::size_t remaining() const noexcept { return size_ - at_; }
  bool done() const noexcept { return at_ == size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t at_ = 0;
};

/// Stream envelope: magic + codec version.  read_header throws on either
/// mismatching — the cross-version guard.
void write_header(ByteWriter& w);
void read_header(ByteReader& r);

void encode(ByteWriter& w, const EmpiricalDistribution& d);
EmpiricalDistribution decode_empirical(ByteReader& r);

void encode(ByteWriter& w, const Histogram& h);
Histogram decode_histogram(ByteReader& r);

void encode(ByteWriter& w, const ObsCounters& c);
ObsCounters decode_obs_counters(ByteReader& r);

void encode(ByteWriter& w, const EpochSnapshot& s);
EpochSnapshot decode_epoch(ByteReader& r);
void encode(ByteWriter& w, const std::vector<EpochSnapshot>& log);
std::vector<EpochSnapshot> decode_epoch_log(ByteReader& r);

void encode(ByteWriter& w, const TimelineRow& row);
TimelineRow decode_timeline_row(ByteReader& r);
void encode(ByteWriter& w, const std::vector<TimelineRow>& rows);
std::vector<TimelineRow> decode_timeline(ByteReader& r);

void encode(ByteWriter& w, const SpanRecord& s);
SpanRecord decode_span(ByteReader& r);
void encode(ByteWriter& w, const std::vector<SpanRecord>& spans);
std::vector<SpanRecord> decode_spans(ByteReader& r);

}  // namespace janus::codec
