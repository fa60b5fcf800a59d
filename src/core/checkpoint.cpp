#include "core/checkpoint.hpp"

#include <bit>
#include <cstring>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace dp::core {

namespace {

constexpr std::uint8_t kMagic[4] = {'D', 'P', 'C', 'K'};
constexpr std::size_t kHeaderSize = 4 + 4 + 8 + 8;

static_assert(ResourceMeter::kCounterCount == 18,
              "checkpoint v7 carries 18 meter counters; a new counter "
              "changes the wire format, so bump RoundCheckpoint::kVersion");

/// The payload, one field at a time in wire order. Every pass below walks
/// this list: Sizer counts its bytes, Writer stores them and Reader parses
/// them back. A vector travels as a u64 count and then its elements;
/// seq's second argument is the fewest bytes one element takes, which
/// Reader uses to cap a count by the bytes that remain.
template <typename Io, typename Checkpoint>
void fields(Io& io, Checkpoint& ck) {
  // Identity.
  io.u64(ck.solver_seed);
  io.f64(ck.eps);
  io.f64(ck.p);
  io.u64(ck.sparsifiers);
  io.u64(ck.sample_seed);
  io.u64(ck.n);
  io.u64(ck.m);
  io.u64(ck.retained);
  io.i32(ck.levels);
  io.u64(ck.graph_generation);
  // Position.
  io.u64(ck.next_round);
  io.u64(ck.outer_rounds);
  io.u64(ck.oracle_calls);
  // Incumbent.
  io.f64(ck.best_value);
  io.f64(ck.beta);
  io.seq(ck.best_support, 16, [&io](auto& entry) {
    io.u64(entry.first);
    io.i64(entry.second);
  });
  // Dual iterate.
  io.f64(ck.duals.scale);
  io.seq(ck.duals.xik, 16, [&io](auto& entry) {
    io.u64(entry.first);
    io.f64(entry.second);
  });
  io.seq(ck.duals.xi, 8, [&io](auto& value) { io.f64(value); });
  io.seq(ck.duals.odd_sets, 20, [&io](auto& var) {
    io.i32(var.level);
    io.f64(var.value);
    io.seq(var.members, 4, [&io](auto& v) { io.u32(v); });
  });
  // History.
  io.seq(ck.history, 48, [&io](auto& rs) {
    io.u64(rs.round);
    io.f64(rs.lambda);
    io.f64(rs.beta);
    io.f64(rs.best_value);
    io.u64(rs.stored_edges);
    io.u64(rs.oracle_calls);
  });
  // Meters: every counter as one u64, in ResourceMeter::Counter order.
  io.meter(ck.solve_meter);
  io.meter(ck.substrate_meter);
}

/// Counts the exact payload size.
struct Sizer {
  std::size_t bytes = 0;

  void u32(std::uint32_t) { bytes += 4; }
  void i32(std::int32_t) { bytes += 4; }
  void u64(std::uint64_t) { bytes += 8; }
  void i64(std::int64_t) { bytes += 8; }
  void f64(double) { bytes += 8; }
  template <typename Items, typename Fn>
  void seq(const Items& items, std::size_t, Fn&& each) {
    bytes += 8;
    for (const auto& item : items) each(item);
  }
  void meter(const ResourceMeter&) {
    bytes += 8 * ResourceMeter::kCounterCount;
  }
};

/// Stores little-endian fields into a buffer Sizer sized.
class Writer {
 public:
  explicit Writer(std::uint8_t* at) : at_(at) {}

  void u32(std::uint32_t x) { put(x, 4); }
  void i32(std::int32_t x) { put(static_cast<std::uint32_t>(x), 4); }
  void u64(std::uint64_t x) { put(x, 8); }
  void i64(std::int64_t x) { put(static_cast<std::uint64_t>(x), 8); }
  void f64(double x) { put(std::bit_cast<std::uint64_t>(x), 8); }
  template <typename Items, typename Fn>
  void seq(const Items& items, std::size_t, Fn&& each) {
    u64(items.size());
    for (const auto& item : items) each(item);
  }
  void meter(const ResourceMeter& from) {
    for (const std::uint64_t value : from.counters()) u64(value);
  }

 private:
  void put(std::uint64_t x, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      at_[i] = static_cast<std::uint8_t>(x >> (8 * i));
    }
    at_ += bytes;
  }

  std::uint8_t* at_;
};

/// Bounds-checked little-endian reader: every overrun is a corruption.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len) : data_(data), len_(len) {}

  void u32(std::uint32_t& x) { x = static_cast<std::uint32_t>(get(4)); }
  void i32(std::int32_t& x) {
    x = static_cast<std::int32_t>(static_cast<std::uint32_t>(get(4)));
  }
  template <typename T>
  void u64(T& x) {
    x = static_cast<T>(get(8));
  }
  void i64(std::int64_t& x) { x = static_cast<std::int64_t>(get(8)); }
  void f64(double& x) { x = std::bit_cast<double>(get(8)); }

  /// The count drives a resize: cap it by the bytes that remain, so a
  /// corrupted length cannot demand gigabytes.
  template <typename Items, typename Fn>
  void seq(Items& items, std::size_t min_bytes, Fn&& each) {
    const std::uint64_t count = get(8);
    if (count > (len_ - pos_) / min_bytes) {
      throw CheckpointCorrupt(
          "checkpoint payload truncated: element count exceeds the bytes "
          "that remain");
    }
    items.resize(count);
    for (auto& item : items) each(item);
  }
  void meter(ResourceMeter& into) {
    ResourceMeter::Counters values{};
    for (std::uint64_t& value : values) value = get(8);
    into = ResourceMeter(values);
  }

  bool exhausted() const noexcept { return pos_ == len_; }

 private:
  std::uint64_t get(int bytes) {
    if (len_ - pos_ < static_cast<std::size_t>(bytes)) {
      throw CheckpointCorrupt("checkpoint payload truncated mid-field");
    }
    std::uint64_t x = 0;
    for (int i = 0; i < bytes; ++i) {
      x |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += bytes;
    return x;
  }

  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<std::uint8_t> RoundCheckpoint::serialize() const {
  // Serialization must stay cheap relative to a round (the <5% overhead
  // gate of bench_faults): one pass counts the exact size, the next writes
  // the payload in place into a buffer of exactly that size, and the
  // header goes in front last, once the checksum is known.
  Sizer sizer;
  fields(sizer, *this);
  std::vector<std::uint8_t> out(kHeaderSize + sizer.bytes);
  Writer payload(out.data() + kHeaderSize);
  fields(payload, *this);
  std::memcpy(out.data(), kMagic, 4);
  Writer header(out.data() + 4);
  header.u32(kVersion);
  header.u64(sizer.bytes);
  header.u64(checksum64(out.data() + kHeaderSize, sizer.bytes));
  return out;
}

RoundCheckpoint RoundCheckpoint::deserialize(
    const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kHeaderSize) {
    throw CheckpointCorrupt("checkpoint shorter than its header");
  }
  if (std::memcmp(bytes.data(), kMagic, 4) != 0) {
    throw CheckpointCorrupt("checkpoint magic mismatch");
  }
  Reader header(bytes.data() + 4, kHeaderSize - 4);
  std::uint32_t version = 0;
  std::uint64_t payload_size = 0;
  std::uint64_t checksum = 0;
  header.u32(version);
  header.u64(payload_size);
  header.u64(checksum);
  if (version != kVersion) {
    throw CheckpointCorrupt("unsupported checkpoint version");
  }
  if (payload_size != bytes.size() - kHeaderSize) {
    throw CheckpointCorrupt("checkpoint payload size mismatch");
  }
  if (checksum64(bytes.data() + kHeaderSize, payload_size) != checksum) {
    throw CheckpointCorrupt("checkpoint checksum mismatch");
  }

  Reader in(bytes.data() + kHeaderSize, payload_size);
  RoundCheckpoint ck;
  fields(in, ck);
  if (!in.exhausted()) {
    throw CheckpointCorrupt("checkpoint payload has trailing bytes");
  }
  // The meters are restored as stored, so a running count above its peak —
  // a state no meter built by the mutators and merge() can reach — would
  // carry straight into the resumed solve.
  for (const ResourceMeter* meter : {&ck.solve_meter, &ck.substrate_meter}) {
    if (meter->stored_edges() > meter->peak_edges() ||
        meter->resident_edges() > meter->peak_resident_edges()) {
      throw CheckpointCorrupt("checkpoint meter has a running count above "
                              "its peak");
    }
  }
  return ck;
}

}  // namespace dp::core
