#include "core/checkpoint.hpp"

#include <bit>
#include <cstring>

#include "util/error.hpp"

namespace dp::core {

namespace {

constexpr std::uint8_t kMagic[4] = {'D', 'P', 'C', 'K'};
constexpr std::size_t kHeaderSize = 4 + 4 + 8 + 8;

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t len) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t x) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(x >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(x >> (8 * i)));
}

void put_i64(std::vector<std::uint8_t>& out, std::int64_t x) {
  put_u64(out, static_cast<std::uint64_t>(x));
}

void put_i32(std::vector<std::uint8_t>& out, std::int32_t x) {
  put_u32(out, static_cast<std::uint32_t>(x));
}

void put_f64(std::vector<std::uint8_t>& out, double x) {
  put_u64(out, std::bit_cast<std::uint64_t>(x));
}

void patch_u64(std::vector<std::uint8_t>& out, std::size_t at,
               std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    out[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(x >> (8 * i));
  }
}

/// Bounds-checked little-endian reader: every overrun is a corruption.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len) : data_(data), len_(len) {}

  std::uint32_t u32() {
    need(4);
    std::uint32_t x = 0;
    for (int i = 0; i < 4; ++i) {
      x |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return x;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t x = 0;
    for (int i = 0; i < 8; ++i) {
      x |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return x;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }

  /// A count about to drive a vector reserve/loop: cap it by the bytes
  /// actually remaining so a corrupted length cannot demand gigabytes.
  std::uint64_t count(std::size_t elem_bytes) {
    const std::uint64_t k = u64();
    if (elem_bytes > 0 && k > (len_ - pos_) / elem_bytes) {
      throw CheckpointCorrupt(
          "checkpoint payload truncated: element count exceeds the bytes "
          "that remain");
    }
    return k;
  }

  bool exhausted() const noexcept { return pos_ == len_; }

 private:
  void need(std::size_t k) {
    if (len_ - pos_ < k) {
      throw CheckpointCorrupt("checkpoint payload truncated mid-field");
    }
  }

  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

// The meter block: every ResourceMeter counter as one u64, in enum order.
static_assert(ResourceMeter::kCounterCount == 22,
              "checkpoint v5 carries 22 meter counters; a new counter "
              "changes the wire format, so bump RoundCheckpoint::kVersion");
constexpr std::size_t kMeterBytes = 8 * ResourceMeter::kCounterCount;

void put_meter(std::vector<std::uint8_t>& out, const ResourceMeter& meter) {
  for (const std::uint64_t value : meter.counters()) put_u64(out, value);
}

ResourceMeter get_meter(Reader& in) {
  ResourceMeter::Counters values{};
  for (std::uint64_t& value : values) value = in.u64();
  return ResourceMeter(values);
}

}  // namespace

std::vector<std::uint8_t> RoundCheckpoint::serialize() const {
  // Serialization must stay cheap relative to a round (the <5% overhead
  // gate of bench_faults): the payload is built in place behind a
  // placeholder header — no second copy — with the exact size reserved up
  // front, and the size/checksum fields patched at the end. Exact size:
  // identity 76, position 24, incumbent 24 + 16 per support entry, dual
  // iterate 16 + 16 per xik pair + 8 + 8 per xi + 8 + 20 per odd set + 4
  // per member, history 8 + 48 per round, then the two meter blocks.
  std::size_t member_bytes = 0;
  for (const OddSetVar& var : odd_sets) {
    member_bytes += 4 * var.members.size();
  }
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderSize + 76 + 24 + 24 + best_support.size() * 16 + 16 +
              xik.size() * 16 + 8 + xi.size() * 8 + 8 +
              odd_sets.size() * 20 + member_bytes + 8 + history.size() * 48 +
              2 * kMeterBytes);
  for (const std::uint8_t b : kMagic) out.push_back(b);
  put_u32(out, kVersion);
  put_u64(out, 0);  // payload size, patched below
  put_u64(out, 0);  // checksum, patched below
  std::vector<std::uint8_t>& payload = out;
  // Identity.
  put_u64(payload, solver_seed);
  put_f64(payload, eps);
  put_f64(payload, p);
  put_u64(payload, sparsifiers);
  put_u64(payload, sample_seed);
  put_u64(payload, n);
  put_u64(payload, m);
  put_u64(payload, retained);
  put_i32(payload, levels);
  put_u64(payload, graph_generation);
  // Position.
  put_u64(payload, next_round);
  put_u64(payload, outer_rounds);
  put_u64(payload, oracle_calls);
  // Incumbent.
  put_f64(payload, best_value);
  put_f64(payload, beta);
  put_u64(payload, best_support.size());
  for (const auto& [edge, mult] : best_support) {
    put_u64(payload, edge);
    put_i64(payload, mult);
  }
  // Dual iterate.
  put_f64(payload, scale);
  put_u64(payload, xik.size());
  for (const auto& [key, value] : xik) {
    put_u64(payload, key);
    put_f64(payload, value);
  }
  put_u64(payload, xi.size());
  for (const double value : xi) put_f64(payload, value);
  put_u64(payload, odd_sets.size());
  for (const OddSetVar& var : odd_sets) {
    put_i32(payload, var.level);
    put_f64(payload, var.value);
    put_u64(payload, var.members.size());
    for (const Vertex v : var.members) put_u32(payload, v);
  }
  // History.
  put_u64(payload, history.size());
  for (const RoundStats& rs : history) {
    put_u64(payload, rs.round);
    put_f64(payload, rs.lambda);
    put_f64(payload, rs.beta);
    put_f64(payload, rs.best_value);
    put_u64(payload, rs.stored_edges);
    put_u64(payload, rs.oracle_calls);
  }
  // Meters.
  put_meter(payload, solve_meter);
  put_meter(payload, substrate_meter);

  const std::uint64_t payload_size = out.size() - kHeaderSize;
  patch_u64(out, 8, payload_size);
  patch_u64(out, 16, fnv1a(out.data() + kHeaderSize, payload_size));
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
  const std::uint32_t version = header.u32();
  if (version != kVersion) {
    throw CheckpointCorrupt("unsupported checkpoint version");
  }
  const std::uint64_t payload_size = header.u64();
  const std::uint64_t checksum = header.u64();
  if (payload_size != bytes.size() - kHeaderSize) {
    throw CheckpointCorrupt("checkpoint payload size mismatch");
  }
  if (fnv1a(bytes.data() + kHeaderSize, payload_size) != checksum) {
    throw CheckpointCorrupt("checkpoint checksum mismatch");
  }

  Reader in(bytes.data() + kHeaderSize, payload_size);
  RoundCheckpoint ck;
  ck.solver_seed = in.u64();
  ck.eps = in.f64();
  ck.p = in.f64();
  ck.sparsifiers = in.u64();
  ck.sample_seed = in.u64();
  ck.n = in.u64();
  ck.m = in.u64();
  ck.retained = in.u64();
  ck.levels = in.i32();
  ck.graph_generation = in.u64();
  ck.next_round = in.u64();
  ck.outer_rounds = in.u64();
  ck.oracle_calls = in.u64();
  ck.best_value = in.f64();
  ck.beta = in.f64();
  const std::uint64_t support_count = in.count(16);
  ck.best_support.reserve(support_count);
  for (std::uint64_t i = 0; i < support_count; ++i) {
    const std::uint64_t edge = in.u64();
    const std::int64_t mult = in.i64();
    ck.best_support.emplace_back(edge, mult);
  }
  ck.scale = in.f64();
  const std::uint64_t xik_count = in.count(16);
  ck.xik.reserve(xik_count);
  for (std::uint64_t i = 0; i < xik_count; ++i) {
    const std::uint64_t key = in.u64();
    const double value = in.f64();
    ck.xik.emplace_back(key, value);
  }
  const std::uint64_t xi_count = in.count(8);
  ck.xi.reserve(xi_count);
  for (std::uint64_t i = 0; i < xi_count; ++i) ck.xi.push_back(in.f64());
  // Each odd set takes at least 20 bytes: level i32, value f64 and its
  // member count u64.
  const std::uint64_t set_count = in.count(20);
  ck.odd_sets.reserve(set_count);
  for (std::uint64_t i = 0; i < set_count; ++i) {
    OddSetVar var;
    var.level = in.i32();
    var.value = in.f64();
    const std::uint64_t member_count = in.count(4);
    var.members.reserve(member_count);
    for (std::uint64_t j = 0; j < member_count; ++j) {
      var.members.push_back(in.u32());
    }
    ck.odd_sets.push_back(std::move(var));
  }
  const std::uint64_t history_count = in.count(48);
  ck.history.reserve(history_count);
  for (std::uint64_t i = 0; i < history_count; ++i) {
    RoundStats rs;
    rs.round = in.u64();
    rs.lambda = in.f64();
    rs.beta = in.f64();
    rs.best_value = in.f64();
    rs.stored_edges = in.u64();
    rs.oracle_calls = in.u64();
    ck.history.push_back(rs);
  }
  ck.solve_meter = get_meter(in);
  ck.substrate_meter = get_meter(in);
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
