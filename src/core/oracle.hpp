#pragma once
// The MicroOracle — Algorithm 5 / Lemma 14 of the paper — and the
// MiniOracle wrapper (Lemma 10) that binary-searches the Lagrange
// multiplier rho and convex-combines two MicroOracle outputs so that the
// outer packing constraint z^T Po x <= (13/12) z^T qo holds.
//
// Given stored-edge multipliers us (from a refined deferred sparsifier),
// packing multipliers zeta on the (i, k) rows, the current budget beta and
// eps, the oracle either:
//   (i)  signals PRIMAL progress — the stored edges support a b-matching of
//        weight close to beta (Lemma 13); the driver then re-solves offline
//        and raises beta; or
//   (ii) returns a sparse dual point x = {x_i(k)} / {z_{U,l}} satisfying the
//        Lagrangian covering inequality LagInner, which the fractional
//        covering loop blends into the dual state.
//
// This is the solver's hot path. Its input is row-indexed (RowSample): the
// sample's (vertex, level) rows form a key-sorted table, each stored edge
// names its two endpoint rows by table position, and zeta is an array over
// table positions. The round pipeline builds the table once per round, so
// no iteration re-derives rows from edge ids or decodes packed keys. Step 1
// (per-row us sums and sum wHat_k us) runs once per Lagrangian search;
// every rho probe reuses it. Dense scratch is reused across invocations,
// and the per-vertex sweep plus the weighted_po membership scan run on a
// thread pool with FIXED chunk boundaries, so results are bitwise identical
// for any thread count. The edge-id entry points (run, run_lagrangian on
// StoredMultiplier lists and a ZetaMap) build the row form and feed the
// same path; they serve tests, bench_micro and the comparisons against the
// seed's hash-map implementation, retained in core/oracle_ref.hpp.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/dual_state.hpp"
#include "core/flat_duals.hpp"
#include "core/odd_sets.hpp"
#include "core/weight_levels.hpp"
#include "graph/graph.hpp"
#include "util/accounting.hpp"
#include "util/thread_pool.hpp"

namespace dp::core {

/// One stored edge with its refined multiplier u^s_{ijk}; the level k is
/// the edge's level in the LevelGraph.
struct StoredMultiplier {
  EdgeId edge;
  double us;
};

/// Sparse zeta_{ik} multipliers keyed by i * num_levels + k, sorted by key.
/// (The name survives from the unordered_map era; the representation is a
/// flat sorted vector now.)
using ZetaMap = SparseDuals;

/// Distinct (vertex, level) rows, key-sorted: row r has key
/// vertex[r] * L + level[r]. Table positions therefore order rows exactly
/// as their keys do.
struct RowTable {
  std::vector<std::uint64_t> key;
  std::vector<Vertex> vertex;
  std::vector<std::int32_t> level;

  std::size_t size() const noexcept { return key.size(); }
};

/// Numbers (vertex, level) rows without a sort: mark packed keys in any
/// order, then number() drains the key bitset over [0, n*L) into a fresh
/// table in key order, and position() maps each marked key to its row.
class RowIndex {
 public:
  /// Room for keys in [0, slots), slots = n * L.
  void reserve(std::size_t slots) {
    marks_.reserve(slots);
    if (row_at_.size() < slots) row_at_.resize(slots);
  }
  void mark(std::uint64_t key) noexcept { marks_.mark(key); }
  /// Replaces the table with the marked rows; the marks are cleared.
  void number(std::uint64_t levels) {
    table_.key.clear();
    table_.vertex.clear();
    table_.level.clear();
    marks_.drain([this, levels](std::uint64_t key) {
      row_at_[key] = static_cast<std::uint32_t>(table_.key.size());
      table_.key.push_back(key);
      table_.vertex.push_back(static_cast<Vertex>(key / levels));
      table_.level.push_back(static_cast<std::int32_t>(key % levels));
    });
  }
  /// Table position of a key marked before the last number().
  std::uint32_t position(std::uint64_t key) const noexcept {
    return row_at_[key];
  }
  const RowTable& table() const noexcept { return table_; }

 private:
  KeyBitset marks_;
  std::vector<std::uint32_t> row_at_;  // key -> table position
  RowTable table_;
};

/// One stored sample in the oracle's row-indexed form.
///  - Stored edges, in sample order: the refined multiplier us and the
///    table positions of the edge's (u, k) and (v, k) rows (u, v as the
///    graph stores them). Edges with us <= 0 carry nothing.
///  - zeta over ascending table positions `zeta_rows`, values aligned. The
///    list must hold every row a stored edge with us > 0 touches; a row
///    absent from the caller's zeta carries +0.0, which adds exactly
///    nothing to any zeta sum.
struct RowSample {
  const RowTable* rows = nullptr;
  std::span<const double> us;
  std::span<const std::uint32_t> row_u;
  std::span<const std::uint32_t> row_v;
  std::span<const std::uint32_t> zeta_rows;
  std::span<const double> zeta;
};

struct MicroResult {
  enum class Kind {
    kPrimal,  // case (i): beta is beatable on the stored edges
    kDual     // case (ii): x is a valid LagInner point
  };
  Kind kind = Kind::kDual;
  DualPoint x;          // meaningful for kDual (may be all-zero)
  double gamma = 0.0;   // diagnostic: the oracle's gamma value
};

/// Odd sets are separated on at most this many (lowest) active levels per
/// call (each costs a Gomory-Hu tree).
inline constexpr std::size_t kMaxSeparationLevels = 4;

/// Oracle execution settings. The odd-set separator's eps is not one of
/// them: both oracles pass OddSetOptions{.eps = lg.eps()}, so separation
/// always runs at the level graph's eps.
struct OracleConfig {
  /// Disable odd-set separation entirely (bipartite mode).
  bool use_odd_sets = true;
  /// Worker threads for the per-vertex sweep and membership scans
  /// (0 = hardware concurrency, 1 = serial). Results are independent of
  /// this value.
  std::size_t threads = 0;
  /// Below this many work items a parallel section runs inline; chunk
  /// boundaries are always derived from this grain, never the pool size.
  std::size_t parallel_grain = 1024;
};

/// Candidate odd sets per level, reusable across the rho probes of one
/// Lagrangian search: separation (an arena-backed Gomory-Hu pass per
/// level) runs once; every probe re-validates Equation (4) per candidate,
/// which keeps soundness independent of the cache. The per-candidate
/// static aux (b-weight and internal us mass) is also cached — it depends
/// only on the stored multipliers, which are fixed across the probes of
/// one Lagrangian search — so a probe recomputes nothing but the
/// rho-dependent zbar terms.
struct OddSetCache {
  struct LevelEntry {
    int level = -1;
    std::vector<std::vector<Vertex>> sets;
    /// Per-candidate ||U||_b and sum of us over edges internal to U;
    /// filled lazily on first use (aux_valid), identical for every probe.
    std::vector<std::int64_t> bw;
    std::vector<double> us_mass;
    bool aux_valid = false;
  };
  bool populated = false;
  std::vector<LevelEntry> by_level;

  LevelEntry* find(int level) {
    for (LevelEntry& e : by_level) {
      if (e.level == level) return &e;
    }
    return nullptr;
  }
  const LevelEntry* find(int level) const {
    for (const LevelEntry& e : by_level) {
      if (e.level == level) return &e;
    }
    return nullptr;
  }
};

/// NOT const-thread-safe: one oracle instance owns reusable mutable
/// scratch and a worker pool, so a single caller drives it at a time (the
/// parallelism lives *inside* an invocation). Use one MicroOracle per
/// concurrent caller.
class MicroOracle {
 public:
  MicroOracle(const LevelGraph& lg, const Capacities& b, OracleConfig config);
  ~MicroOracle();

  MicroOracle(const MicroOracle&) = delete;
  MicroOracle& operator=(const MicroOracle&) = delete;
  MicroOracle(MicroOracle&&) noexcept;
  MicroOracle& operator=(MicroOracle&&) noexcept;

  /// Lemma 10 wrapper: binary search over rho; returns either a primal
  /// signal or a dual point additionally satisfying
  /// zeta^T Po x <= (13/12) zeta^T qo. `calls` (optional) accumulates the
  /// number of MicroOracle invocations. The sample must stay unchanged
  /// for the duration of the call.
  MicroResult run_lagrangian(const RowSample& sample, double beta,
                             std::size_t* calls = nullptr) const;

  /// The same search on stored edge ids and a key-sorted zeta: builds the
  /// row form (edges off every level are dropped) and runs the overload
  /// above, so results are bitwise those of the row-indexed path.
  MicroResult run_lagrangian(const std::vector<StoredMultiplier>& us,
                             const ZetaMap& zeta, double beta,
                             std::size_t* calls = nullptr) const;

  /// One Algorithm-5 invocation at a fixed Lagrange multiplier rho (the
  /// paper's varrho), through the same row form. `cache`, if given,
  /// amortizes odd-set separation across invocations with the same stored
  /// multipliers.
  MicroResult run(const std::vector<StoredMultiplier>& us,
                  const ZetaMap& zeta, double beta, double rho,
                  OddSetCache* cache = nullptr) const;

  /// zeta-weighted outer packing value of a dual point:
  /// sum_{(i,k)} zeta_{ik} * (2 x_i(k) + sum_{l<=k} sum_{U ni i} z_{U,l}).
  double weighted_po(const DualPoint& x, const ZetaMap& zeta) const;

  /// zeta^T qo = sum zeta_{ik} * 3 wHat_k.
  double weighted_qo(const ZetaMap& zeta) const;

  /// The oracle's lazily created worker pool (nullptr when
  /// config.threads == 1). The round pipeline shares it for its own
  /// sweeps so one solve runs exactly one pool.
  ThreadPool* worker_pool() const { return pool(); }

  /// Aggregate Gomory-Hu / max-flow counters of the per-level separation
  /// engines this oracle owns (monotone across invocations; summed in
  /// fixed job-slot order, so identical for any thread count).
  ResourceMeter separation_stats() const;

 private:
  struct Scratch;  // reusable flat buffers; defined in oracle.cpp

  Scratch& scratch() const;
  ThreadPool* pool() const;

  /// Step 1, once per sample: per-row us sums into the scratch (indexed
  /// by table position), sum wHat_k us and the active levels.
  void prepare(const RowSample& sample) const;
  /// One Algorithm-5 probe at rho on the sample prepare() last saw.
  MicroResult probe(const RowSample& sample, double beta, double rho,
                    OddSetCache* cache) const;
  /// Builds the row form of an edge-id sample into the scratch.
  RowSample row_form(const std::vector<StoredMultiplier>& us,
                     const ZetaMap& zeta) const;
  /// weighted_po / weighted_qo on the row form.
  double weighted_po(const DualPoint& x, const RowSample& sample) const;
  double weighted_qo(const RowSample& sample) const;

  const LevelGraph* lg_;
  const Capacities* b_;
  OracleConfig config_;
  mutable std::unique_ptr<Scratch> scratch_;
  mutable std::unique_ptr<ThreadPool> pool_;
};

/// s1 * a + s2 * b on sparse dual points (merge-join on the sorted keys).
DualPoint combine_points(const DualPoint& a, double s1, const DualPoint& b,
                         double s2);

}  // namespace dp::core
