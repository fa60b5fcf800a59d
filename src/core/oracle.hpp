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
// This is the solver's hot path. All dual variables live in flat
// level-indexed buffers (core/flat_duals.hpp): dense scratch is reused
// across invocations, per-vertex indexes come from draining a bitset over
// packed (i, k) keys instead of hashing, and the per-vertex sweep plus the
// weighted_po membership scan run on a thread pool with FIXED chunk
// boundaries, so results are bitwise identical for any thread count. The
// seed's hash-map implementation is retained in core/oracle_ref.hpp as the
// equivalence baseline for tests and benchmarks.

#include <cstdint>
#include <memory>
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

struct MicroResult {
  enum class Kind {
    kPrimal,  // case (i): beta is beatable on the stored edges
    kDual     // case (ii): x is a valid LagInner point
  };
  Kind kind = Kind::kDual;
  DualPoint x;          // meaningful for kDual (may be all-zero)
  double gamma = 0.0;   // diagnostic: the oracle's gamma value
};

struct OracleConfig {
  OddSetOptions odd;
  /// Separate odd sets on at most this many (lowest) active levels per call
  /// (each costs a Gomory-Hu tree). 0 = all active levels.
  std::size_t max_separation_levels = 4;
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

  /// One Algorithm-5 invocation at a fixed Lagrange multiplier rho (the
  /// paper's varrho). `cache`, if given, amortizes odd-set separation
  /// across invocations with the same stored multipliers.
  MicroResult run(const std::vector<StoredMultiplier>& us,
                  const ZetaMap& zeta, double beta, double rho,
                  OddSetCache* cache = nullptr) const;

  /// Lemma 10 wrapper: binary search over rho; returns either a primal
  /// signal or a dual point additionally satisfying
  /// zeta^T Po x <= (13/12) zeta^T qo. `calls` (optional) accumulates the
  /// number of MicroOracle invocations.
  MicroResult run_lagrangian(const std::vector<StoredMultiplier>& us,
                             const ZetaMap& zeta, double beta,
                             std::size_t* calls = nullptr) const;

  /// zeta-weighted outer packing value of a dual point:
  /// sum_{(i,k)} zeta_{ik} * (2 x_i(k) + sum_{l<=k} sum_{U ni i} z_{U,l}).
  double weighted_po(const DualPoint& x, const ZetaMap& zeta) const;

  /// zeta^T qo = sum zeta_{ik} * 3 wHat_k.
  double weighted_qo(const ZetaMap& zeta) const;

  /// The oracle's lazily created worker pool (nullptr when
  /// config.threads == 1). The solver shares it for its own sweeps
  /// (lambda, covering_us) so one solve runs exactly one pool.
  ThreadPool* worker_pool() const { return pool(); }

  /// Aggregate Gomory-Hu / max-flow counters of the per-level separation
  /// engines this oracle owns (monotone across invocations; summed in
  /// fixed job-slot order, so identical for any thread count).
  ResourceMeter separation_stats() const;

 private:
  struct Scratch;  // reusable flat buffers; defined in oracle.cpp

  Scratch& scratch() const;
  ThreadPool* pool() const;

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
