#pragma once
// Staged round pipeline — the execution engine behind one adaptive sampling
// round of Algorithm 2 (the body of Solver::solve's outer loop).
//
// A round decomposes into explicit stages over a RoundContext that owns the
// per-round buffers of the Multipliers/Draw/InnerRefine stages (those
// allocate nothing in steady state; OfflineResolve builds its own working
// set per round — one job in flight at a time, off the critical path when
// overlapped):
//
//   Multipliers ──> Draw ──┬── OfflineResolve ──┐
//                          └── InnerRefine ─────┴──> Merge
//
//  - open_round (the Multipliers stage's access half): ONE substrate sweep
//    over the retained edges filling the covering ratios, whose exact min
//    is lambda — the Corollary 6 stopping certificate. The solver checks
//    the stopping rule on the returned lambda; if the round proceeds, the
//    staged ratios feed the rest of Multipliers without another access.
//  - Multipliers: exponential covering multipliers u (Theorem 5 rule) from
//    the staged ratios, then the deferred-sparsifier inclusion
//    probabilities (sparsify/deferred).
//  - Draw: all t deferred sparsifiers through the access substrate
//    (core/sampling masks — in-memory sweep, streaming pass, or a real
//    MapReduce simulator round). The draw output is frozen until Merge.
//  - OfflineResolve: the offline (1-a3)-approximation on the union of
//    stored edges (Algorithm 2 step 5). Pure function of the frozen draw —
//    the union is materialized from the substrate's immutable stored-edge
//    attributes — so it runs as a one-shot pool job CONCURRENTLY with
//    InnerRefine.
//  - InnerRefine: the t inner multiplicative-weight iterations on the
//    stored samples (deferred refinement + MiniOracle + line-searched
//    blend). Reads the frozen draw and mutates only the dual state and the
//    incumbent's beta (Algorithm 3 step 5b raises). It first indexes the
//    round once: the union's attributes in one pass of batched fetches,
//    its (vertex, level) rows as a key-sorted table with two row positions
//    per union edge, and every sparsifier as lists of its union positions
//    and its rows. Each iteration then works on row positions: the
//    covering sweep reads a per-row x cache, zeta lives on the rows the
//    sparsifier touches, and the oracle takes the sample in that
//    row-indexed form (core/oracle's RowSample). The blend's step sigma
//    minimizes the sample's importance-weighted soft-min potential over
//    [PST step, 1/2] (step_size; a deviation from Theorem 5's fixed step,
//    see src/core/README.md).
//  - Merge: the single join point. Joins the OfflineResolve future, folds
//    the offline solution into the incumbent (best value + beta raise,
//    Algorithm 2 step 6), aggregates the per-stage ResourceMeters into the
//    solve meter in fixed stage order, and releases the round's stored
//    edges on the substrate meter.
//
// Determinism contract (extending the fixed-chunk contract): OfflineResolve
// and InnerRefine share only immutable inputs (the substrate's immutable
// stored-edge attributes, the frozen draw, the union support, the level
// graph's weight order), every sweep runs on fixed
// chunks with exact (min/max) reductions, and all cross-stage effects land
// at Merge — so the pipelined round is bitwise identical to executing the
// same stages sequentially (the 1-thread solve: no pool, so OfflineResolve
// runs inline), for any thread count AND for any access substrate (gated
// by tests/test_round_pipeline.cpp, tests/test_substrate.cpp, bench_runtime
// and bench_substrate).
//
// Access discipline: the pipeline touches the INPUT only through the
// substrate (open_round's sweep, the draw, and the stored-union
// materialization). Everything else reads solver-owned state: the dual
// iterate, level metadata, and the stored samples' attributes.

#include <cstdint>
#include <span>
#include <vector>

#include "access/substrate.hpp"
#include "core/dual_state.hpp"
#include "core/oracle.hpp"
#include "core/sampling.hpp"
#include "core/weight_levels.hpp"
#include "graph/graph.hpp"
#include "matching/approx.hpp"
#include "matching/matching.hpp"
#include "sparsify/deferred.hpp"
#include "util/accounting.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace dp::core {

/// Offline re-solve output: the solution lifted to full-graph edge ids plus
/// its positive-multiplicity support, so downstream consumers (normalized
/// value, merge) iterate the support instead of rescanning all m edges.
struct OfflineSolution {
  BMatching bm;
  std::vector<EdgeId> support;  // edges with multiplicity > 0, ascending
  double value = 0;             // original-weight value of bm
};

/// The incumbent primal solution and normalized budget beta shared by the
/// stages. InnerRefine raises beta on primal oracle signals; Merge folds in
/// the offline re-solve. Owned by the solver across rounds.
struct Incumbent {
  BMatching best;
  double value = 0;
  double beta = 0;
};

struct RoundPipelineOptions {
  double eps = 0.1;
  /// Sparsifiers (= inner MW iterations) per round; <= 32.
  std::size_t sparsifiers = 4;
  /// Fixed chunk grain of every pipeline sweep (the determinism contract).
  std::size_t grain = 1024;
  /// Deferred-sparsifier probability knobs for the Multipliers stage.
  DeferredOptions deferred;
  /// Offline solver knobs for OfflineResolve.
  ApproxOptions offline;
  /// Counter-RNG seed of the draw stream (pure function of (seed, round,
  /// q, edge) — see core/sampling).
  std::uint64_t sample_seed = 0;
  /// Cooperative stop (util/cancel), polled at every stage boundary and
  /// between inner MW iterations — the pipeline's safe points. Firing
  /// raises SolveAborted after the in-flight OfflineResolve job (if any)
  /// is joined, so no stage ever outlives the unwind. Unarmed by default.
  StopCheck stop;
};

class RoundPipeline {
 public:
  /// `substrate` must be bound to the same (graph, level graph) as `lg`;
  /// all of `substrate`, `lg`, `b` and `oracle` must outlive the pipeline.
  /// The pipeline shares the oracle's worker pool for every buffer sweep
  /// and for the OfflineResolve job — one solve, one pool.
  RoundPipeline(access::Substrate& substrate, const LevelGraph& lg,
                const Capacities& b, bool unit_caps, MicroOracle& oracle,
                RoundPipelineOptions options);

  struct RoundReport {
    std::size_t stored_edges = 0;
    std::size_t oracle_calls = 0;
  };

  /// The round's opening access: one substrate multiplier sweep filling
  /// the covering ratios; returns lambda = min ratio (the stopping
  /// certificate). On the streaming substrate this charges the round
  /// iteration's single pass. The staged ratios stay valid for the next
  /// run_round call, provided the dual state is not mutated in between.
  double open_round(const DualState& state);

  /// Execute the rest of the round on the ratios staged by open_round:
  /// Multipliers -> Draw -> OfflineResolve (async) with InnerRefine ->
  /// Merge. `lambda` must be open_round's return value (sets the PST
  /// temperature alpha). Mutates the dual state and the incumbent; merges
  /// the per-stage meters into `meter` at the join point. The offline job
  /// is joined before run_round returns or throws.
  RoundReport run_round(std::size_t round, double lambda, DualState& state,
                        Incumbent& inc, ResourceMeter& meter);

  /// Offline re-solve on an explicit stored subgraph: full-graph edge ids
  /// plus their attributes (parallel arrays; the attributes become the
  /// subgraph's edge list). The initial support and the per-round union
  /// both route through here; only stored-edge data is read. The ids must
  /// strictly ascend: the local search and the b-matching solver filter
  /// the subgraph's weight order from the level graph's, which keeps ties
  /// in id order only then, and throw std::invalid_argument otherwise (the
  /// exact dispatch reads no order).
  OfflineSolution solve_offline(const std::vector<EdgeId>& ids,
                                std::vector<Edge> edges) const;

  /// Algorithm 2 step 6: fold an offline solution into the incumbent —
  /// remember the best integral solution and raise beta when the
  /// normalized value (over the solution's support) beats it. Returns
  /// that normalized (level-weight) value.
  double merge_offline(const OfflineSolution& sol, Incumbent& inc) const;

 private:
  /// Reusable per-round scratch; every stage writes only its own buffers.
  struct RoundContext {
    // open_round / Multipliers stage.
    std::vector<double> cov_ratio;    // staged covering ratios
    std::vector<double> cov_partial;  // chunked reductions
    std::vector<double> divisor;      // level-weight gather for the sweeps
    std::vector<double> promise;
    std::vector<double> prob;
    DeferredScratch deferred_scratch;
    // InnerRefine stage, indexed once per round (index_round).
    std::vector<access::RetainedEdge> attr_chunk;  // one gather chunk
    RowIndex rows;                       // the union's rows, key-sorted
    std::vector<std::uint32_t> row_mask;    // per row: sparsifiers on it
    std::vector<std::uint32_t> edge_row_u;  // per union edge: (u, k) row
    std::vector<std::uint32_t> edge_row_v;  // (v, k) row
    std::vector<std::int32_t> edge_level;
    std::vector<double> edge_prob;          // inclusion probability
    std::vector<std::uint32_t> edge_mask;   // sparsifiers holding it
    // Per sparsifier q, bit-major: its union positions in
    // sparsifier_edges[edge_start[q], edge_start[q + 1]) and its rows in
    // sparsifier_rows[row_start[q], row_start[q + 1]), both ascending.
    std::vector<std::uint32_t> sparsifier_edges;
    std::vector<std::size_t> edge_start;
    std::vector<std::uint32_t> sparsifier_rows;
    std::vector<std::size_t> row_start;
    std::vector<std::uint32_t> chunk_counts;  // chunk x q counts/cursors
    // InnerRefine stage, per iteration.
    std::vector<double> x_row;  // x(i, k) per union row, since last blend
    std::vector<double> ratio;           // per sample edge, under the state
    std::vector<double> us;              // per sample edge
    std::vector<std::uint32_t> row_u;    // per sample edge
    std::vector<std::uint32_t> row_v;
    std::vector<double> zeta;            // per zeta row of the sample
    // The step search, per sample edge: the potential's exponent at sigma
    // is sigma * slope - alpha * ratio; weighted = slope / p_e; expo is
    // scratch.
    std::vector<double> point_row;  // the point's x per union row
    std::vector<double> slope;
    std::vector<double> weighted;
    std::vector<double> expo;
    // Per-stage meters, merged (in this order) at the Merge stage. The
    // draw's round/pass/store accounting lives on the substrate meter.
    ResourceMeter offline_meter;
    ResourceMeter inner_meter;
  };

  /// Stage 1 (compute half): alpha from lambda, promise multipliers from
  /// the staged ratios, inclusion probabilities. Returns alpha.
  double stage_multipliers(double lambda, std::size_t round);
  /// Stage 2: batched draw of all t sparsifiers through the substrate.
  const SamplingRound& stage_draw(std::size_t round);
  /// Stage 3: launch the offline re-solve on the union as a one-shot job
  /// (inline when no pool exists).
  Future<OfflineSolution> stage_offline(const SamplingRound& draws);
  /// Stage 4: the t inner MW iterations on the stored samples.
  void stage_inner(const SamplingRound& draws, double alpha,
                   DualState& state, Incumbent& inc, RoundReport& report);
  /// Stage 5: join the offline future, fold it into the incumbent, merge
  /// the stage meters into `meter`, release the round's stored edges.
  void stage_merge(Future<OfflineSolution>& offline, Incumbent& inc,
                   ResourceMeter& meter, std::size_t stored_total);

  /// InnerRefine's once-per-round index of the frozen draw: gathers the
  /// union's attributes (the round's one stored-attribute access, through
  /// the substrate's batched stored_attrs), numbers the union's (vertex,
  /// level) rows through the n*L key bitset, gives every union edge its
  /// two row positions, level and probability, and lists each
  /// sparsifier's union positions and rows.
  void index_round(const SamplingRound& draws);
  /// Refined multipliers us_e = max(u_e, floor) / p_e (Theorem 5 rule on
  /// the CURRENT duals) for the sample's `s` union positions `sel`, with
  /// its row positions, on fixed-grain chunks with exact min/max
  /// reductions (bitwise thread-count-invariant).
  void sample_multipliers(const DualState& state, double alpha,
                          const std::uint32_t* sel, std::size_t s);
  /// zeta on the sample's rows `zeta_rows`: exp sweeps with an exact max
  /// reduction.
  void sample_zeta(const DualState& state,
                   std::span<const std::uint32_t> zeta_rows);
  /// The blend step for `point` on the sample `sel` of `s` edges whose
  /// state ratios sample_multipliers left in ctx_.ratio: the minimizer
  /// over [sigma_pst, 1/2] of the potential
  ///   Phi(sigma) = sum_e (1/p_e) exp(-alpha ((1 - sigma) r_e + sigma r'_e)),
  /// r'_e the ratio under the point, odd-set terms included. Safeguarded
  /// Newton from `warm`, bracketed by the sign of Phi'; sigma_pst whenever
  /// Phi'(sigma_pst) >= 0. Sums run on fixed-grain chunks, so the step is
  /// bitwise thread-count-invariant.
  double step_size(const DualPoint& point, double alpha, double sigma_pst,
                   double warm, const std::uint32_t* sel, std::size_t s);
  /// Phi' and Phi'' at sigma on the terms step_size prepared, each split
  /// into the sums of its positive and its negative terms (Phi'' = the two
  /// second sums), all divided by the same positive factor: exp of the
  /// largest exponent.
  struct PotentialSlope {
    double pos = 0;
    double neg = 0;
    double pos_second = 0;
    double neg_second = 0;
  };
  PotentialSlope potential_slope(double alpha, double sigma, std::size_t s);

  access::Substrate* substrate_;
  const LevelGraph* lg_;
  const Capacities* b_;
  bool unit_caps_;
  MicroOracle* oracle_;
  ThreadPool* pool_;
  RoundPipelineOptions options_;
  CounterRng sample_rng_;
  double staged_min_ratio_ = 0.0;  // open_round's exact min (= lambda)
  // Last-seen oracle separation counters; stage_inner differences against
  // this snapshot to charge each round's max-flow work to its own meter.
  ResourceMeter sep_seen_;
  RoundContext ctx_;
  DualState point_;  // step_size's oracle point, as a state
};

}  // namespace dp::core
