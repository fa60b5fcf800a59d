#pragma once
// Public facade: the dual-primal (1-eps)-approximate weighted nonbipartite
// b-matching solver of Ahn-Guha (SPAA 2015) — Algorithms 1/2/4, Theorem 15.
//
// One outer iteration (an *adaptive sampling round*):
//   1. Compute exponential multipliers u from the current dual state
//      (Theorem 5 / Corollary 6 rule) over all retained edges.
//   2. Build t = O(eps^-1 log gamma) independent deferred sparsifiers from
//      the promise weights u, gamma = n^{1/(2p)} — ONE round of access to
//      the input, O(n^{1+1/p}) stored edges.
//   3. Run the offline (1-a3)-approximation on the union of stored edges;
//      raise beta and remember the best integral solution (Algorithm 2
//      step 5/6).
//   4. For q = 1..t: refine sparsifier q with the CURRENT multipliers
//      (deferred refinement — no new data access), invoke the MiniOracle
//      (Lemma 10 binary search over MicroOracle = Algorithm 5), and blend
//      the returned dual point into the state with the PST step size.
//   5. Stop when lambda = min_e (Ax)_e / wHat_e >= 1 - 3 eps: the scaled
//      dual state is then a feasible dual, certifying near-optimality of
//      the best primal found (condition (d1)).
//
// Steps 1-4 execute as the staged round pipeline of core/round_pipeline
// (Multipliers -> Draw -> OfflineResolve || InnerRefine -> Merge): the
// offline re-solve (step 3) runs concurrently with the inner iterations
// (step 4) — they share only the frozen draw — and their effects join at a
// single merge point inside the round, so the result is bitwise identical
// for any thread count to the 1-thread solve, which runs the stages one
// after another.
//
// The solver meters rounds, stored edges and oracle calls, and reports a
// rigorous dual upper bound: objective(x)/lambda is feasible for LP10/LP11
// whenever lambda > 0, so value/bound is a true approximation certificate.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/certificate.hpp"
#include "core/dual_state.hpp"
#include "core/oracle.hpp"
#include "core/weight_levels.hpp"
#include "graph/graph.hpp"
#include "matching/approx.hpp"
#include "matching/matching.hpp"
#include "util/accounting.hpp"
#include "util/cancel.hpp"
#include "util/fault.hpp"

namespace dp::access {
class Substrate;
}

namespace dp::dyn {
struct EdgeDelta;  // dynamic/delta.hpp
}

namespace dp::core {

struct RoundCheckpoint;  // core/checkpoint.hpp

/// How a solve ended.
enum class SolverStatus {
  /// The round loop ran to its stopping rule (or round budget).
  kComplete,
  /// A substrate fault exhausted its retry budget mid-round; the result is
  /// the best primal found so far with its certificate-backed ratio (the
  /// dual iterate from the completed rounds is still a sound bound).
  kDegraded,
  /// An on_checkpoint callback returned false after a completed round.
  kInterrupted,
  /// The wall-clock deadline (SolverOptions::deadline) expired at a safe
  /// point. The result is ANYTIME: the best primal found so far with an
  /// exactly certified ratio, plus the last completed round's checkpoint
  /// (SolverResult::checkpoint) so a re-submitted solve warm-resumes.
  kDeadline,
  /// SolverOptions::cancel was cancelled at a safe point. Same anytime
  /// guarantees as kDeadline.
  kCancelled,
};

struct SolverOptions {
  /// Target approximation slack (0 < eps <= 1/4 recommended).
  double eps = 0.1;
  /// Space exponent p > 1: per-round storage ~ n^{1+1/p}.
  double p = 2.0;
  std::uint64_t seed = 42;
  /// Cap on outer sampling rounds (0 = automatic: ~4 ceil(p/eps) + 4).
  std::size_t max_outer_rounds = 0;
  /// Sparsifiers (= inner MW iterations) per round (0 = eps^-1 log gamma).
  /// Clamped to kMaxSparsifiersPerRound (32): the batched sampling engine
  /// packs the round's inclusion decisions into 32-bit per-edge masks.
  std::size_t sparsifiers_per_round = 0;
  /// Oracle configuration (odd-set separation etc.).
  OracleConfig oracle;
  /// Offline solver knobs for the stored subgraph.
  ApproxOptions offline;
  /// Stop as soon as best/bound >= 1 - certified_gap (0 = only lambda rule).
  double target_ratio = 0.0;
  /// Access substrate the whole solve runs through (src/access): nullptr =
  /// an internal in-memory substrate; otherwise a caller-owned backend
  /// (streaming / MapReduce / custom) the solver bind()s for this solve.
  /// For a fixed seed the SolverResult (value, lambda, beta, certified
  /// ratio, history, stored counts) is bitwise identical across
  /// substrates; only the substrate's ResourceMeter — merged into
  /// SolverResult::meter — reflects the access model's cost.
  access::Substrate* substrate = nullptr;
  /// Cap (in edge units) on the access layer's RESIDENT edge-attribute
  /// records — the materialized attribute table, IO block buffers, the
  /// file backend's stored-sample cache — installed on the substrate
  /// before bind(); 0 = unlimited. Exceeding it is a typed ConfigError at
  /// the charge point (for an in-RAM table that is bind() itself), never a
  /// silent RAM spike: a solve over a graph bigger than the budget must go
  /// through the file-backed streaming substrate, whose resident state
  /// stays o(m). Purely an admission/accounting control — it never changes
  /// an admitted solve's result.
  std::size_t memory_budget_edges = 0;
  /// Fault injection + retry budget, installed on the substrate before
  /// bind() (src/access wires the injection sites; the in-memory reference
  /// has none). Retries are invisible to the result — sampling masks and
  /// sweep kernels are pure, so a survived fault changes only the meter.
  /// An EXHAUSTED budget degrades gracefully: the solve returns the best
  /// primal so far with SolverStatus::kDegraded instead of throwing.
  FaultPlan faults;
  /// Invoked after every completed outer round with a checkpoint that
  /// resumes the solve bitwise-identically (core/checkpoint). Return false
  /// to stop the solve (SolverStatus::kInterrupted). The callback owns
  /// persistence — typically RoundCheckpoint::serialize to stable storage.
  std::function<bool(const RoundCheckpoint&)> on_checkpoint;
  /// Resume from a checkpoint produced by on_checkpoint for the SAME solve
  /// configuration and instance (validated; ConfigError on mismatch). Must
  /// outlive solve(). The resumed run replays nothing: it restores the
  /// dual iterate, incumbent, history and meters, then continues at
  /// next_round.
  const RoundCheckpoint* resume_from = nullptr;
  /// Cooperative cancellation (util/cancel): polled at the round-loop top,
  /// at pipeline stage boundaries, between inner MW iterations and between
  /// EdgeStream pass chunks. Unarmed by default. Cancelling returns the
  /// anytime result (SolverStatus::kCancelled).
  CancelToken cancel;
  /// Wall-clock budget on a Clock (unarmed by default); polled at the same
  /// safe points. Expiry returns the anytime result (kDeadline). Use a
  /// FakeClock to make deadline behaviour deterministic in tests.
  Deadline deadline;
  /// Mutation generation of the graph this solve runs against (a
  /// DynamicGraph's delta counter; 0 for static graphs). Part of the
  /// checkpoint identity: a checkpoint cut before a delta is a typed
  /// rejection on resume, never a silent wrong-graph solve — n, m and even
  /// the retained count can all survive a remove+insert delta unchanged.
  std::uint64_t graph_generation = 0;
};

struct RoundStats {
  std::size_t round = 0;
  double lambda = 0;
  double beta = 0;
  double best_value = 0;  // original weights
  std::size_t stored_edges = 0;
  std::size_t oracle_calls = 0;
};

/// Warm-start handle emitted by every solve: the final dual iterate plus
/// the identity of the configuration/instance it certifies. This is the
/// "learned duals" seed for Solver::resolve after an edge delta — the
/// duals transfer because unchanged covering rows keep their values
/// bitwise when the level structure (W*, L) is preserved; deletes only
/// remove rows; and inserted rows are repaired locally. It deliberately
/// carries NO primal support: edge ids change across canonical
/// re-materializations, so the incumbent is re-anchored by an offline
/// solve on the post-delta graph instead.
struct WarmStart {
  // -- Identity (validated by resolve; mismatch falls back to scratch). --
  std::uint64_t solver_seed = 0;
  double eps = 0;
  double p = 0;
  std::uint64_t sparsifiers = 0;  // resolved t
  std::uint64_t n = 0;
  std::int32_t levels = 0;
  double w_star = 0;  // level-structure fingerprint (bit compare)
  std::uint64_t graph_generation = 0;
  // -- The dual iterate (DualState::restore's input). --
  DualSnapshot duals;
  double lambda = 0;  // certificate level the iterate reached
  // -- Cost of the solve that produced it (saved-work baselines). --
  std::size_t outer_rounds = 0;
  std::size_t passes = 0;
};

struct SolverResult {
  /// Best integral b-matching found (multiplicities; for unit capacities
  /// every multiplicity is one).
  BMatching b_matching;
  /// Same solution as a plain matching when all capacities are 1.
  Matching matching;
  /// Original-weight value of the solution.
  double value = 0;
  /// Rigorous dual upper bound on the optimum (original weights).
  double dual_bound = 0;
  /// Which dual gave dual_bound, and the MW certificate's own bound (0
  /// when its extraction is infeasible). Computed once, at the end of the
  /// solve.
  BoundSource bound_source = BoundSource::kTrivial;
  double mw_bound = 0;
  /// value / dual_bound (certified approximation factor).
  double certified_ratio = 0;
  double lambda = 0;
  double beta = 0;  // final normalized budget
  std::size_t outer_rounds = 0;
  std::size_t oracle_calls = 0;
  ResourceMeter meter;
  std::vector<RoundStats> history;
  /// How the solve ended (kDegraded/kInterrupted/kDeadline/kCancelled
  /// results still carry a rigorous dual_bound and certified_ratio for the
  /// value returned).
  SolverStatus status = SolverStatus::kComplete;
  /// For kDegraded: the exhausted fault's message (site/round/attempt).
  std::string fault_detail;
  /// The last completed round's checkpoint whenever the solve stopped
  /// early (kInterrupted/kDeadline/kCancelled/kDegraded) and at least one
  /// round finished with checkpointing active — checkpoints are built per
  /// round when on_checkpoint is set OR a cancel token / deadline is
  /// armed. Resume via Solver::solve(*checkpoint) continues the solve
  /// bitwise-identically; null when the solve ran to completion (or
  /// stopped before round 1).
  std::shared_ptr<const RoundCheckpoint> checkpoint;
  /// Warm-start handle for Solver::resolve after the next edge delta.
  std::shared_ptr<const WarmStart> warm;
  /// True iff this result came from resolve()'s warm path (restored duals
  /// + feasibility repair) rather than a from-scratch round loop.
  bool warm_resolve = false;
  /// Why resolve() fell back to a from-scratch solve ("" = it didn't).
  std::string resolve_fallback;
};

class Solver {
 public:
  /// The graph and capacities must outlive the solver.
  Solver(const Graph& g, const Capacities& b, SolverOptions options);

  /// Unit capacities.
  Solver(const Graph& g, SolverOptions options);

  SolverResult solve();

  /// Resume from `resume_from` (overrides SolverOptions::resume_from).
  SolverResult solve(const RoundCheckpoint& resume_from);

  /// Incremental re-solve after edge churn. The solver's graph must be the
  /// POST-delta graph; `prev` is the warm handle of a solve on the
  /// pre-delta graph and `delta` the net effective churn between the two
  /// (DynamicGraph::delta_since). Seeds the dual state from `prev` via
  /// DualState::restore, runs the deterministic feasibility-repair pass
  /// (raise only the covering rows of inserted edges), re-anchors the
  /// incumbent with one canonical offline solve, then iterates MW rounds
  /// with the existing round pipeline until the exact-lambda certificate
  /// re-certifies — zero rounds when the repaired iterate still clears the
  /// 1 - 3 eps bar. Falls back to a from-scratch solve (with
  /// SolverResult::resolve_fallback saying why) when the warm identity
  /// does not transfer: changed configuration, changed vertex count, a
  /// delta that moved the level structure (W* / level count), under which
  /// the stale duals certify nothing, or a handle whose duals do not fit
  /// the post-delta instance (DualSnapshot::fits).
  SolverResult resolve(const WarmStart& prev, const dyn::EdgeDelta& delta);

 private:
  /// `levels`, when given, is this solve's level graph, already built
  /// (resolve() validates the warm handle against it).
  SolverResult solve_impl(const RoundCheckpoint* resume,
                          const WarmStart* warm = nullptr,
                          const dyn::EdgeDelta* delta = nullptr,
                          const LevelGraph* levels = nullptr);

  const Graph* g_;
  Capacities b_;
  SolverOptions options_;
};

/// One-call convenience API for ordinary weighted matching.
SolverResult solve_matching(const Graph& g, const SolverOptions& options);

/// One-call convenience API for weighted b-matching.
SolverResult solve_b_matching(const Graph& g, const Capacities& b,
                              const SolverOptions& options);

}  // namespace dp::core
