#include "core/solver.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <utility>

#include "access/in_memory.hpp"
#include "core/certificate.hpp"
#include "core/checkpoint.hpp"
#include "core/initial.hpp"
#include "core/round_pipeline.hpp"
#include "core/sampling.hpp"
#include "dynamic/delta.hpp"
#include "matching/greedy.hpp"
#include "sparsify/deferred.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace dp::core {

namespace {

/// Lemma 12's start at the lemma's own budget. build_initial gives every
/// saturated (v, k) the value r wHat_k with r = eps/256; this rescales r to
/// r0 = max(eps/256, norm0 / (2 S)), S = sum_v b_v max{wHat_k : v
/// saturated at level k}. norm0 is a b-matching's level-weight value, so
/// norm0 <= beta* and b^T x0 = r0 S <= beta*/2, while every retained edge
/// keeps a saturated endpoint at its level, so A x0 >= r0 c still holds.
DualPoint lemma12_start(const DualPoint& x0, const LevelGraph& lg,
                        const Capacities& b, double norm0) {
  const auto levels = static_cast<std::uint64_t>(lg.num_levels());
  // S over the point's vertex-major keys: one run of levels per vertex.
  double budget = 0;
  std::uint64_t run_vertex = 0;
  double run_max = 0;
  const auto flush = [&] {
    if (run_max > 0) {
      budget += static_cast<double>(b[static_cast<Vertex>(run_vertex)]) *
                run_max;
    }
    run_max = 0;
  };
  for (const auto& [key, value] : x0.xik) {
    if (key / levels != run_vertex) flush();
    run_vertex = key / levels;
    run_max = std::max(run_max,
                       lg.level_weight(static_cast<int>(key % levels)));
  }
  flush();
  const double r0 = norm0 / (2.0 * budget);
  if (!(budget > 0) || !(r0 > lg.eps() / 256.0)) return x0;
  DualPoint start;
  start.xik.reserve(x0.xik.size());
  for (const auto& [key, value] : x0.xik) {
    start.xik.append(key,
                     r0 * lg.level_weight(static_cast<int>(key % levels)));
  }
  return start;
}

/// t, the sparsifiers (inner MW iterations) per round: the option, or
/// eps^-1 log gamma with gamma = n^{1/(2p)}, clamped to [2, 24]; capped by
/// the sampling engine's 32-bit masks either way.
std::size_t sparsifier_count(const SolverOptions& options, std::size_t n,
                             double p) {
  std::size_t t = options.sparsifiers_per_round;
  if (t == 0) {
    const double gamma = std::pow(static_cast<double>(n), 1.0 / (2.0 * p));
    t = static_cast<std::size_t>(
        std::ceil(std::max(1.0, std::log(gamma)) / options.eps));
    t = std::clamp<std::size_t>(t, 2, 24);
  }
  return std::min(t, kMaxSparsifiersPerRound);
}

}  // namespace

Solver::Solver(const Graph& g, const Capacities& b, SolverOptions options)
    : g_(&g), b_(b), options_(std::move(options)) {}

Solver::Solver(const Graph& g, SolverOptions options)
    : g_(&g), b_(Capacities::unit(g.num_vertices())),
      options_(std::move(options)) {}

SolverResult Solver::solve() { return solve_impl(options_.resume_from); }

SolverResult Solver::solve(const RoundCheckpoint& resume_from) {
  return solve_impl(&resume_from);
}

SolverResult Solver::resolve(const WarmStart& prev,
                             const dyn::EdgeDelta& delta) {
  const Graph& g = *g_;
  const double eps = options_.eps;
  const double p = std::max(options_.p, 1.01);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  // Any validation failure falls back to a full from-scratch solve — the
  // answer is always correct, the fallback only forfeits the saving. The
  // reason is reported so callers (and the bench) can see WHY warm work
  // was refused. A fallback after the levels are built reuses them: they
  // are a pure function of (g, b, eps).
  const auto fallback = [&](std::string why,
                            const LevelGraph* levels = nullptr) {
    SolverResult r = solve_impl(nullptr, nullptr, nullptr, levels);
    r.resolve_fallback = std::move(why);
    return r;
  };
  if (g.num_edges() == 0 || g.num_vertices() == 0) {
    return fallback("empty post-delta graph");
  }
  if (prev.solver_seed != options_.seed || bits(prev.eps) != bits(eps) ||
      bits(prev.p) != bits(p) || prev.n != g.num_vertices()) {
    return fallback("solver configuration or vertex count changed");
  }
  if (prev.sparsifiers != sparsifier_count(options_, g.num_vertices(), p)) {
    return fallback("sparsifier count changed");
  }
  // One pass over the graph and the net delta finds the inserted edges
  // (the repair's rows) and renames the pre-delta ids, so the level graph
  // takes the previous weight order with the delta merged in instead of
  // sorting every edge. The merge checks its result, so a handle or delta
  // that does not fit this graph costs the sort, never a wrong order.
  const dyn::DeltaIds ids = dyn::delta_ids(g, dyn::normalize(delta));
  std::optional<std::vector<EdgeId>> order;
  if (prev.weight_order != nullptr) {
    order = merge_weight_order(g, *prev.weight_order, ids.renamed,
                               ids.inserted);
  }
  const LevelGraph lg = order.has_value()
                            ? LevelGraph(g, b_, eps, std::move(*order))
                            : LevelGraph(g, b_, eps);
  if (lg.retained().empty()) return fallback("no retained edges", &lg);
  // The level structure is the coordinate system of the duals: wHat_k and
  // the per-edge levels are functions of W* = max weight and the level
  // count. A delta that moves either re-maps every row, so the stale
  // iterate certifies nothing and repair cannot be local — documented
  // fallback condition (see src/core/README.md).
  if (prev.levels != lg.num_levels() ||
      bits(prev.w_star) != bits(lg.w_star())) {
    return fallback("level structure changed (W* or level count)", &lg);
  }
  // Shape validation, as for checkpoints: the duals drive unchecked dense
  // writes in DualState::restore.
  if (!prev.duals.fits(g.num_vertices(), lg.num_levels())) {
    return fallback("malformed warm-start handle", &lg);
  }
  return solve_impl(nullptr, &prev, &ids.inserted, &lg);
}

SolverResult Solver::solve_impl(const RoundCheckpoint* resume,
                                const WarmStart* warm,
                                const std::vector<EdgeId>* inserted,
                                const LevelGraph* levels) {
  const Graph& g = *g_;
  SolverResult result;
  result.b_matching = BMatching(g.num_edges());
  if (g.num_edges() == 0 || g.num_vertices() == 0) {
    result.certified_ratio = 1.0;
    return result;
  }
  const double eps = options_.eps;
  const double p = std::max(options_.p, 1.01);

  bool unit_caps = true;
  for (std::size_t v = 0; v < b_.size(); ++v) {
    if (b_[static_cast<Vertex>(v)] != 1) {
      unit_caps = false;
      break;
    }
  }

  // ---- Discretize weights into levels (Definitions 2/3). ----
  std::optional<LevelGraph> own_levels;
  const LevelGraph& lg =
      levels != nullptr ? *levels : own_levels.emplace(g, b_, eps);
  const std::vector<EdgeId>& retained = lg.retained();
  if (retained.empty()) {
    result.certified_ratio = 1.0;
    return result;
  }
  const double n = static_cast<double>(g.num_vertices());

  DualState state(g.num_vertices(), lg.num_levels());

  // ---- Outer-round shape: t sparsifiers per round, round cap. ----
  const double gamma = std::pow(n, 1.0 / (2.0 * p));
  const std::size_t t = sparsifier_count(options_, g.num_vertices(), p);
  std::size_t max_rounds = options_.max_outer_rounds;
  if (max_rounds == 0) {
    max_rounds =
        4 * static_cast<std::size_t>(std::ceil(p / eps)) + 4;
    max_rounds = std::min<std::size_t>(max_rounds, 64);
  }

  MicroOracle oracle(lg, b_, options_.oracle);
  // The pipeline sweeps share the oracle's pool under the same fixed-chunk
  // determinism contract — one solve, one pool.
  ThreadPool* pool = oracle.worker_pool();

  // ---- Staged round pipeline (core/round_pipeline). ----
  RoundPipelineOptions popt;
  popt.eps = eps;
  popt.sparsifiers = t;
  popt.grain = std::max<std::size_t>(1, options_.oracle.parallel_grain);
  popt.offline = options_.offline;
  // Internal sparsifier accuracy is decoupled from eps: the driver
  // re-solves offline on the stored union every round and the dual
  // certificate (objective/lambda) is sound regardless of sparsifier
  // quality, so a coarse-but-cheap sparsifier only slows convergence.
  // gamma enters deferred_probabilities_into squared; passing sqrt(gamma)
  // yields linear-in-gamma oversampling — the measured multiplier drift
  // per round sits far below the worst-case gamma^2 (a deviation from the
  // paper, documented under "Probabilities" in src/core/README.md).
  popt.deferred.xi = 0.5;
  popt.deferred.gamma = std::sqrt(std::max(1.0, gamma));
  popt.deferred.sampling_constant = 0.25;
  // Counter-based draw stream, decoupled from `rng`: draws are pure
  // functions of (seed, round, q, edge), never of draw order.
  popt.sample_seed = mix_combine(options_.seed, 0x5a3b'11ce'0fda'7001ULL);

  // ---- Access substrate: ALL input access of the round loop goes
  // through it (src/access). The default is the in-memory reference; a
  // caller-provided streaming / MapReduce backend runs the identical
  // algorithm under that model's access discipline and metering.
  access::InMemorySubstrate default_substrate;
  access::Substrate* substrate = options_.substrate != nullptr
                                     ? options_.substrate
                                     : &default_substrate;
  substrate->set_fault_plan(options_.faults);
  substrate->set_memory_budget(options_.memory_budget_edges);
  // Cooperative stop (util/cancel): the same poll is threaded through the
  // pipeline's stage boundaries and the substrate's pass chunks. Firing
  // raises SolveAborted at a safe point; the handlers below convert it
  // into the anytime result.
  const StopCheck stop(options_.cancel, options_.deadline);
  popt.stop = stop;
  substrate->set_stop(stop);
  substrate->bind(g, lg, pool, popt.grain);

  RoundPipeline pipeline(*substrate, lg, b_, unit_caps, oracle, popt);

  Incumbent inc;
  inc.best = BMatching(g.num_edges());
  std::size_t start_round = 0;

  if (warm != nullptr) {
    // ---- Warm start (duals-as-predictions, resolve()): restore the
    // previous solve's final dual iterate and repair feasibility on
    // exactly the rows the delta touched. Unchanged retained edges keep
    // their covering rows bitwise (restore is exact and the level
    // structure was validated identical); deleted edges only REMOVE rows,
    // which cannot lower any surviving row; so the only possible deficits
    // are the inserted edges' rows, each raised here to its full wHat_k
    // (row ratio 1.0 >= lambda). If the previous solve certified
    // lambda_prev >= 1 - 3 eps, the repaired iterate re-certifies at the
    // round loop's FIRST opening sweep — zero MW rounds, one pass. ----
    state.restore(warm->duals);
    // resolve() located the inserted edges in its pass over the graph and
    // the delta, with no adjacency build. Rows are raised insert by insert
    // (key order), ids ascending within one (the order Graph::neighbors
    // lists them in), each with its canonical (min, max) endpoints: the
    // raise order fixes the repaired values and the warm handle's
    // activation order.
    std::size_t repaired = 0;
    for (const EdgeId e : *inserted) {
      // Edges the discretization dropped (level < 0) have no covering row.
      const int k = lg.level(e);
      if (k < 0) continue;
      const Edge& edge = g.edge(e);
      if (state.raise_cover(std::min(edge.u, edge.v), std::max(edge.u, edge.v),
                            k, lg.level_weight(k))) {
        ++repaired;
      }
    }
    result.meter.add_repaired_rows(repaired);
    // Re-anchor the incumbent on the post-delta graph: ONE canonical
    // offline solve over the full retained set (ids ascending = retained
    // order — a pure function of the graph, independent of the churn
    // history). beta restarts from the floor and is raised by the merge;
    // the previous solve's primal support is NOT reused (edge ids do not
    // survive re-materialization). One pass over the input, charged.
    inc.beta = 1e-12;
    std::vector<Edge> retained_edges;
    retained_edges.reserve(retained.size());
    for (EdgeId e : retained) retained_edges.push_back(g.edge(e));
    const std::size_t stored = retained_edges.size();
    result.meter.add_pass();
    result.meter.store_edges(stored);
    pipeline.merge_offline(
        pipeline.solve_offline(retained, std::move(retained_edges)), inc);
    result.meter.release_edges(stored);
    result.warm_resolve = true;
  } else if (resume == nullptr) {
    // ---- Initial dual solution (Lemma 12) and best primal so far:
    // offline on the initial support. ----
    Rng rng(options_.seed);
    const InitialSolution init =
        build_initial(lg, b_, p, rng.next(), &result.meter);
    inc.beta = std::max(init.beta0, 1e-12);
    std::vector<Edge> init_edges;
    init_edges.reserve(init.support.size());
    for (EdgeId e : init.support) init_edges.push_back(g.edge(e));
    const double norm0 = pipeline.merge_offline(
        pipeline.solve_offline(init.support, std::move(init_edges)), inc);
    // Start MW where Lemma 12 allows, not at eps/256 of it: the rounds to
    // the certificate follow how far the start is from optimal.
    state.assign(lemma12_start(init.x0, lg, b_, norm0));
  } else {
    // ---- Resume: the checkpoint replaces the initial solution AND every
    // completed round. Identity first — resuming under a different
    // configuration would silently produce a hybrid solve. Doubles compare
    // as bit patterns (the contract is bitwise identity, not closeness).
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    const bool identity_ok =
        resume->solver_seed == options_.seed && bits(resume->eps) == bits(eps)
        && bits(resume->p) == bits(p) && resume->sparsifiers == t
        && resume->sample_seed == popt.sample_seed
        && resume->n == g.num_vertices() && resume->m == g.num_edges()
        && resume->retained == retained.size()
        && resume->levels == lg.num_levels();
    // Generation first, with its own message: a checkpoint cut before an
    // edge delta can pass every shape field (remove+insert preserves n, m
    // AND the retained count), and "stale" is actionable for the caller in
    // a way "mismatch" is not.
    if (identity_ok &&
        resume->graph_generation != options_.graph_generation) {
      throw ConfigError(
          "resume checkpoint predates an edge delta (stale graph "
          "generation); re-solve or use Solver::resolve",
          {"solver.resume", resume->graph_generation});
    }
    if (!identity_ok) {
      throw ConfigError(
          "resume checkpoint does not match this solve configuration and "
          "instance",
          {"solver.resume"});
    }
    // Structural bounds the checksum cannot vouch for (it only proves the
    // bytes are the ones serialize wrote, not that they index this
    // instance): every key/vertex/edge must be in range before it drives
    // unchecked dense-array writes.
    bool shape_ok = resume->duals.fits(g.num_vertices(), lg.num_levels());
    for (const auto& [e, mult] : resume->best_support) {
      shape_ok = shape_ok && e < g.num_edges();
    }
    if (!shape_ok) {
      throw CheckpointCorrupt(
          "resume checkpoint indexes outside this instance",
          {"solver.resume"});
    }
    state.restore(resume->duals);
    inc.beta = resume->beta;
    inc.value = resume->best_value;
    for (const auto& [e, mult] : resume->best_support) {
      inc.best.set_multiplicity(static_cast<EdgeId>(e), mult);
    }
    result.outer_rounds = resume->outer_rounds;
    result.oracle_calls = resume->oracle_calls;
    result.history = resume->history;
    result.meter = resume->solve_meter;
    substrate->meter() = resume->substrate_meter;
    start_round = resume->next_round;
  }

  // ---- Outer sampling rounds. ----
  // Checkpoints are built after every completed round when the caller
  // installed a hook OR armed a stop: an early-stopped solve then carries
  // its own resume handle (SolverResult::checkpoint) so a re-submitted
  // request warm-resumes instead of restarting.
  const bool keep_checkpoints = options_.on_checkpoint || stop.armed();
  std::shared_ptr<RoundCheckpoint> last_ck;
  const auto status_of = [](StopReason reason) {
    return reason == StopReason::kDeadline ? SolverStatus::kDeadline
                                           : SolverStatus::kCancelled;
  };
  const auto build_checkpoint = [&](std::size_t next_round,
                                    const DualState& st,
                                    const Incumbent& incumbent) {
    auto ck = std::make_shared<RoundCheckpoint>();
    ck->solver_seed = options_.seed;
    ck->eps = eps;
    ck->p = p;
    ck->sparsifiers = t;
    ck->sample_seed = popt.sample_seed;
    ck->n = g.num_vertices();
    ck->m = g.num_edges();
    ck->retained = retained.size();
    ck->levels = lg.num_levels();
    ck->graph_generation = options_.graph_generation;
    ck->next_round = next_round;
    ck->outer_rounds = result.outer_rounds;
    ck->oracle_calls = result.oracle_calls;
    ck->best_value = incumbent.value;
    ck->beta = incumbent.beta;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const std::int64_t mult = incumbent.best.multiplicity(e);
      if (mult > 0) ck->best_support.emplace_back(e, mult);
    }
    ck->duals = st.snapshot();
    ck->history = result.history;
    ck->solve_meter = result.meter;
    ck->substrate_meter = substrate->meter();
    return ck;
  };

  // Stopping bar of the outer loop. A warm re-solve stops as soon as the
  // exact-lambda certificate RE-ATTAINS the level the previous solve
  // reached (capped by the 1 - 3 eps rule): the repaired iterate keeps
  // every unchanged row's ratio bitwise, deletes only remove rows, and
  // inserted rows are raised to ratio 1 — so lambda_repaired >=
  // lambda_prev and the first opening sweep re-certifies with ZERO MW
  // rounds. The final certificate below is evaluated on the state as it
  // stands either way (objective/lambda is feasible at any lambda > 0),
  // so the early stop never weakens soundness.
  double stop_bar = 1.0 - 3.0 * eps;
  if (warm != nullptr && warm->lambda > 0) {
    stop_bar = std::min(stop_bar, warm->lambda);
  }

  bool lambda_fresh = false;
  for (std::size_t round = start_round; round < max_rounds; ++round) {
    // Safe point: the round-loop top. Nothing of round `round` has run, so
    // the state, the incumbent and last_ck are all the previous round's.
    if (const StopReason reason = stop.poll(); reason != StopReason::kNone) {
      result.status = status_of(reason);
      break;
    }
    // lambda and early stopping (Corollary 6's certificate): the round's
    // opening substrate sweep — on the streaming backend this is the
    // iteration's single pass, shared with the multiplier stage. A fault
    // that exhausts the retry budget here (or in the round body below)
    // degrades gracefully: every completed round's state is intact, so
    // the best-so-far primal leaves with a sound certificate.
    double lambda = 0;
    try {
      lambda = pipeline.open_round(state);
    } catch (const SolveAborted& aborted) {
      // The sweep only fills pure per-index buffers, so abandoning it
      // mid-pass loses nothing: the state is the last completed round's.
      result.status = status_of(aborted.reason());
      break;
    } catch (const SubstrateFault& fault) {
      result.status = SolverStatus::kDegraded;
      result.fault_detail = fault.what();
      break;
    }
    result.lambda = lambda;
    lambda_fresh = true;
    if (lambda >= stop_bar) break;
    if (options_.target_ratio > 0 && inc.value > 0 && lambda > 0) {
      const double bound = state.objective(b_) / lambda;
      const double bound_orig =
          bound * lg.scale() * (1.0 + eps) + eps * lg.w_star() / 2.0;
      if (inc.value >= options_.target_ratio * bound_orig) break;
    }

    RoundPipeline::RoundReport rep;
    try {
      rep = pipeline.run_round(round, lambda, state, inc, result.meter);
    } catch (const SolveAborted& aborted) {
      // Stage/iteration boundaries are safe points, but inner iterations
      // may already have blended into the dual state; the anytime
      // certificate below re-evaluates lambda on the state as it stands
      // (any dual iterate certifies exactly). Resume still goes through
      // last_ck — the previous round boundary.
      result.status = status_of(aborted.reason());
      break;
    } catch (const SubstrateFault& fault) {
      // Injection sites precede the round's state mutations (the sweep and
      // the draw both run before stage_inner touches the dual state), so
      // the state is the last completed round's.
      result.status = SolverStatus::kDegraded;
      result.fault_detail = fault.what();
      break;
    }
    lambda_fresh = false;
    ++result.outer_rounds;
    result.oracle_calls += rep.oracle_calls;

    result.history.push_back(RoundStats{round + 1, lambda, inc.beta,
                                        inc.value, rep.stored_edges,
                                        rep.oracle_calls});

    if (keep_checkpoints) {
      last_ck = build_checkpoint(round + 1, state, inc);
      if (options_.on_checkpoint && !options_.on_checkpoint(*last_ck)) {
        result.status = SolverStatus::kInterrupted;
        break;
      }
    }
  }
  // Early-stopped solves carry their resume handle: interrupt -> resume
  // round-trips without the caller wiring its own on_checkpoint, and a
  // deadline-expired request re-submitted with the checkpoint warm-resumes
  // at the last completed round instead of restarting.
  if (result.status != SolverStatus::kComplete) {
    result.checkpoint = std::move(last_ck);
  }
  result.value = inc.value;
  result.b_matching = std::move(inc.best);

  // ---- Certificate: explicit dual, verified edge by edge. The final
  // lambda needs one more sweep only when the loop exhausted its round
  // budget (a break leaves the staged lambda fresh). A degraded solve
  // evaluates it on the state directly — same retained order, exact min,
  // so bitwise-equal to the substrate sweep — because the substrate's
  // faulty pass may simply fail again. A deadline/cancel stop does the
  // same: the substrate's polls would abort the sweep again, and the
  // anytime contract wants the certificate NOW, on the state as it
  // stands. ----
  const bool stopped = result.status == SolverStatus::kDeadline ||
                       result.status == SolverStatus::kCancelled;
  if (!lambda_fresh || stopped) {
    if (result.status == SolverStatus::kDegraded || stopped) {
      result.lambda = state.lambda(lg, pool, popt.grain);
    } else {
      try {
        result.lambda = pipeline.open_round(state);
      } catch (const SubstrateFault& fault) {
        result.status = SolverStatus::kDegraded;
        result.fault_detail = fault.what();
        result.lambda = state.lambda(lg, pool, popt.grain);
      }
    }
  }
  result.beta = inc.beta;
  // Best verified bound among the multiplicative-weights certificate and
  // the cheap witness duals (the latter floor the guarantee while the dual
  // is still converging).
  const DualBound bound = best_dual_bound(state, lg, b_, result.lambda);
  result.dual_bound = std::max(bound.bound, result.value);
  result.bound_source = bound.source;
  result.mw_bound = bound.mw_bound;
  result.certified_ratio =
      result.dual_bound > 0 ? result.value / result.dual_bound : 1.0;

  // The substrate's model accounting (rounds, passes, stored peaks,
  // shuffle volume) folds into the solve meter; per-substrate inspection
  // stays available on the substrate itself.
  result.meter.merge(substrate->meter());
  // The solve is done with the substrate: it drops what it kept across
  // rounds.
  substrate->end_solve();

  // Warm-path savings, measured against the cost of the solve that
  // produced the handle — the o(full-solve) claim as first-class counters.
  if (warm != nullptr) {
    if (warm->outer_rounds > result.outer_rounds) {
      result.meter.add_saved_rounds(warm->outer_rounds -
                                    result.outer_rounds);
    }
    if (warm->passes > result.meter.passes()) {
      result.meter.add_saved_passes(warm->passes - result.meter.passes());
    }
  }

  // Emit the warm-start handle: every solve's final dual iterate seeds the
  // next resolve(). Cheap relative to the solve (one copy of the sparse
  // iterate), and emitted on anytime results too — a partially converged
  // dual is still a valid prediction, it just re-certifies later.
  {
    auto handle = std::make_shared<WarmStart>();
    handle->solver_seed = options_.seed;
    handle->eps = eps;
    handle->p = p;
    handle->sparsifiers = t;
    handle->n = g.num_vertices();
    handle->levels = lg.num_levels();
    handle->w_star = lg.w_star();
    handle->graph_generation = options_.graph_generation;
    handle->duals = state.snapshot();
    handle->lambda = result.lambda;
    handle->weight_order = lg.shared_weight_order();
    // Saved-work baseline: a chained resolve should keep measuring against
    // the cost of a FULL solve, not against the previous (already cheap)
    // warm hop — so a warm result carries the baseline forward.
    handle->outer_rounds =
        warm != nullptr ? std::max(result.outer_rounds, warm->outer_rounds)
                        : result.outer_rounds;
    handle->passes = warm != nullptr
                         ? std::max(result.meter.passes(), warm->passes)
                         : result.meter.passes();
    result.warm = std::move(handle);
  }

  // Plain matching view for unit capacities.
  if (unit_caps) {
    Matching m;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (result.b_matching.multiplicity(e) > 0) m.add(e);
    }
    result.matching = std::move(m);
  }
  return result;
}

SolverResult solve_matching(const Graph& g, const SolverOptions& options) {
  return Solver(g, options).solve();
}

SolverResult solve_b_matching(const Graph& g, const Capacities& b,
                              const SolverOptions& options) {
  return Solver(g, b, options).solve();
}

}  // namespace dp::core
