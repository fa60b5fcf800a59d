#include "core/round_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "matching/blossom_weighted.hpp"
#include "matching/greedy.hpp"
#include "util/simd.hpp"

namespace dp::core {

namespace {

/// The compute half of the Theorem 5 multiplier rule, shared by the full
/// retained sweep and the stored-sample refinement: u_i =
/// exp(-alpha (ratio_i - min_ratio)) / div_i (div_i = wHat of i's level)
/// with an exact chunked max reduction, then the additive
/// u_max eps / (4 count + 4) floor, handed to store(i, max(u_i, floor)).
/// u_i lands in out[i]; out may be `ratio` itself.
template <typename Store>
void exp_floor_multipliers(ThreadPool* pool, std::size_t grain, double eps,
                           double alpha, double min_ratio, const double* ratio,
                           const double* div, std::size_t count, double* out,
                           std::vector<double>& partial, const Store& store) {
  const std::size_t chunks = count == 0 ? 0 : (count + grain - 1) / grain;
  partial.assign(chunks, 0.0);
  double* part = partial.data();
  // Three passes per chunk, every one a clones-dispatched elementwise
  // kernel (util/simd): argument fill, exp_batch_poly in place, then the
  // level-weight divide fused with the chunk max as a bit-pattern integer
  // reduction (all quotients are positive). Chunk results depend only on
  // [lo, hi), so the fixed-grain determinism contract is untouched, and
  // every kernel is bitwise identical to the scalar loop it replaced at
  // any lane width.
  run_chunks(pool, 0, count, grain,
             [&](std::size_t c, std::size_t lo, std::size_t hi) {
               simd::fill_scaled_shift(ratio + lo, out + lo, hi - lo, alpha,
                                       min_ratio);
               simd::exp_batch_poly(out + lo, out + lo, hi - lo);
               part[c] =
                   simd::divide_max_positive(out + lo, div + lo, hi - lo);
             });
  double u_max = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    u_max = std::max(u_max, part[c]);
  }
  const double floor_value =
      u_max * eps / (4.0 * static_cast<double>(count) + 4.0);
  run_chunks(pool, 0, count, grain,
             [&](std::size_t, std::size_t lo, std::size_t hi) {
               for (std::size_t i = lo; i < hi; ++i) {
                 store(i, std::max(out[i], floor_value));
               }
             });
}

/// Resizes a buffer that is reused every round, growing its capacity to
/// exactly n: a plain resize() may double it.
template <typename T>
void resize_exact(std::vector<T>& v, std::size_t n) {
  v.reserve(n);
  v.resize(n);
}

/// For every bit q < t, the indices i in [0, count) whose mask holds bit
/// q, ascending, bit-major: out[start[q], start[q + 1]). A per-(chunk, q)
/// count pass, an exclusive scan in (q, chunk) order and a fill pass, all
/// on fixed-grain chunks, so the lists never depend on the thread count.
void list_by_bit(ThreadPool* pool, std::size_t grain,
                 const std::uint32_t* mask, std::size_t count, std::size_t t,
                 std::vector<std::uint32_t>& counts,
                 std::vector<std::size_t>& start,
                 std::vector<std::uint32_t>& out) {
  const std::size_t chunks = count == 0 ? 0 : (count + grain - 1) / grain;
  counts.assign(chunks * t, 0);
  std::uint32_t* cnt = counts.data();
  // One bit plane at a time: a branch-free sum the compiler vectorizes.
  run_chunks(pool, 0, count, grain,
             [&](std::size_t c, std::size_t lo, std::size_t hi) {
               for (std::size_t q = 0; q < t; ++q) {
                 std::uint32_t n = 0;
                 for (std::size_t i = lo; i < hi; ++i) {
                   n += (mask[i] >> q) & 1u;
                 }
                 cnt[c * t + q] = n;
               }
             });
  start.assign(t + 1, 0);
  std::uint32_t total = 0;
  for (std::size_t q = 0; q < t; ++q) {
    start[q] = total;
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::uint32_t n = cnt[c * t + q];
      cnt[c * t + q] = total;
      total += n;
    }
  }
  start[t] = total;
  resize_exact(out, total);
  std::uint32_t* dst = out.data();
  // Branch-free compaction: every index is written at the cursor, which
  // advances only past selected ones. Stopping at the chunk's last
  // selected index keeps every write inside the chunk's own slots.
  run_chunks(pool, 0, count, grain,
             [&](std::size_t c, std::size_t lo, std::size_t hi) {
               for (std::size_t q = 0; q < t; ++q) {
                 std::size_t end = hi;
                 while (end > lo && ((mask[end - 1] >> q) & 1u) == 0) --end;
                 std::uint32_t cur = cnt[c * t + q];
                 for (std::size_t i = lo; i < end; ++i) {
                   dst[cur] = static_cast<std::uint32_t>(i);
                   cur += (mask[i] >> q) & 1u;
                 }
               }
             });
}

}  // namespace

RoundPipeline::RoundPipeline(access::Substrate& substrate,
                             const LevelGraph& lg, const Capacities& b,
                             bool unit_caps, MicroOracle& oracle,
                             RoundPipelineOptions options)
    : substrate_(&substrate),
      lg_(&lg),
      b_(&b),
      unit_caps_(unit_caps),
      oracle_(&oracle),
      pool_(oracle.worker_pool()),
      options_(std::move(options)),
      sample_rng_(options_.sample_seed),
      point_(lg.graph().num_vertices(), lg.num_levels()) {
  if (options_.grain == 0) options_.grain = 1;
  options_.sparsifiers =
      std::min(options_.sparsifiers, kMaxSparsifiersPerRound);
}

double RoundPipeline::open_round(const DualState& state) {
  const std::size_t m = substrate_->num_retained();
  if (m == 0) {
    staged_min_ratio_ = 0.0;
    return 0.0;
  }
  const LevelGraph& lg = *lg_;
  ctx_.cov_ratio.resize(m);
  double* ratio = ctx_.cov_ratio.data();
  // The round's ONE access sweep: ratio_e = cover_row(e) / wHat_level(e)
  // for every retained edge. Elementwise and pure per index, so every
  // substrate (parallel chunks, a sequential stream pass, mapper shards)
  // fills the identical buffer.
  substrate_->multiplier_sweep(
      [&state, &lg, ratio](std::size_t lo, std::size_t hi,
                           const access::RetainedEdge* edges) {
        for (std::size_t idx = lo; idx < hi; ++idx) {
          const access::RetainedEdge& re = edges[idx - lo];  // base-relative
          ratio[idx] =
              state.cover_row(re.u, re.v, re.level) /
              lg.level_weight(re.level);
        }
      });
  // Exact min over the staged buffer (pipeline-owned, fixed-grain chunks —
  // not an input access): this is lambda, the Corollary 6 certificate.
  const std::size_t grain = options_.grain;
  const std::size_t chunks = (m + grain - 1) / grain;
  ctx_.cov_partial.assign(chunks, 1e300);
  double* partial = ctx_.cov_partial.data();
  run_chunks(pool_, 0, m, grain,
             [&](std::size_t c, std::size_t lo, std::size_t hi) {
               double local_min = 1e300;
               for (std::size_t idx = lo; idx < hi; ++idx) {
                 local_min = std::min(local_min, ratio[idx]);
               }
               partial[c] = local_min;
             });
  double min_ratio = 1e300;
  for (std::size_t c = 0; c < chunks; ++c) {
    min_ratio = std::min(min_ratio, partial[c]);
  }
  staged_min_ratio_ = min_ratio;
  return min_ratio;
}

RoundPipeline::RoundReport RoundPipeline::run_round(std::size_t round,
                                                    double lambda,
                                                    DualState& state,
                                                    Incumbent& inc,
                                                    ResourceMeter& meter) {
  RoundReport report;
  // Stage boundaries are safe points: no partially-applied state mutation
  // exists between stages, so a stop here loses at most buffer fills.
  options_.stop.throw_if_stopped("pipeline.multipliers");
  const double alpha = stage_multipliers(lambda, round);
  options_.stop.throw_if_stopped("pipeline.draw");
  const SamplingRound& draws = stage_draw(round);
  report.stored_edges = draws.stored_total();
  // OfflineResolve overlaps InnerRefine: the job reads only the frozen
  // draw and immutable inputs and writes only its future, so the overlap
  // is bitwise equivalent to running the stages back to back.
  Future<OfflineSolution> offline = stage_offline(draws);
  try {
    stage_inner(draws, alpha, state, inc, report);
  } catch (...) {
    // The detached job reads `this` and the frozen draw; join it before
    // the unwind can destroy either.
    if (offline.valid()) offline.wait();
    throw;
  }
  stage_merge(offline, inc, meter, draws.stored_total());
  return report;
}

double RoundPipeline::stage_multipliers(double lambda, std::size_t round) {
  const LevelGraph& lg = *lg_;
  const std::size_t m = substrate_->num_retained();
  const auto m_retained = static_cast<double>(m);
  const double eps = options_.eps;
  // PST multiplier temperature (Theorem 5): alpha ~ ln(m/eps)/(lambda eps).
  const double lambda_floor =
      std::max(lambda, eps / std::max(256.0, m_retained));
  const double alpha =
      2.0 * std::log(2.0 * m_retained / eps) / (lambda_floor * eps);

  // Promise multipliers from the staged ratios: exp sweep with exact max
  // reduction, then the additive floor — buffer passes, not input access.
  // Levels come from the level graph (solver state), not the attribute
  // table, so the sweep is identical on table-free backends.
  const EdgeId* rid = lg.retained().data();
  resize_exact(ctx_.divisor, m);
  resize_exact(ctx_.promise, m);
  double* div = ctx_.divisor.data();
  double* promise = ctx_.promise.data();
  run_chunks(pool_, 0, m, options_.grain,
             [&](std::size_t, std::size_t lo, std::size_t hi) {
               for (std::size_t idx = lo; idx < hi; ++idx) {
                 div[idx] = lg.level_weight(lg.level(rid[idx]));
               }
             });
  exp_floor_multipliers(
      pool_, options_.grain, lg.eps(), alpha, staged_min_ratio_,
      ctx_.cov_ratio.data(), div, m, promise, ctx_.cov_partial,
      [promise](std::size_t idx, double value) { promise[idx] = value; });

  // Inclusion probabilities (sparsify/deferred), gathering each weight
  // class's records through the substrate's batched fetch (a table-view
  // copy on table-backed substrates, file record reads on the file-backed
  // one); all working memory in reusable scratch.
  access::Substrate* sub = substrate_;
  deferred_probabilities_into(
      substrate_->num_vertices(), m,
      [sub](const std::uint32_t* idxs, std::size_t count, Edge* out) {
        sub->fetch_edges(idxs, count, out);
      },
      ctx_.promise, options_.deferred, sample_rng_.bits(round, 1), ctx_.prob,
      ctx_.deferred_scratch, pool_);
  return alpha;
}

const SamplingRound& RoundPipeline::stage_draw(std::size_t round) {
  return substrate_->draw(ctx_.prob, options_.sparsifiers, round,
                          sample_rng_.seed());
}

Future<OfflineSolution> RoundPipeline::stage_offline(
    const SamplingRound& draws) {
  const SamplingRound* frozen = &draws;
  auto job = [this, frozen]() {
    // Materialize the union from the substrate's immutable stored-edge
    // attributes (job-local buffers: the job may run concurrently with
    // InnerRefine). The offline working set is a copy of edges the Draw
    // stage already charged (union <= stored incidences), so it consumes
    // no additional space budget in the paper's model.
    std::vector<EdgeId> ids;
    std::vector<Edge> edges;
    substrate_->materialize_union(frozen->union_support(), ids, edges);
    return solve_offline(ids, std::move(edges));
  };
  return submit_job(pool_, std::move(job));
}

void RoundPipeline::stage_inner(const SamplingRound& draws, double alpha,
                                DualState& state, Incumbent& inc,
                                RoundReport& report) {
  const double eps = options_.eps;
  index_round(draws);
  const RowTable& rows = ctx_.rows.table();
  resize_exact(ctx_.x_row, rows.size());
  bool x_fresh = false;
  double sigma = 0.0;  // the round's last step; 0 = none yet
  for (std::size_t q = 0; q < draws.num_sparsifiers(); ++q) {
    // Inner-iteration boundary: each completed iteration's blend is a
    // whole dual step, so stopping between iterations leaves a valid
    // iterate (run_round's catch joins the offline job before unwinding).
    options_.stop.throw_if_stopped("pipeline.inner");
    // Deferred refinement: evaluate the CURRENT multipliers on exactly the
    // stored indices (no new data access) — sparsifier q's union positions.
    const std::size_t lo = ctx_.edge_start[q];
    const std::size_t s = ctx_.edge_start[q + 1] - lo;
    if (s == 0) continue;
    if (!x_fresh) {
      // x(i, k) on every union row, re-read after each blend: the sweeps
      // below add these exact values, so they round as cover_row and
      // po_row do.
      double* xr = ctx_.x_row.data();
      run_chunks(pool_, 0, ctx_.x_row.size(), options_.grain,
                 [&](std::size_t, std::size_t rlo, std::size_t rhi) {
                   for (std::size_t r = rlo; r < rhi; ++r) {
                     xr[r] = state.x(rows.vertex[r], rows.level[r]);
                   }
                 });
      x_fresh = true;
    }
    sample_multipliers(state, alpha, ctx_.sparsifier_edges.data() + lo, s);
    const std::span<const std::uint32_t> zeta_rows(
        ctx_.sparsifier_rows.data() + ctx_.row_start[q],
        ctx_.row_start[q + 1] - ctx_.row_start[q]);
    sample_zeta(state, zeta_rows);

    RowSample sample;
    sample.rows = &rows;
    sample.us = ctx_.us;
    sample.row_u = ctx_.row_u;
    sample.row_v = ctx_.row_v;
    sample.zeta_rows = zeta_rows;
    sample.zeta = ctx_.zeta;
    const MicroResult mr =
        oracle_->run_lagrangian(sample, inc.beta, &report.oracle_calls);
    ctx_.inner_meter.add_inner_iterations();
    if (mr.kind == MicroResult::Kind::kPrimal) {
      // The dual cannot make progress at this beta: the stored edges carry
      // a matching close to beta (Lemma 13). Raise beta (Algorithm 3 step
      // 5b) and continue.
      inc.beta *= (1.0 + eps);
      continue;
    }
    // Theorem 5's fixed step is only the floor of the search. The warm
    // start is the previous step of THIS round: nothing of the search
    // outlives the round, so checkpoints resume bitwise.
    const double sigma_pst =
        std::min(0.5, eps / (4.0 * alpha * 6.0));  // rho_o = 6 (LP4/LP5)
    sigma = step_size(mr.x, alpha, sigma_pst, std::max(sigma, sigma_pst),
                      ctx_.sparsifier_edges.data() + lo, s);
    state.blend(mr.x, sigma);
    x_fresh = false;
  }
  ctx_.inner_meter.add_oracle_calls(report.oracle_calls);
  // Per-round separation max-flows. The oracle's count is monotone over
  // its lifetime; differencing against the last-seen count charges
  // exactly this round's flows to this round's inner meter. The
  // separation work is a pure function of the oracle inputs, so the delta
  // is identical for any thread count or substrate.
  const std::size_t flows = oracle_->separation_max_flows();
  ctx_.inner_meter.add_max_flows(flows - max_flows_seen_);
  max_flows_seen_ = flows;
}

void RoundPipeline::stage_merge(Future<OfflineSolution>& offline,
                                Incumbent& inc, ResourceMeter& meter,
                                std::size_t stored_total) {
  const OfflineSolution sol = offline.get();
  merge_offline(sol, inc);
  // Aggregate the per-stage meters in fixed stage order — counter totals
  // are therefore identical whatever thread interleaving produced them.
  // (The draw's round/pass/store counters accumulate on the substrate
  // meter, which the solver merges once at the end of the solve.)
  meter.merge(ctx_.offline_meter);
  meter.merge(ctx_.inner_meter);
  ctx_.offline_meter.reset();
  ctx_.inner_meter.reset();
  // The round's samples are discarded once its iterations finish; peak
  // space is a per-round quantity.
  substrate_->release_stored(stored_total);
}

OfflineSolution RoundPipeline::solve_offline(const std::vector<EdgeId>& ids,
                                            std::vector<Edge> edges) const {
  const Graph sub(substrate_->num_vertices(), std::move(edges));
  // The local search and the b-matching solver scan the subgraph's weight
  // order, filtered from the solve's one sort: every caller's ids ascend
  // (the union support, retained, Lemma 12's sorted support), so it is the
  // order edges_by_weight_desc(sub) returns. The exact blossom reads none.
  const ApproxOptions& opts = options_.offline;
  OfflineSolution out;
  out.bm = BMatching(lg_->graph().num_edges());
  if (unit_caps_) {
    const Matching m =
        approx_dispatches_exact(sub, opts)
            ? max_weight_matching(sub)
            : local_search_matching(
                  sub, subset_weight_order(lg_->weight_order(), ids),
                  opts.max_rounds, opts.seed);
    out.support.reserve(m.size());
    for (EdgeId local : m.edges()) {
      out.bm.set_multiplicity(ids[local], 1);
      out.support.push_back(ids[local]);
    }
  } else {
    const BMatching bm = approx_weighted_b_matching(
        sub, *b_, subset_weight_order(lg_->weight_order(), ids));
    for (EdgeId local = 0; local < bm.num_edges(); ++local) {
      if (bm.multiplicity(local) > 0) {
        out.bm.set_multiplicity(ids[local], bm.multiplicity(local));
        out.support.push_back(ids[local]);
      }
    }
  }
  std::sort(out.support.begin(), out.support.end());
  for (EdgeId e : out.support) {
    out.value += static_cast<double>(out.bm.multiplicity(e)) *
                 lg_->graph().edge(e).w;
  }
  return out;
}

double RoundPipeline::merge_offline(const OfflineSolution& sol,
                                    Incumbent& inc) const {
  const double eps = options_.eps;
  if (sol.value > inc.value) {
    inc.value = sol.value;
    inc.best = sol.bm;
  }
  // Normalized (level-weight) value over the solution's support only — no
  // full-edge scan.
  double norm = 0;
  for (EdgeId e : sol.support) {
    if (lg_->level(e) >= 0) {
      norm += static_cast<double>(sol.bm.multiplicity(e)) *
              lg_->level_weight(lg_->level(e));
    }
  }
  // Algorithm 2 step 6 with a3 folded into eps: remember the raised beta.
  if (norm > inc.beta * (1.0 - eps) / (1.0 + eps)) {
    inc.beta = norm * (1.0 + eps) / (1.0 - eps);
  }
  return norm;
}

void RoundPipeline::index_round(const SamplingRound& draws) {
  const LevelGraph& lg = *lg_;
  const std::vector<std::uint32_t>& uni = draws.union_support();
  const std::size_t u_size = uni.size();
  const std::size_t grain = options_.grain;
  const auto levels = static_cast<std::uint64_t>(lg.num_levels());
  resize_exact(ctx_.edge_row_u, u_size);
  resize_exact(ctx_.edge_row_v, u_size);
  resize_exact(ctx_.edge_level, u_size);
  resize_exact(ctx_.edge_prob, u_size);
  resize_exact(ctx_.edge_mask, u_size);
  std::uint32_t* eru = ctx_.edge_row_u.data();
  std::uint32_t* erv = ctx_.edge_row_v.data();
  std::int32_t* elevel = ctx_.edge_level.data();

  // The union's attributes, one batched fetch per fixed-grain chunk (a row
  // copy on table-backed substrates, a merge walk of the per-round sample
  // cache on the file-backed one; the union ascends). Each edge keeps its
  // endpoints and level, and both endpoint keys are marked in the row
  // index, which numbers the rows in key order. Only that per-round
  // numbering decodes keys into vertex and level.
  RowIndex& index = ctx_.rows;
  index.reserve(substrate_->num_vertices() * levels);
  ctx_.attr_chunk.resize(std::min(grain, u_size));
  access::RetainedEdge* attr = ctx_.attr_chunk.data();
  for (std::size_t lo = 0; lo < u_size; lo += grain) {
    const std::size_t hi = std::min(u_size, lo + grain);
    substrate_->stored_attrs(uni.data() + lo, hi - lo, attr);
    for (std::size_t i = lo; i < hi; ++i) {
      const access::RetainedEdge& re = attr[i - lo];
      const auto k = static_cast<std::uint64_t>(re.level);
      eru[i] = re.u;
      erv[i] = re.v;
      elevel[i] = re.level;
      index.mark(static_cast<std::uint64_t>(re.u) * levels + k);
      index.mark(static_cast<std::uint64_t>(re.v) * levels + k);
    }
  }
  index.number(levels);
  const RowTable& rows = index.table();

  // Per union edge, what the sweeps read: the endpoints become their row
  // positions, next to the level, the inclusion probability and the
  // sparsifiers holding the edge.
  const std::size_t t = draws.num_sparsifiers();
  const std::uint32_t* masks = draws.masks().data();
  double* eprob = ctx_.edge_prob.data();
  std::uint32_t* emask = ctx_.edge_mask.data();
  const double* prob = ctx_.prob.data();
  run_chunks(pool_, 0, u_size, grain,
             [&](std::size_t, std::size_t lo, std::size_t hi) {
               for (std::size_t i = lo; i < hi; ++i) {
                 const auto k = static_cast<std::uint64_t>(elevel[i]);
                 eru[i] = index.position(eru[i] * levels + k);
                 erv[i] = index.position(erv[i] * levels + k);
                 eprob[i] = prob[uni[i]];
                 emask[i] = masks[uni[i]];
               }
             });
  // A row's mask: the sparsifiers with an edge on that row, so sparsifier
  // q's zeta rows are the rows whose mask holds bit q.
  ctx_.row_mask.assign(rows.size(), 0);
  std::uint32_t* rmask = ctx_.row_mask.data();
  for (std::size_t i = 0; i < u_size; ++i) {
    rmask[eru[i]] |= emask[i];
    rmask[erv[i]] |= emask[i];
  }
  list_by_bit(pool_, grain, emask, u_size, t, ctx_.chunk_counts,
              ctx_.edge_start, ctx_.sparsifier_edges);
  list_by_bit(pool_, grain, rmask, rows.size(), t, ctx_.chunk_counts,
              ctx_.row_start, ctx_.sparsifier_rows);
}

void RoundPipeline::sample_multipliers(const DualState& state, double alpha,
                                       const std::uint32_t* sel,
                                       std::size_t s) {
  const LevelGraph& lg = *lg_;
  const std::size_t grain = options_.grain;
  const std::size_t chunks = (s + grain - 1) / grain;
  const double* xr = ctx_.x_row.data();
  const Vertex* vertex = ctx_.rows.table().vertex.data();
  const std::uint32_t* eru = ctx_.edge_row_u.data();
  const std::uint32_t* erv = ctx_.edge_row_v.data();
  const std::int32_t* elevel = ctx_.edge_level.data();
  const double* eprob = ctx_.edge_prob.data();
  resize_exact(ctx_.row_u, s);
  resize_exact(ctx_.row_v, s);
  resize_exact(ctx_.ratio, s);
  resize_exact(ctx_.us, s);
  resize_exact(ctx_.divisor, s);
  ctx_.cov_partial.assign(chunks, 1e300);
  std::uint32_t* row_u = ctx_.row_u.data();
  std::uint32_t* row_v = ctx_.row_v.data();
  double* div = ctx_.divisor.data();
  double* ratio = ctx_.ratio.data();  // kept for the step search
  double* partial = ctx_.cov_partial.data();
  // Covering ratios: the x parts from the row cache, then (when the state
  // holds odd sets) the odd-set terms exactly as cover_row adds them.
  const bool odd_sets = state.odd_set_support() != 0;
  run_chunks(pool_, 0, s, grain,
             [&](std::size_t c, std::size_t lo, std::size_t hi) {
               double local_min = 1e300;
               for (std::size_t e = lo; e < hi; ++e) {
                 const std::uint32_t i = sel[e];
                 const std::uint32_t ru = eru[i];
                 const std::uint32_t rv = erv[i];
                 const int k = elevel[i];
                 row_u[e] = ru;
                 row_v[e] = rv;
                 div[e] = lg.level_weight(k);
                 double row = xr[ru] + xr[rv];
                 if (odd_sets) {
                   row = state.add_set_terms(row, vertex[ru], k, vertex[rv]);
                 }
                 ratio[e] = row / div[e];
                 local_min = std::min(local_min, ratio[e]);
               }
               partial[c] = local_min;
             });
  double min_ratio = 1e300;
  for (std::size_t c = 0; c < chunks; ++c) {
    min_ratio = std::min(min_ratio, partial[c]);
  }
  // The exp pass writes into us itself (store reads and writes index e
  // only), so the ratios survive for the step search.
  double* us = ctx_.us.data();
  exp_floor_multipliers(pool_, grain, lg.eps(), alpha, min_ratio, ratio, div,
                        s, us, ctx_.cov_partial,
                        [us, sel, eprob](std::size_t e, double value) {
                          us[e] = value / eprob[sel[e]];
                        });
}

void RoundPipeline::sample_zeta(const DualState& state,
                                std::span<const std::uint32_t> zeta_rows) {
  const LevelGraph& lg = *lg_;
  const double eps = options_.eps;
  const std::size_t grain = options_.grain;
  const double* xr = ctx_.x_row.data();
  const Vertex* vertex = ctx_.rows.table().vertex.data();
  const std::int32_t* level = ctx_.rows.table().level.data();
  const std::uint32_t* zr = zeta_rows.data();

  // zeta: packing multipliers on the active outer rows (i, k) — exactly
  // the union rows the sample's edges touch, ascending (so key-sorted) —
  // by two chunk-parallel exp sweeps (the max reduction is exact).
  const std::size_t rows = zeta_rows.size();
  const std::size_t chunks = (rows + grain - 1) / grain;
  resize_exact(ctx_.zeta, rows);
  ctx_.cov_partial.assign(chunks, -1e300);
  double* expos = ctx_.zeta.data();
  double* partial = ctx_.cov_partial.data();
  const double alpha_p =
      std::log(2.0 * (static_cast<double>(rows) + 1) / eps) * 6.0 / eps;
  // po_row from the row cache: 2 x_i(k), then the odd-set terms.
  const bool odd_sets = state.odd_set_support() != 0;
  run_chunks(pool_, 0, rows, grain,
             [&](std::size_t c, std::size_t lo, std::size_t hi) {
               double local_max = -1e300;
               for (std::size_t j = lo; j < hi; ++j) {
                 const std::uint32_t r = zr[j];
                 const int k = level[r];
                 const double q_val = 3.0 * lg.level_weight(k);
                 double po = 2.0 * xr[r];
                 if (odd_sets) po = state.add_set_terms(po, vertex[r], k);
                 expos[j] = alpha_p * po / q_val;
                 local_max = std::max(local_max, expos[j]);
               }
               partial[c] = local_max;
             });
  double max_expo = -1e300;
  for (std::size_t c = 0; c < chunks; ++c) {
    max_expo = std::max(max_expo, partial[c]);
  }
  // Shift / exp_batch_poly / divide as separate elementwise passes, all
  // through the clones-dispatched kernels (util/simd): alpha = -1 turns the
  // fill into the plain shift (multiply by exactly 1.0), and the divisor
  // gather feeds divide_batch. Bitwise identical to the scalar loops.
  resize_exact(ctx_.divisor, rows);
  double* div = ctx_.divisor.data();
  run_chunks(pool_, 0, rows, grain,
             [&](std::size_t, std::size_t lo, std::size_t hi) {
               simd::fill_scaled_shift(expos + lo, expos + lo, hi - lo,
                                       -1.0, max_expo);
               simd::exp_batch_poly(expos + lo, expos + lo, hi - lo);
               for (std::size_t j = lo; j < hi; ++j) {
                 div[j] = 3.0 * lg.level_weight(level[zr[j]]);
               }
               simd::divide_batch(expos + lo, div + lo, hi - lo);
             });
}

double RoundPipeline::step_size(const DualPoint& point, double alpha,
                                double sigma_pst, double warm,
                                const std::uint32_t* sel, std::size_t s) {
  const LevelGraph& lg = *lg_;
  const RowTable& rows = ctx_.rows.table();
  // The point as a dual state, so its covering rows add up exactly as the
  // state's do (sample_multipliers): x from a per-row cache, then the
  // point's odd-set terms.
  point_.assign(point);
  const bool odd_sets = point_.odd_set_support() != 0;
  resize_exact(ctx_.point_row, rows.size());
  double* xp = ctx_.point_row.data();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    xp[r] = point_.x(rows.vertex[r], rows.level[r]);
  }

  // Per sample edge, the exponent -alpha ((1 - sigma) r_e + sigma r'_e)
  // is sigma * slope_e - alpha r_e, and Phi' weighs each term by
  // slope_e / p_e.
  resize_exact(ctx_.slope, s);
  resize_exact(ctx_.weighted, s);
  resize_exact(ctx_.expo, s);
  double* slope = ctx_.slope.data();
  double* weighted = ctx_.weighted.data();
  const double* ratio = ctx_.ratio.data();
  const std::uint32_t* row_u = ctx_.row_u.data();
  const std::uint32_t* row_v = ctx_.row_v.data();
  const Vertex* vertex = rows.vertex.data();
  const std::int32_t* elevel = ctx_.edge_level.data();
  const double* eprob = ctx_.edge_prob.data();
  run_chunks(pool_, 0, s, options_.grain,
             [&](std::size_t, std::size_t lo, std::size_t hi) {
               for (std::size_t e = lo; e < hi; ++e) {
                 const int k = elevel[sel[e]];
                 double row = xp[row_u[e]] + xp[row_v[e]];
                 if (odd_sets) {
                   row = point_.add_set_terms(row, vertex[row_u[e]], k,
                                              vertex[row_v[e]]);
                 }
                 slope[e] = -alpha * (row / lg.level_weight(k) - ratio[e]);
                 weighted[e] = slope[e] / eprob[sel[e]];
               }
             });

  // Safeguarded Newton over [sigma_pst, 1/2]. Each evaluation narrows the
  // bracket by the sign of Phi' (Phi is convex). Phi' = P - N, with P and
  // N the sums of its positive and negative terms, each a positive sum of
  // exponentials in sigma; Newton runs on h = ln(P / N), which has the
  // sign of Phi' and, unlike Phi', is close to linear, so it needs about 3
  // evaluations where Newton on Phi' needs 5 (perfbench's ram_dense). A
  // Newton point outside the bracket, or one that does not at least halve
  // the step before last, is replaced by the bracket end not yet evaluated
  // or else by the geometric midpoint (sigma spans decades).
  constexpr double kCap = 0.5;
  constexpr double kTolerance = 1e-3;  // on the last step, relative
  constexpr int kMaxEvaluations = 12;
  double lo = sigma_pst;
  double hi = kCap;
  bool lo_seen = false;
  bool hi_seen = false;
  double sigma = std::clamp(warm, sigma_pst, kCap);
  double prev_step = kCap;
  double step = kCap;
  for (int eval = 0; eval < kMaxEvaluations; ++eval) {
    const PotentialSlope d = potential_slope(alpha, sigma, s);
    // With one part empty, Phi' keeps its sign on the whole bracket.
    if (d.pos == 0) return kCap;
    if (d.neg == 0) return sigma_pst;
    const double h = std::log(d.pos / -d.neg);
    if (h == 0) return sigma;
    if (h > 0) {
      if (sigma == sigma_pst) return sigma_pst;
      hi = sigma;
      hi_seen = true;
    } else {
      if (sigma == kCap) return kCap;
      lo = sigma;
      lo_seen = true;
    }
    double next =
        sigma - h / (d.pos_second / d.pos + d.neg_second / -d.neg);
    if (!(next > lo && next < hi) ||
        std::abs(next - sigma) > 0.5 * prev_step) {
      if (!lo_seen && !(next > lo)) {
        next = lo;
      } else if (!hi_seen && !(next < hi)) {
        next = hi;
      } else {
        next = std::sqrt(lo * hi);
      }
    }
    prev_step = step;
    step = std::abs(next - sigma);
    sigma = next;
    if (step <= kTolerance * sigma) break;
  }
  return sigma;
}

RoundPipeline::PotentialSlope RoundPipeline::potential_slope(
    double alpha, double sigma, std::size_t s) {
  const std::size_t grain = options_.grain;
  const std::size_t chunks = (s + grain - 1) / grain;
  const double* ratio = ctx_.ratio.data();
  const double* slope = ctx_.slope.data();
  const double* weighted = ctx_.weighted.data();
  double* expo = ctx_.expo.data();
  // Per chunk: its largest exponent, then its four sums relative to it.
  resize_exact(ctx_.cov_partial, 5 * chunks);
  double* top = ctx_.cov_partial.data();
  double* sums = top + chunks;
  run_chunks(pool_, 0, s, grain,
             [&](std::size_t c, std::size_t lo, std::size_t hi) {
               const std::size_t len = hi - lo;
               top[c] = simd::fill_line_max(ratio + lo, slope + lo, alpha,
                                            sigma, expo + lo, len);
               simd::fill_scaled_shift(expo + lo, expo + lo, len, -1.0,
                                       top[c]);
               simd::exp_batch_poly(expo + lo, expo + lo, len);
               simd::split_weighted_sums(weighted + lo, expo + lo,
                                         slope + lo, len, sums + 4 * c);
             });
  // Rescale every chunk to the largest exponent overall, in chunk order.
  double max_top = -std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < chunks; ++c) max_top = std::max(max_top, top[c]);
  simd::fill_scaled_shift(top, top, chunks, -1.0, max_top);
  simd::exp_batch_poly(top, top, chunks);
  PotentialSlope d;
  for (std::size_t c = 0; c < chunks; ++c) {
    d.pos += top[c] * sums[4 * c];
    d.neg += top[c] * sums[4 * c + 1];
    d.pos_second += top[c] * sums[4 * c + 2];
    d.neg_second += top[c] * sums[4 * c + 3];
  }
  return d;
}

}  // namespace dp::core
