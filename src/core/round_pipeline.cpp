#include "core/round_pipeline.hpp"

#include <algorithm>
#include <cmath>

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
      sample_rng_(options_.sample_seed) {
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
    const double sigma =
        std::min(0.5, eps / (4.0 * alpha * 6.0));  // rho_o = 6 (LP4/LP5)
    state.blend(mr.x, sigma);
    x_fresh = false;
  }
  ctx_.inner_meter.add_oracle_calls(report.oracle_calls);
  // Per-round separation flow-work delta. The oracle's counters are
  // monotone over its lifetime; differencing against the last-seen snapshot
  // charges exactly this round's flows to this round's inner meter. The
  // separation work is a pure function of the oracle inputs, so the delta
  // is identical for any thread count or substrate. Separator meters never
  // touch the stored/resident gauges, so merge()'s peak rule is a no-op.
  const ResourceMeter sep = oracle_->separation_stats();
  ResourceMeter::Counters delta{};
  for (std::size_t c = 0; c < ResourceMeter::kCounterCount; ++c) {
    delta[c] = sep.counters()[c] - sep_seen_.counters()[c];
  }
  ctx_.inner_meter.merge(ResourceMeter(delta));
  sep_seen_ = sep;
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
  OfflineSolution out;
  out.bm = BMatching(lg_->graph().num_edges());
  if (unit_caps_) {
    const Matching m = approx_weighted_matching(sub, options_.offline);
    out.support.reserve(m.size());
    for (EdgeId local : m.edges()) {
      out.bm.set_multiplicity(ids[local], 1);
      out.support.push_back(ids[local]);
    }
  } else {
    const BMatching bm = approx_weighted_b_matching(sub, *b_);
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

void RoundPipeline::merge_offline(const OfflineSolution& sol,
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
  resize_exact(ctx_.us, s);
  resize_exact(ctx_.divisor, s);
  ctx_.cov_partial.assign(chunks, 1e300);
  std::uint32_t* row_u = ctx_.row_u.data();
  std::uint32_t* row_v = ctx_.row_v.data();
  double* div = ctx_.divisor.data();
  double* ratio = ctx_.cov_ratio.data();  // reuse; sized >= s (s <= m)
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
  double* us = ctx_.us.data();
  exp_floor_multipliers(pool_, grain, lg.eps(), alpha, min_ratio, ratio, div,
                        s, ratio, ctx_.cov_partial,
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

}  // namespace dp::core
