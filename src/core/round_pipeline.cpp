#include "core/round_pipeline.hpp"

#include <algorithm>
#include <cmath>

#include "util/simd.hpp"

namespace dp::core {

namespace {

/// The compute half of the Theorem 5 multiplier rule, shared by the full
/// retained sweep and the stored-sample refinement: u_i =
/// exp(-alpha (ratio_i - min_ratio)) / wHat_{level_at(i)} with an exact
/// chunked max reduction, then the additive u_max eps / (4 count + 4)
/// floor. `level_at(i)` must be pure per index.
template <typename LevelAt>
void exp_floor_multipliers(ThreadPool* pool, std::size_t grain,
                           const LevelGraph& lg, double alpha,
                           double min_ratio, const double* ratio,
                           std::size_t count, const LevelAt& level_at,
                           std::vector<double>& u,
                           std::vector<double>& partial,
                           std::vector<double>& divisor) {
  const std::size_t chunks = count == 0 ? 0 : (count + grain - 1) / grain;
  u.assign(count, 0.0);
  partial.assign(chunks, 0.0);
  divisor.resize(count);
  double* out = u.data();
  double* part = partial.data();
  double* div = divisor.data();
  // Three passes per chunk, every one a clones-dispatched elementwise
  // kernel (util/simd): argument fill, exp_batch_poly in place, then the
  // level-weight divide fused with the chunk max as a bit-pattern integer
  // reduction (all quotients are positive). Only the divisor gather stays
  // scalar — level_at is an indexed load the sweep cannot vectorize.
  // Chunk results depend only on [lo, hi), so the fixed-grain determinism
  // contract is untouched, and every kernel is bitwise identical to the
  // scalar loop it replaced at any lane width.
  run_chunks(pool, 0, count, grain,
             [&](std::size_t c, std::size_t lo, std::size_t hi) {
               simd::fill_scaled_shift(ratio + lo, out + lo, hi - lo, alpha,
                                       min_ratio);
               simd::exp_batch_poly(out + lo, out + lo, hi - lo);
               for (std::size_t i = lo; i < hi; ++i) {
                 div[i] = lg.level_weight(level_at(i));
               }
               part[c] =
                   simd::divide_max_positive(out + lo, div + lo, hi - lo);
             });
  double u_max = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    u_max = std::max(u_max, part[c]);
  }
  const double floor_value =
      u_max * lg.eps() / (4.0 * static_cast<double>(count) + 4.0);
  for (double& value : u) value = std::max(value, floor_value);
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
  exp_floor_multipliers(
      pool_, options_.grain, lg, alpha, staged_min_ratio_,
      ctx_.cov_ratio.data(), m,
      [&lg, rid](std::size_t idx) { return lg.level(rid[idx]); },
      ctx_.promise, ctx_.cov_partial, ctx_.divisor);

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
    return solve_offline(ids, edges);
  };
  return submit_job(pool_, std::move(job));
}

void RoundPipeline::stage_inner(const SamplingRound& draws, double alpha,
                                DualState& state, Incumbent& inc,
                                RoundReport& report) {
  const double eps = options_.eps;
  for (std::size_t q = 0; q < draws.num_sparsifiers(); ++q) {
    // Inner-iteration boundary: each completed iteration's blend is a
    // whole dual step, so stopping between iterations leaves a valid
    // iterate (run_round's catch joins the offline job before unwinding).
    options_.stop.throw_if_stopped("pipeline.inner");
    // Deferred refinement: evaluate the CURRENT multipliers on exactly the
    // stored indices (no new data access). Sparsifier q's support is a
    // bit-filtered extraction of the round's frozen union.
    extract_sparsifier(draws, q);
    if (ctx_.ids.empty()) continue;
    gather_stored_attrs();
    covering_us_stored(state, alpha, ctx_.u_now);
    ctx_.us.resize(ctx_.ids.size());
    run_chunks(pool_, 0, ctx_.ids.size(), options_.grain,
               [&](std::size_t, std::size_t lo, std::size_t hi) {
                 for (std::size_t i = lo; i < hi; ++i) {
                   ctx_.us[i] = StoredMultiplier{
                       ctx_.ids[i], ctx_.u_now[i] / ctx_.sample_prob[i]};
                 }
               });
    build_zeta(state);

    const MicroResult mr = oracle_->run_lagrangian(ctx_.us, ctx_.zeta,
                                                   inc.beta,
                                                   &report.oracle_calls);
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

OfflineSolution RoundPipeline::solve_offline(
    const std::vector<EdgeId>& ids, const std::vector<Edge>& edges) const {
  Graph sub(substrate_->num_vertices());
  for (const Edge& edge : edges) {
    sub.add_edge(edge.u, edge.v, edge.w);
  }
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

void RoundPipeline::gather_stored_attrs() {
  const std::size_t s = ctx_.store_idx.size();
  ctx_.store_attr.resize(s);
  const std::uint32_t* idxs = ctx_.store_idx.data();
  access::RetainedEdge* out = ctx_.store_attr.data();
  // One batched fetch per fixed-grain chunk: a row copy on table-backed
  // substrates, a merge walk of the per-round sample cache on the
  // file-backed one (the extracted indices are ascending).
  const access::Substrate* sub = substrate_;
  run_chunks(pool_, 0, s, options_.grain,
             [&](std::size_t, std::size_t lo, std::size_t hi) {
               sub->stored_attrs(idxs + lo, hi - lo, out + lo);
             });
}

void RoundPipeline::covering_us_stored(const DualState& state, double alpha,
                                       std::vector<double>& u) {
  const LevelGraph& lg = *lg_;
  const access::RetainedEdge* attr = ctx_.store_attr.data();
  const std::size_t s = ctx_.store_idx.size();
  const std::size_t grain = options_.grain;
  const std::size_t chunks = s == 0 ? 0 : (s + grain - 1) / grain;
  ctx_.u_now.resize(s);
  ctx_.cov_partial.assign(chunks, 1e300);
  double* ratio = ctx_.cov_ratio.data();  // reuse; sized >= s (s <= m)
  double* partial = ctx_.cov_partial.data();
  run_chunks(pool_, 0, s, grain,
             [&](std::size_t c, std::size_t lo, std::size_t hi) {
               double local_min = 1e300;
               for (std::size_t i = lo; i < hi; ++i) {
                 const access::RetainedEdge& re = attr[i];
                 ratio[i] =
                     state.cover_row(re.u, re.v, re.level) /
                     lg.level_weight(re.level);
                 local_min = std::min(local_min, ratio[i]);
               }
               partial[c] = local_min;
             });
  double min_ratio = 1e300;
  for (std::size_t c = 0; c < chunks; ++c) {
    min_ratio = std::min(min_ratio, partial[c]);
  }
  exp_floor_multipliers(
      pool_, grain, lg, alpha, min_ratio, ratio, s,
      [attr](std::size_t i) { return attr[i].level; }, u,
      ctx_.cov_partial, ctx_.divisor);
}

void RoundPipeline::extract_sparsifier(const SamplingRound& draws,
                                       std::size_t q) {
  const std::vector<std::uint32_t>& uni = draws.union_support();
  const std::uint32_t* masks = draws.masks().data();
  const EdgeId* rid = lg_->retained().data();
  const std::vector<double>& prob = ctx_.prob;
  const std::size_t u_size = uni.size();
  const std::size_t grain = options_.grain;
  const std::size_t chunks =
      u_size == 0 ? 0 : (u_size + grain - 1) / grain;
  ctx_.chunk_cursor.assign(chunks, 0);
  std::uint32_t* cursor = ctx_.chunk_cursor.data();
  run_chunks(pool_, 0, u_size, grain,
             [&](std::size_t c, std::size_t lo, std::size_t hi) {
               std::uint32_t count = 0;
               for (std::size_t i = lo; i < hi; ++i) {
                 count += (masks[uni[i]] >> q) & 1u;
               }
               cursor[c] = count;
             });
  std::uint32_t total = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::uint32_t count = cursor[c];
    cursor[c] = total;
    total += count;
  }
  ctx_.store_idx.resize(total);
  ctx_.ids.resize(total);
  ctx_.sample_prob.resize(total);
  std::uint32_t* sidx = ctx_.store_idx.data();
  EdgeId* ids = ctx_.ids.data();
  double* sp = ctx_.sample_prob.data();
  run_chunks(pool_, 0, u_size, grain,
             [&](std::size_t c, std::size_t lo, std::size_t hi) {
               std::uint32_t cur = cursor[c];
               for (std::size_t i = lo; i < hi; ++i) {
                 const std::uint32_t idx = uni[i];
                 if ((masks[idx] >> q) & 1u) {
                   sidx[cur] = idx;
                   ids[cur] = rid[idx];
                   sp[cur] = prob[idx];
                   ++cur;
                 }
               }
             });
}

void RoundPipeline::build_zeta(const DualState& state) {
  const LevelGraph& lg = *lg_;
  const access::RetainedEdge* attr = ctx_.store_attr.data();
  const double eps = options_.eps;
  const auto levels = static_cast<std::uint64_t>(lg.num_levels());
  const std::size_t s = ctx_.store_idx.size();
  const std::size_t grain = options_.grain;

  // zeta: packing multipliers on the active outer rows (i, k), built flat:
  // the stored edges' endpoint rows are marked in the (vertex, level)
  // bitset, whose drain yields them sorted and unique; then two
  // chunk-parallel exp sweeps (the max reduction is exact).
  KeyBitset& marks = ctx_.row_marks;
  marks.reserve(substrate_->num_vertices() * levels);
  for (std::size_t i = 0; i < s; ++i) {
    const access::RetainedEdge& re = attr[i];
    const auto k = static_cast<std::uint64_t>(re.level);
    marks.mark(static_cast<std::uint64_t>(re.u) * levels + k);
    marks.mark(static_cast<std::uint64_t>(re.v) * levels + k);
  }
  ctx_.row_keys.clear();
  marks.drain([this](std::uint64_t key) { ctx_.row_keys.push_back(key); });
  const std::uint64_t* row_keys = ctx_.row_keys.data();

  const std::size_t rows = ctx_.row_keys.size();
  const std::size_t chunks = rows == 0 ? 0 : (rows + grain - 1) / grain;
  ctx_.expos.resize(rows);
  ctx_.cov_partial.assign(chunks, -1e300);
  double* expos = ctx_.expos.data();
  double* partial = ctx_.cov_partial.data();
  const double alpha_p =
      std::log(2.0 * (static_cast<double>(rows) + 1) / eps) * 6.0 / eps;
  run_chunks(pool_, 0, rows, grain,
             [&](std::size_t c, std::size_t lo, std::size_t hi) {
               double local_max = -1e300;
               for (std::size_t r = lo; r < hi; ++r) {
                 const auto i = static_cast<Vertex>(row_keys[r] / levels);
                 const int k = static_cast<int>(row_keys[r] % levels);
                 const double q_val = 3.0 * lg.level_weight(k);
                 expos[r] = alpha_p * state.po_row(i, k) / q_val;
                 local_max = std::max(local_max, expos[r]);
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
  ctx_.divisor.resize(rows);
  double* div = ctx_.divisor.data();
  run_chunks(pool_, 0, rows, grain,
             [&](std::size_t, std::size_t lo, std::size_t hi) {
               simd::fill_scaled_shift(expos + lo, expos + lo, hi - lo,
                                       -1.0, max_expo);
               simd::exp_batch_poly(expos + lo, expos + lo, hi - lo);
               for (std::size_t r = lo; r < hi; ++r) {
                 const int k = static_cast<int>(row_keys[r] % levels);
                 div[r] = 3.0 * lg.level_weight(k);
               }
               simd::divide_batch(expos + lo, div + lo, hi - lo);
             });
  ctx_.zeta.clear();
  ctx_.zeta.reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    ctx_.zeta.append(row_keys[r], expos[r]);
  }
}

}  // namespace dp::core
