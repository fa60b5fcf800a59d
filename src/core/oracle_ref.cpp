#include "core/oracle_ref.hpp"

#include <algorithm>
#include <cmath>

namespace dp::core::ref {

namespace {

double lookup(const MapDuals& zeta, std::uint64_t key) {
  const auto it = zeta.find(key);
  return it == zeta.end() ? 0.0 : it->second;
}

/// Sum of wHat_l for l in [lo, hi], by the seed's O(L) loop (the flat path
/// answers the same query from prefix sums).
double level_weight_range(const LevelGraph& lg, int lo, int hi) {
  double s = 0;
  for (int l = lo; l <= hi; ++l) s += lg.level_weight(l);
  return s;
}

MapDualPoint combine_points_map(const MapDualPoint& a, double s1,
                                const MapDualPoint& b, double s2) {
  MapDualPoint out;
  for (const auto& [key, value] : a.xik) {
    if (value > 0) out.xik[key] += s1 * value;
  }
  for (const auto& [key, value] : b.xik) {
    if (value > 0) out.xik[key] += s2 * value;
  }
  for (const OddSetVar& var : a.odd_sets) {
    if (var.value > 0) {
      out.odd_sets.push_back(OddSetVar{var.level, var.members,
                                       s1 * var.value});
    }
  }
  for (const OddSetVar& var : b.odd_sets) {
    if (var.value > 0) {
      out.odd_sets.push_back(OddSetVar{var.level, var.members,
                                       s2 * var.value});
    }
  }
  return out;
}

MicroResult export_result(MicroResult::Kind kind, double gamma,
                          const MapDualPoint& x) {
  MicroResult out;
  out.kind = kind;
  out.gamma = gamma;
  out.x.xik = to_sparse(x.xik);
  out.x.odd_sets = x.odd_sets;
  return out;
}

}  // namespace

MapDuals to_map(const SparseDuals& sparse) {
  MapDuals out;
  out.reserve(sparse.size() * 2);
  for (const auto& [key, value] : sparse) out.emplace(key, value);
  return out;
}

SparseDuals to_sparse(const MapDuals& map) {
  std::vector<std::pair<std::uint64_t, double>> entries(map.begin(),
                                                        map.end());
  std::sort(entries.begin(), entries.end());
  SparseDuals out;
  out.reserve(entries.size());
  for (const auto& [key, value] : entries) out.append(key, value);
  return out;
}

double MicroOracleRef::weighted_po_map(const MapDualPoint& x,
                                       const MapDuals& zeta) const {
  const int L = lg_->num_levels();
  double total = 0;
  // 2 x_i(k) terms.
  for (const auto& [key, zeta_val] : zeta) {
    const auto it = x.xik.find(key);
    if (it != x.xik.end()) total += zeta_val * 2.0 * it->second;
  }
  // Odd-set terms: z_{U,l} enters row (i,k) for every i in U and k >= l.
  if (!x.odd_sets.empty()) {
    // Index zeta by vertex for the membership sweep.
    std::unordered_map<Vertex, std::vector<std::pair<int, double>>> by_vertex;
    for (const auto& [key, zeta_val] : zeta) {
      const auto i = static_cast<Vertex>(key / L);
      const int k = static_cast<int>(key % L);
      by_vertex[i].emplace_back(k, zeta_val);
    }
    for (const OddSetVar& var : x.odd_sets) {
      for (Vertex v : var.members) {
        const auto it = by_vertex.find(v);
        if (it == by_vertex.end()) continue;
        for (const auto& [k, zeta_val] : it->second) {
          if (k >= var.level) total += zeta_val * var.value;
        }
      }
    }
  }
  return total;
}

double MicroOracleRef::weighted_qo_map(const MapDuals& zeta) const {
  const int L = lg_->num_levels();
  double total = 0;
  for (const auto& [key, zeta_val] : zeta) {
    const int k = static_cast<int>(key % L);
    total += zeta_val * 3.0 * lg_->level_weight(k);
  }
  return total;
}

double MicroOracleRef::weighted_po(const DualPoint& x,
                                   const SparseDuals& zeta) const {
  MapDualPoint mx;
  mx.xik = to_map(x.xik);
  mx.odd_sets = x.odd_sets;
  return weighted_po_map(mx, to_map(zeta));
}

double MicroOracleRef::weighted_qo(const SparseDuals& zeta) const {
  return weighted_qo_map(to_map(zeta));
}

MicroResult MicroOracleRef::run(const std::vector<StoredMultiplier>& us,
                                const SparseDuals& zeta, double beta,
                                double rho, OddSetCache* cache) const {
  return run_map(us, to_map(zeta), beta, rho, cache);
}

MicroResult MicroOracleRef::run_map(const std::vector<StoredMultiplier>& us,
                                    const MapDuals& zeta, double beta,
                                    double rho, OddSetCache* cache) const {
  const LevelGraph& lg = *lg_;
  const Capacities& b = *b_;
  const int L = lg.num_levels();
  const double eps = lg.eps();
  auto key = [L](Vertex i, int k) {
    return static_cast<std::uint64_t>(i) * L + k;
  };

  MapDualPoint x;
  double result_gamma = 0.0;

  // ---- gamma and per-(i,k) us sums (Step 1). ----
  MapDuals sum_us;
  double gamma = 0;
  for (const StoredMultiplier& sm : us) {
    const Edge& e = lg.graph().edge(sm.edge);
    const int k = lg.level(sm.edge);
    if (k < 0 || sm.us <= 0) continue;
    sum_us[key(e.u, k)] += sm.us;
    sum_us[key(e.v, k)] += sm.us;
    gamma += lg.level_weight(k) * sm.us;
  }
  for (const auto& [kk, z] : zeta) {
    const int k = static_cast<int>(kk % L);
    gamma -= 3.0 * rho * lg.level_weight(k) * z;
  }
  result_gamma = gamma;
  if (gamma <= 0) {
    // x = 0 satisfies LagInner trivially.
    return export_result(MicroResult::Kind::kDual, result_gamma, x);
  }

  // ---- Pos(i) and A_i(k) = sum_us - 2 rho zeta (Step 2). ----
  std::unordered_map<Vertex, std::vector<std::pair<int, double>>> pos;
  for (const auto& [kk, s] : sum_us) {
    const auto i = static_cast<Vertex>(kk / L);
    const int k = static_cast<int>(kk % L);
    const double a = s - 2.0 * rho * lookup(zeta, kk);
    if (a > 0) pos[i].emplace_back(k, a);
  }
  for (auto& [i, vec] : pos) std::sort(vec.begin(), vec.end());

  // ---- k*_i and Viol(V) (Steps 3-4). ----
  struct Violation {
    Vertex i;
    int kstar;
    double delta;
  };
  std::vector<Violation> violations;
  double gamma_v = 0;
  for (const auto& [i, vec] : pos) {
    const std::size_t t_all = vec.size();
    // prefW[t] = sum_{s < t} wHat_{k_s} A_s ; sufA[t] = sum_{s >= t} A_s.
    std::vector<double> pref(t_all + 1, 0.0), suf(t_all + 1, 0.0);
    for (std::size_t s = 0; s < t_all; ++s) {
      pref[s + 1] = pref[s] + lg.level_weight(vec[s].first) * vec[s].second;
    }
    for (std::size_t s = t_all; s-- > 0;) {
      suf[s] = suf[s + 1] + vec[s].second;
    }
    std::size_t t = t_all;  // count of pos levels <= current l
    const double bi = static_cast<double>(b[i]);
    for (int l = L - 1; l >= 0; --l) {
      while (t > 0 && vec[t - 1].first > l) --t;
      const double wl = lg.level_weight(l);
      const double delta = pref[t] + wl * suf[t];
      if (delta > gamma * bi * wl / beta) {
        violations.push_back(Violation{i, l, delta});
        gamma_v += delta;
        break;  // largest such l
      }
    }
  }

  // ---- Case A (Step 5-7): vertex duals absorb the violation mass. ----
  if (gamma_v >= eps * gamma / 24.0) {
    for (const Violation& vl : violations) {
      for (const auto& [k, a] : pos[vl.i]) {
        const double w = lg.level_weight(std::min(k, vl.kstar));
        x.xik[key(vl.i, k)] = gamma * w / gamma_v;
      }
    }
    return export_result(MicroResult::Kind::kDual, result_gamma, x);
  }

  // ---- Step 9: raise zeta to zbar on violated (i, k <= k*). ----
  MapDuals zbar = zeta;
  double gamma_prime = gamma;
  for (const Violation& vl : violations) {
    for (const auto& [k, a] : pos[vl.i]) {
      if (k > vl.kstar) continue;
      const std::uint64_t kk = key(vl.i, k);
      const double replacement = sum_us[kk] / (2.0 * rho);
      const double old = lookup(zbar, kk);
      if (replacement > old) {
        zbar[kk] = replacement;
        gamma_prime -= 3.0 * rho * lg.level_weight(k) * (replacement - old);
      }
    }
  }

  if (!config_.use_odd_sets) {
    return export_result(MicroResult::Kind::kPrimal, result_gamma, x);
  }

  // ---- Odd-set phase (Steps 11-19, with gap lumping). ----
  // Active levels = levels holding stored edges, descending. K(l) is
  // constant between consecutive active levels, so the per-level variables
  // z_{U,l} of a gap are lumped at the gap's top (active) level with weight
  // sum_{l in gap} wHat_l — exactly equivalent for every covering / outer
  // packing row because no edge lives strictly inside a gap.
  std::vector<int> active_levels;
  {
    std::vector<char> has(L, 0);
    for (const StoredMultiplier& sm : us) {
      const int k = lg.level(sm.edge);
      if (k >= 0 && sm.us > 0) has[k] = 1;
    }
    for (int k = L - 1; k >= 0; --k) {
      if (has[k]) active_levels.push_back(k);
    }
  }
  // Restrict separation to the lowest few active levels (each costs a
  // Gomory-Hu tree). Lower levels include more edges, so they dominate.
  std::size_t first = 0;
  if (active_levels.size() > kMaxSeparationLevels) {
    first = active_levels.size() - kMaxSeparationLevels;
  }

  // Per-vertex zbar entries sorted by level for suffix sums.
  std::unordered_map<Vertex, std::vector<std::pair<int, double>>>
      zbar_by_vertex;
  for (const auto& [kk, z] : zbar) {
    if (z > 0) {
      zbar_by_vertex[static_cast<Vertex>(kk / L)].emplace_back(
          static_cast<int>(kk % L), z);
    }
  }
  auto zbar_suffix = [&](Vertex i, int l) {
    const auto it = zbar_by_vertex.find(i);
    if (it == zbar_by_vertex.end()) return 0.0;
    double s = 0;
    for (const auto& [k, z] : it->second) {
      if (k >= l) s += z;
    }
    return s;
  };

  struct LevelFamily {
    int level;
    double gap_weight;
    std::vector<std::vector<Vertex>> sets;
    std::vector<double> delta;
  };
  std::vector<LevelFamily> families;
  double gamma_os = 0;
  const double q_scale = (1.0 - eps / 4.0) * beta / gamma;

  for (std::size_t a = first; a < active_levels.size(); ++a) {
    const int l = active_levels[a];
    const int gap_lo = (a + 1 < active_levels.size())
                           ? active_levels[a + 1] + 1
                           : 0;
    // The lowest separated level also absorbs every level below it.
    const int effective_lo = (a == active_levels.size() - 1) ? 0 : gap_lo;
    const double gap_w = level_weight_range(lg, effective_lo, l);

    // Candidate separation (a Gomory-Hu tree per level) runs once per
    // cache lifetime; Equation (4) below re-validates every candidate for
    // the current rho, so reuse never costs soundness.
    const std::vector<std::vector<Vertex>>* candidates = nullptr;
    std::vector<std::vector<Vertex>> fresh;
    if (cache != nullptr && cache->populated) {
      const OddSetCache::LevelEntry* entry = cache->find(l);
      if (entry == nullptr) continue;  // level had no candidates
      candidates = &entry->sets;
    } else {
      std::vector<OddSetQueryEdge> q_edges;
      for (const StoredMultiplier& sm : us) {
        const int k = lg.level(sm.edge);
        if (k < l || sm.us <= 0) continue;
        const Edge& e = lg.graph().edge(sm.edge);
        q_edges.push_back(OddSetQueryEdge{e.u, e.v, q_scale * sm.us});
      }
      if (q_edges.empty()) continue;
      std::vector<double> q_hat(lg.graph().num_vertices(), 0.0);
      for (std::size_t v = 0; v < q_hat.size(); ++v) {
        q_hat[v] = static_cast<double>(b[static_cast<Vertex>(v)]) +
                   2.0 * q_scale * rho *
                       zbar_suffix(static_cast<Vertex>(v), l);
      }
      fresh = find_dense_odd_sets(lg.graph().num_vertices(), q_edges, q_hat,
                                  b, OddSetOptions{.eps = eps});
      if (cache != nullptr) {
        cache->by_level.emplace_back();
        cache->by_level.back().level = l;
        cache->by_level.back().sets = fresh;
      }
      candidates = &fresh;
    }

    LevelFamily family;
    family.level = l;
    family.gap_weight = gap_w;
    for (const auto& set : *candidates) {
      // Delta(U, l) = sum_{k>=l} ( sum_{edges in U} us - rho sum_i zbar ).
      double delta = 0;
      for (const StoredMultiplier& sm : us) {
        const int k = lg.level(sm.edge);
        if (k < l || sm.us <= 0) continue;
        const Edge& e = lg.graph().edge(sm.edge);
        if (std::binary_search(set.begin(), set.end(), e.u) &&
            std::binary_search(set.begin(), set.end(), e.v)) {
          delta += sm.us;
        }
      }
      for (Vertex v : set) delta -= rho * zbar_suffix(v, l);
      if (delta <= 0) continue;
      // Revalidate Equation (4): the set must be dense enough that
      // q_scale * delta covers floor(||U||_b / 2).
      std::int64_t bw = 0;
      for (Vertex v : set) bw += b[v];
      const double need = std::floor(static_cast<double>(bw) / 2.0);
      if (q_scale * delta < need) continue;
      family.sets.push_back(set);
      family.delta.push_back(delta);
      gamma_os += gap_w * delta;
    }
    if (!family.sets.empty()) families.push_back(std::move(family));
  }
  if (cache != nullptr) cache->populated = true;

  // ---- Case B (Steps 16-18): odd-set duals absorb the mass. ----
  if (gamma_os >= eps * gamma_prime / 24.0 && gamma_prime > 0) {
    for (const LevelFamily& family : families) {
      for (std::size_t s = 0; s < family.sets.size(); ++s) {
        OddSetVar var;
        var.level = family.level;
        var.members = family.sets[s];
        var.value = gamma_prime * family.gap_weight / gamma_os;
        x.odd_sets.push_back(std::move(var));
      }
    }
    return export_result(MicroResult::Kind::kDual, result_gamma, x);
  }

  // ---- Case C (Steps 20-21): primal progress (Lemma 13 applies). ----
  return export_result(MicroResult::Kind::kPrimal, result_gamma, x);
}

MicroResult MicroOracleRef::run_lagrangian(
    const std::vector<StoredMultiplier>& us, const SparseDuals& zeta,
    double beta, std::size_t* calls) const {
  const LevelGraph& lg = *lg_;
  const MapDuals zeta_map = to_map(zeta);
  double usc = 0;
  for (const StoredMultiplier& sm : us) {
    const int k = lg.level(sm.edge);
    if (k >= 0 && sm.us > 0) usc += lg.level_weight(k) * sm.us;
  }
  OddSetCache cache;  // one separation pass amortized over all rho probes
  // The seed kept map-typed intermediate points through the whole search;
  // convert only the final answer.
  struct MapResult {
    MicroResult::Kind kind;
    MapDualPoint x;
    double gamma;
  };
  auto invoke = [&](double rho) {
    if (calls != nullptr) ++(*calls);
    const MicroResult r = run_map(us, zeta_map, beta, rho, &cache);
    MapResult m;
    m.kind = r.kind;
    m.gamma = r.gamma;
    m.x.xik = to_map(r.x.xik);
    m.x.odd_sets = r.x.odd_sets;
    return m;
  };
  auto finish = [&](const MapResult& m) {
    return export_result(m.kind, m.gamma, m.x);
  };

  const double zq = weighted_qo_map(zeta_map);
  if (zq <= 0 || usc <= 0) {
    // No outer packing pressure: a single invocation suffices.
    return finish(invoke(1.0));
  }
  const double eps = lg.eps();
  const double upsilon = (13.0 / 12.0) * zq;
  const double rho0 = 12.0 * usc / (13.0 * zq);

  double rho_lo = eps * usc / (16.0 * zq);
  MapResult low = invoke(rho_lo);
  if (low.kind == MicroResult::Kind::kPrimal) return finish(low);
  double po_lo = weighted_po_map(low.x, zeta_map);
  if (po_lo <= upsilon) return finish(low);

  // Grow rho until the outer packing constraint is met (x = 0 is returned
  // once gamma <= 0, which trivially satisfies it).
  double rho_hi = rho0;
  MapResult high = invoke(rho_hi);
  if (high.kind == MicroResult::Kind::kPrimal) return finish(high);
  double po_hi = weighted_po_map(high.x, zeta_map);
  int guard = 0;
  while (po_hi > upsilon && guard++ < 16) {
    rho_hi *= 2.0;
    high = invoke(rho_hi);
    if (high.kind == MicroResult::Kind::kPrimal) return finish(high);
    po_hi = weighted_po_map(high.x, zeta_map);
  }
  if (po_hi > upsilon) return finish(high);  // give up; still LagInner

  // Binary search to a rho interval of width eps * rho0 / 16 (Lemma 10).
  int iters = 0;
  while (rho_hi - rho_lo > eps * rho0 / 16.0 && iters++ < 24) {
    const double mid = 0.5 * (rho_lo + rho_hi);
    MapResult m = invoke(mid);
    if (m.kind == MicroResult::Kind::kPrimal) return finish(m);
    const double po_mid = weighted_po_map(m.x, zeta_map);
    if (po_mid <= upsilon) {
      rho_hi = mid;
      high = std::move(m);
      po_hi = po_mid;
    } else {
      rho_lo = mid;
      low = std::move(m);
      po_lo = po_mid;
    }
  }
  // Convex combination with s1 * po_lo + s2 * po_hi = upsilon.
  const double denom = po_lo - po_hi;
  double s1 = denom > 1e-12 ? (upsilon - po_hi) / denom : 0.0;
  s1 = std::clamp(s1, 0.0, 1.0);
  MapResult result;
  result.kind = MicroResult::Kind::kDual;
  result.gamma = high.gamma;
  result.x = combine_points_map(low.x, s1, high.x, 1.0 - s1);
  return finish(result);
}

}  // namespace dp::core::ref
