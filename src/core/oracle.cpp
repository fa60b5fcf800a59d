#include "core/oracle.hpp"

#include <algorithm>
#include <cmath>

namespace dp::core {

/// Reusable flat scratch for one oracle instance. Vectors keep their
/// capacity across calls so the steady state allocates nothing.
struct MicroOracle::Scratch {
  /// Step 1 of the current sample (prepare): per-row us sums indexed by
  /// table position, sum wHat_k us, and the levels holding stored edges,
  /// descending.
  std::vector<double> row_sum;
  double usc = 0.0;
  std::vector<int> active_levels;
  std::vector<char> has_level;           // level -> holds stored edges
  std::vector<std::uint32_t> pos_row;    // table positions with A_i(k) > 0
  std::vector<double> pos_a;             // A_i(k) per pos entry
  std::vector<double> pos_sum;           // sum_us per pos entry (Step 9)
  std::vector<double> pref;              // in-run exclusive prefix of w*A
  std::vector<double> suf;               // in-run inclusive suffix of A
  std::vector<double> run_pref_total;    // full w*A sum per run
  std::vector<std::size_t> run_start;    // run r = [run_start[r], run_start[r+1])
  struct Viol {
    int kstar = -1;
    double delta = 0.0;
  };
  std::vector<Viol> viol;  // per-run violation slot
  /// Step 9 sparse zbar: raised rows and the merged overlay, both keyed
  /// by table position, and the overlay re-bucketed by level descending
  /// for the suffix cursor (with vertex and level resolved, so the next
  /// invocation can reset zsuffix whatever table it brings).
  std::vector<std::pair<std::uint32_t, double>> repl;
  std::vector<std::pair<std::uint32_t, double>> zpairs;
  struct ZbarEntry {
    Vertex vertex;
    int level;
    double value;
  };
  std::vector<ZbarEntry> zlevel;
  std::vector<double> zsuffix;  // vertex -> sum zbar_{v,k>=l} (current l)
  std::vector<std::int32_t> set_of;   // vertex -> candidate id at this level
  std::vector<double> partials;       // per-item results for reductions
  /// Per-job separation state, reused across invocations so steady-state
  /// separation allocates nothing: one engine plus one query-edge/q_hat
  /// snapshot buffer per per-level job slot.
  std::vector<OddSetSeparator> separators;
  std::vector<std::vector<OddSetQueryEdge>> job_q;
  std::vector<std::vector<double>> job_qhat;
  /// The row form of an edge-id sample (row_form's output); the index
  /// is sized n*L on first use.
  RowIndex index;
  std::vector<double> us;
  std::vector<std::uint32_t> row_u;
  std::vector<std::uint32_t> row_v;
  std::vector<std::uint32_t> zeta_rows;
  std::vector<double> zeta;

  void ensure(std::size_t n, int levels) {
    if (zsuffix.size() < n) {
      zsuffix.resize(n, 0.0);
      set_of.assign(n, -1);
    }
    if (has_level.size() < static_cast<std::size_t>(levels)) {
      has_level.resize(static_cast<std::size_t>(levels), 0);
    }
  }
};

namespace {

/// First index j in [0, count) with key_at(j) >= key (key_at ascending).
template <typename KeyAt>
std::size_t first_key_at_least(std::size_t count, const KeyAt& key_at,
                               std::uint64_t key) {
  std::size_t lo = 0;
  std::size_t hi = count;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (key_at(mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

MicroOracle::MicroOracle(const LevelGraph& lg, const Capacities& b,
                         OracleConfig config)
    : lg_(&lg), b_(&b), config_(std::move(config)) {}

MicroOracle::~MicroOracle() = default;
MicroOracle::MicroOracle(MicroOracle&&) noexcept = default;
MicroOracle& MicroOracle::operator=(MicroOracle&&) noexcept = default;

MicroOracle::Scratch& MicroOracle::scratch() const {
  if (!scratch_) scratch_ = std::make_unique<Scratch>();
  scratch_->ensure(lg_->graph().num_vertices(), lg_->num_levels());
  return *scratch_;
}

ThreadPool* MicroOracle::pool() const {
  if (config_.threads == 1) return nullptr;
  if (!pool_) pool_ = std::make_unique<ThreadPool>(config_.threads);
  return pool_.get();
}

std::size_t MicroOracle::separation_max_flows() const {
  std::size_t total = 0;
  if (!scratch_) return total;
  for (const OddSetSeparator& sep : scratch_->separators) {
    total += sep.max_flows();
  }
  return total;
}

DualPoint combine_points(const DualPoint& a, double s1, const DualPoint& b,
                         double s2) {
  DualPoint out;
  out.xik.reserve(a.xik.size() + b.xik.size());
  // Merge-join on the sorted keys; an entry exists in the output whenever
  // either input carries positive mass at that key (matching the map-era
  // semantics, including explicit zeros when a scale factor is 0).
  auto ia = a.xik.begin();
  auto ib = b.xik.begin();
  while (ia != a.xik.end() || ib != b.xik.end()) {
    if (ib == b.xik.end() || (ia != a.xik.end() && ia->first < ib->first)) {
      if (ia->second > 0) out.xik.append(ia->first, s1 * ia->second);
      ++ia;
    } else if (ia == a.xik.end() || ib->first < ia->first) {
      if (ib->second > 0) out.xik.append(ib->first, s2 * ib->second);
      ++ib;
    } else {
      const double va = ia->second > 0 ? s1 * ia->second : 0.0;
      const double vb = ib->second > 0 ? s2 * ib->second : 0.0;
      if (ia->second > 0 || ib->second > 0) {
        out.xik.append(ia->first, va + vb);
      }
      ++ia;
      ++ib;
    }
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

double MicroOracle::weighted_po(const DualPoint& x, const ZetaMap& zeta) const {
  return weighted_po(x, row_form({}, zeta));
}

double MicroOracle::weighted_po(const DualPoint& x,
                                const RowSample& sample) const {
  const auto L = static_cast<std::uint64_t>(lg_->num_levels());
  const std::uint64_t* row_key = sample.rows->key.data();
  const std::uint32_t* zr = sample.zeta_rows.data();
  const double* zeta = sample.zeta.data();
  const std::size_t count = sample.zeta_rows.size();
  auto key_at = [row_key, zr](std::size_t j) { return row_key[zr[j]]; };
  double total = 0;
  // 2 x_i(k) terms: merge-join of the two sorted supports.
  {
    auto xit = x.xik.begin();
    for (std::size_t j = 0; j < count; ++j) {
      const std::uint64_t key = key_at(j);
      while (xit != x.xik.end() && xit->first < key) ++xit;
      if (xit == x.xik.end()) break;
      if (xit->first == key) total += zeta[j] * 2.0 * xit->second;
    }
  }
  // Odd-set terms: z_{U,l} enters row (i,k) for every i in U and k >= l.
  // Parallel over variables with per-variable partials, reduced in variable
  // order so the sum is independent of the thread count.
  if (!x.odd_sets.empty()) {
    Scratch& s = scratch();
    const std::size_t nvars = x.odd_sets.size();
    s.partials.assign(nvars, 0.0);
    std::size_t members_total = 0;
    for (const OddSetVar& var : x.odd_sets) members_total += var.members.size();
    const std::size_t grain = std::max<std::size_t>(
        1, config_.parallel_grain / (1 + members_total / nvars));
    run_chunks(pool(), 0, nvars, grain,
               [&](std::size_t, std::size_t lo, std::size_t hi) {
                 for (std::size_t v = lo; v < hi; ++v) {
                   const OddSetVar& var = x.odd_sets[v];
                   double t = 0;
                   for (Vertex member : var.members) {
                     const std::uint64_t base =
                         static_cast<std::uint64_t>(member) * L;
                     for (std::size_t j = first_key_at_least(
                              count, key_at,
                              base + static_cast<std::uint64_t>(var.level));
                          j < count && key_at(j) < base + L; ++j) {
                       t += zeta[j] * var.value;
                     }
                   }
                   s.partials[v] = t;
                 }
               });
    for (std::size_t v = 0; v < nvars; ++v) total += s.partials[v];
  }
  return total;
}

double MicroOracle::weighted_qo(const ZetaMap& zeta) const {
  return weighted_qo(row_form({}, zeta));
}

double MicroOracle::weighted_qo(const RowSample& sample) const {
  const std::int32_t* level = sample.rows->level.data();
  double total = 0;
  for (std::size_t j = 0; j < sample.zeta_rows.size(); ++j) {
    total += sample.zeta[j] * 3.0 *
             lg_->level_weight(level[sample.zeta_rows[j]]);
  }
  return total;
}

RowSample MicroOracle::row_form(const std::vector<StoredMultiplier>& us,
                                const ZetaMap& zeta) const {
  const LevelGraph& lg = *lg_;
  const auto Lu = static_cast<std::uint64_t>(lg.num_levels());
  Scratch& s = scratch();
  auto key = [Lu](Vertex i, int k) {
    return static_cast<std::uint64_t>(i) * Lu + static_cast<std::uint64_t>(k);
  };
  // The table: every row a stored edge touches plus every zeta row. An
  // edge off every level (k < 0) has no row and carries nothing on any
  // path, so it is dropped.
  RowIndex& index = s.index;
  index.reserve(lg.graph().num_vertices() * Lu);
  for (const StoredMultiplier& sm : us) {
    const int k = lg.level(sm.edge);
    if (k < 0) continue;
    const Edge& e = lg.graph().edge(sm.edge);
    index.mark(key(e.u, k));
    index.mark(key(e.v, k));
  }
  for (const auto& [kk, z] : zeta) index.mark(kk);
  index.number(Lu);
  s.us.clear();
  s.row_u.clear();
  s.row_v.clear();
  for (const StoredMultiplier& sm : us) {
    const int k = lg.level(sm.edge);
    if (k < 0) continue;
    const Edge& e = lg.graph().edge(sm.edge);
    s.us.push_back(sm.us);
    s.row_u.push_back(index.position(key(e.u, k)));
    s.row_v.push_back(index.position(key(e.v, k)));
  }
  // zeta over the whole table; rows the caller's zeta lacks carry +0.0.
  const std::size_t rows = index.table().size();
  s.zeta_rows.resize(rows);
  s.zeta.assign(rows, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    s.zeta_rows[r] = static_cast<std::uint32_t>(r);
  }
  for (const auto& [kk, z] : zeta) s.zeta[index.position(kk)] = z;
  RowSample sample;
  sample.rows = &index.table();
  sample.us = s.us;
  sample.row_u = s.row_u;
  sample.row_v = s.row_v;
  sample.zeta_rows = s.zeta_rows;
  sample.zeta = s.zeta;
  return sample;
}

void MicroOracle::prepare(const RowSample& sample) const {
  const LevelGraph& lg = *lg_;
  const int L = lg.num_levels();
  Scratch& s = scratch();
  const std::int32_t* level = sample.rows->level.data();
  // ---- Per-(i,k) us sums and sum wHat_k us (Step 1). ----
  // Each row's sum accumulates in stored-edge order, u-row then v-row,
  // starting from +0.0 — the order of the edge-keyed map path — and
  // sum wHat_k us is gamma's first part (and usc of the Lemma 10 search),
  // identical for every rho probe of the sample.
  if (s.row_sum.size() < sample.rows->size()) {
    s.row_sum.resize(sample.rows->size());
  }
  for (const std::uint32_t r : sample.zeta_rows) s.row_sum[r] = 0.0;
  std::fill(s.has_level.begin(), s.has_level.end(), 0);
  double usc = 0;
  const std::size_t edges = sample.us.size();
  for (std::size_t e = 0; e < edges; ++e) {
    const double us = sample.us[e];
    if (!(us > 0)) continue;
    const std::uint32_t ru = sample.row_u[e];
    s.row_sum[ru] += us;
    s.row_sum[sample.row_v[e]] += us;
    const int k = level[ru];
    usc += lg.level_weight(k) * us;
    s.has_level[k] = 1;
  }
  s.usc = usc;
  s.active_levels.clear();
  for (int k = L - 1; k >= 0; --k) {
    if (s.has_level[k]) s.active_levels.push_back(k);
  }
}

MicroResult MicroOracle::run(const std::vector<StoredMultiplier>& us,
                             const ZetaMap& zeta, double beta, double rho,
                             OddSetCache* cache) const {
  const RowSample sample = row_form(us, zeta);
  prepare(sample);
  return probe(sample, beta, rho, cache);
}

MicroResult MicroOracle::probe(const RowSample& sample, double beta,
                               double rho, OddSetCache* cache) const {
  const LevelGraph& lg = *lg_;
  const Capacities& b = *b_;
  const int L = lg.num_levels();
  const auto Lu = static_cast<std::uint64_t>(L);
  const double eps = lg.eps();
  Scratch& s = scratch();
  const std::uint64_t* row_key = sample.rows->key.data();
  const Vertex* row_vertex = sample.rows->vertex.data();
  const std::int32_t* row_level = sample.rows->level.data();
  const std::uint32_t* zeta_rows = sample.zeta_rows.data();
  const double* zeta = sample.zeta.data();
  const std::size_t zeta_count = sample.zeta_rows.size();
  const std::size_t edges = sample.us.size();

  MicroResult result;

  // ---- gamma (Step 1, with the sums from prepare()). ----
  double gamma = s.usc;
  for (std::size_t j = 0; j < zeta_count; ++j) {
    gamma -= 3.0 * rho * lg.level_weight(row_level[zeta_rows[j]]) * zeta[j];
  }
  result.gamma = gamma;
  if (gamma <= 0) return result;  // x = 0 satisfies LagInner trivially

  // ---- Pos(i) and A_i(k) = sum_us - 2 rho zeta (Step 2). ----
  // zeta_rows covers every row a stored edge touches, ascending; a row no
  // stored edge touches keeps its +0.0 sum and is never positive. Both
  // compactions below are branch-free (write at the cursor, advance it
  // only past kept entries): whether a row is positive is a coin flip.
  s.pos_row.resize(zeta_count);
  s.pos_a.resize(zeta_count);
  s.pos_sum.resize(zeta_count);
  std::size_t P = 0;
  for (std::size_t j = 0; j < zeta_count; ++j) {
    const std::uint32_t r = zeta_rows[j];
    const double sum = s.row_sum[r];
    const double a = sum - 2.0 * rho * zeta[j];
    s.pos_row[P] = r;
    s.pos_a[P] = a;
    s.pos_sum[P] = sum;
    P += static_cast<std::size_t>((sum > 0) & (a > 0));
  }

  // Run boundaries: one run per vertex with positive rows.
  s.run_start.resize(P + 1);
  std::size_t R = 0;
  for (std::size_t j = 0; j < P; ++j) {
    const Vertex v = row_vertex[s.pos_row[j]];
    s.run_start[R] = j;
    R += static_cast<std::size_t>(j == 0 ||
                                  v != row_vertex[s.pos_row[j - 1]]);
  }
  s.run_start[R] = P;

  // ---- k*_i and Viol(V) (Steps 3-4), parallel over vertex runs. ----
  // The map path scans all L levels per vertex. Here: between two
  // consecutive positive levels t is constant, and within such a segment
  // the predicate delta(l) > gamma b_i wHat_l / beta is monotone in l
  // (delta(l) = pref + wHat_l * suf vs a threshold linear in wHat_l), so
  // each segment needs one probe at its bottom plus one binary search in
  // the segment that hits — O(len + log L) per vertex instead of O(L).
  // The probe evaluates the exact float expression of the map path, so
  // recorded violations agree bit-for-bit away from one-ulp boundaries.
  s.pref.resize(P);
  s.suf.resize(P);
  s.run_pref_total.resize(R);
  s.viol.assign(R, Scratch::Viol{});
  const std::size_t run_grain =
      std::max<std::size_t>(1, config_.parallel_grain / 16);
  run_chunks(
      pool(), 0, R, run_grain,
      [&](std::size_t, std::size_t rlo, std::size_t rhi) {
        for (std::size_t r = rlo; r < rhi; ++r) {
          const std::size_t lo = s.run_start[r];
          const std::size_t hi = s.run_start[r + 1];
          // prefW[t] = sum_{s<t} wHat_{k_s} A_s ; sufA[t] = sum_{s>=t} A_s.
          double acc = 0;
          for (std::size_t j = lo; j < hi; ++j) {
            s.pref[j] = acc;
            acc += lg.level_weight(row_level[s.pos_row[j]]) * s.pos_a[j];
          }
          s.run_pref_total[r] = acc;
          double sacc = 0;
          for (std::size_t j = hi; j-- > lo;) {
            sacc += s.pos_a[j];
            s.suf[j] = sacc;
          }
          const Vertex i = row_vertex[s.pos_row[lo]];
          const double bi = static_cast<double>(b[i]);
          const std::size_t len = hi - lo;
          auto level_at = [&](std::size_t t) {
            return row_level[s.pos_row[lo + t]];
          };
          auto delta_at = [&](std::size_t t, int l) {
            const double wl = lg.level_weight(l);
            const double pref_t =
                t == len ? s.run_pref_total[r] : s.pref[lo + t];
            const double suf_t = t == len ? 0.0 : s.suf[lo + t];
            return pref_t + wl * suf_t;
          };
          auto violated = [&](std::size_t t, int l) {
            return delta_at(t, l) > gamma * bi * lg.level_weight(l) / beta;
          };
          // Segment for t: l in [k_{t-1}, k_t - 1] (k_{-1} = 0, k_len = L).
          for (std::size_t t = len + 1; t-- > 0;) {
            const int seg_hi = t == len ? L - 1 : level_at(t) - 1;
            const int seg_lo = t == 0 ? 0 : level_at(t - 1);
            if (seg_hi < seg_lo) continue;  // adjacent positive levels
            if (!violated(t, seg_lo)) continue;  // monotone: no hit here
            int a = seg_lo, c = seg_hi;  // largest violated l in segment
            while (a < c) {
              const int mid = a + (c - a + 1) / 2;
              if (violated(t, mid)) {
                a = mid;
              } else {
                c = mid - 1;
              }
            }
            s.viol[r] = Scratch::Viol{a, delta_at(t, a)};
            break;  // segments scanned top-down: first hit is the largest l
          }
        }
      });
  double gamma_v = 0;
  for (std::size_t r = 0; r < R; ++r) {
    if (s.viol[r].kstar >= 0) gamma_v += s.viol[r].delta;
  }

  // ---- Case A (Step 5-7): vertex duals absorb the violation mass. ----
  if (gamma_v >= eps * gamma / 24.0) {
    result.x.xik.reserve(P);
    for (std::size_t r = 0; r < R; ++r) {
      if (s.viol[r].kstar < 0) continue;
      const int kstar = s.viol[r].kstar;
      for (std::size_t j = s.run_start[r]; j < s.run_start[r + 1]; ++j) {
        const std::uint32_t row = s.pos_row[j];
        const double w = lg.level_weight(std::min(row_level[row], kstar));
        result.x.xik.append(row_key[row], gamma * w / gamma_v);
      }
    }
    return result;
  }

  if (!config_.use_odd_sets) {
    // Bipartite mode skips straight to the primal signal; zbar and
    // gamma_prime only feed the odd-set phase, so Step 9 is dead work here.
    result.kind = MicroResult::Kind::kPrimal;
    return result;
  }

  // ---- Step 9: raise zeta to zbar on violated (i, k <= k*). ----
  // The violated rows (runs of pos_row) and zeta_rows are both ascending
  // table positions, so zbar materializes as one linear merge into a
  // sparse overlay — no dense buffer and no copy of zeta.
  s.repl.clear();
  for (std::size_t r = 0; r < R; ++r) {
    if (s.viol[r].kstar < 0) continue;
    const int kstar = s.viol[r].kstar;
    for (std::size_t j = s.run_start[r]; j < s.run_start[r + 1]; ++j) {
      const std::uint32_t row = s.pos_row[j];
      if (row_level[row] > kstar) continue;
      s.repl.emplace_back(row, s.pos_sum[j] / (2.0 * rho));
    }
  }
  double gamma_prime = gamma;
  s.zpairs.clear();
  {
    std::size_t zj = 0;
    std::size_t ri = 0;
    while (zj < zeta_count || ri < s.repl.size()) {
      if (ri == s.repl.size() ||
          (zj < zeta_count && zeta_rows[zj] < s.repl[ri].first)) {
        s.zpairs.emplace_back(zeta_rows[zj], zeta[zj]);
        ++zj;
      } else if (zj == zeta_count || s.repl[ri].first < zeta_rows[zj]) {
        const auto [row, replacement] = s.repl[ri];
        // Row absent from zeta: old value 0, replacement always raises.
        gamma_prime -=
            3.0 * rho * lg.level_weight(row_level[row]) * replacement;
        s.zpairs.emplace_back(row, replacement);
        ++ri;
      } else {
        const auto [row, replacement] = s.repl[ri];
        const double old = zeta[zj];
        if (replacement > old) {
          gamma_prime -= 3.0 * rho * lg.level_weight(row_level[row]) *
                         (replacement - old);
          s.zpairs.emplace_back(row, replacement);
        } else {
          s.zpairs.emplace_back(row, old);
        }
        ++zj;
        ++ri;
      }
    }
  }

  // ---- Odd-set phase (Steps 11-19, with gap lumping). ----
  // Active levels = levels holding stored edges, descending (prepare()).
  // K(l) is constant between consecutive active levels, so the per-level
  // variables z_{U,l} of a gap are lumped at the gap's top (active) level
  // with weight sum_{l in gap} wHat_l — exactly equivalent for every
  // covering / outer packing row because no edge lives strictly inside a
  // gap.
  const std::vector<int>& active_levels = s.active_levels;
  // Restrict separation to the lowest few active levels (each costs a
  // Gomory-Hu tree). Lower levels include more edges, so they dominate.
  std::size_t first = 0;
  if (active_levels.size() > kMaxSeparationLevels) {
    first = active_levels.size() - kMaxSeparationLevels;
  }

  // Incremental per-vertex zbar suffix sums: the family loop visits levels
  // in descending order, so sum_{k >= l} zbar_{i,k} grows monotonically —
  // bucket the zbar support by level descending once (stable counting
  // sort) and advance a cursor, instead of re-scanning a per-vertex list
  // for every query. zsuffix only ever accumulates over zlevel, so zeroing
  // the previous invocation's support restores the all-zero invariant in
  // O(previous support).
  for (const Scratch::ZbarEntry& ze : s.zlevel) s.zsuffix[ze.vertex] = 0.0;
  {
    std::vector<std::size_t>& koff = s.run_start;  // runs are done with it
    koff.assign(static_cast<std::size_t>(L) + 1, 0);
    for (const auto& [row, z] : s.zpairs) {
      ++koff[static_cast<std::size_t>(L - 1 - row_level[row]) + 1];
    }
    for (int k = 0; k < L; ++k) koff[k + 1] += koff[k];
    s.zlevel.resize(s.zpairs.size());
    for (const auto& [row, z] : s.zpairs) {
      s.zlevel[koff[static_cast<std::size_t>(L - 1 - row_level[row])]++] =
          Scratch::ZbarEntry{row_vertex[row], row_level[row], z};
    }
  }
  std::size_t zptr = 0;
  auto advance_suffix = [&](int l) {
    while (zptr < s.zlevel.size() && s.zlevel[zptr].level >= l) {
      s.zsuffix[s.zlevel[zptr].vertex] += s.zlevel[zptr].value;
      ++zptr;
    }
  };
  // Point query sum_{k >= l} zbar_{v,k} from the key-sorted zbar overlay,
  // summed with levels DESCENDING — the exact accumulation order of the
  // suffix cursor, so per-vertex sums stay bitwise stable across probes.
  auto zbar_suffix_at = [&s, row_key, Lu](Vertex v, int l) {
    const std::uint64_t lo_key =
        static_cast<std::uint64_t>(v) * Lu + static_cast<std::uint64_t>(l);
    const std::uint64_t hi_key = static_cast<std::uint64_t>(v) * Lu + Lu;
    auto cmp = [row_key](const std::pair<std::uint32_t, double>& p,
                         std::uint64_t k) { return row_key[p.first] < k; };
    auto lo_it =
        std::lower_bound(s.zpairs.begin(), s.zpairs.end(), lo_key, cmp);
    auto hi_it = std::lower_bound(lo_it, s.zpairs.end(), hi_key, cmp);
    double total = 0;
    while (hi_it != lo_it) {
      --hi_it;
      total += hi_it->second;
    }
    return total;
  };

  const double q_scale = (1.0 - eps / 4.0) * beta / gamma;
  const std::size_t n = lg.graph().num_vertices();

  // A run() without a caller-provided cache behaves like a one-probe
  // Lagrangian search: same code path, locally scoped reuse.
  OddSetCache local_cache;
  OddSetCache* sep = cache != nullptr ? cache : &local_cache;

  // ---- Separation (once per cache lifetime). ----
  // Walk the levels downward with the zbar suffix cursor, snapshotting
  // per-level query edges and q_hat; then separate ALL levels in one
  // parallel fan-out — the per-level Gomory-Hu trees are independent and
  // each is computed by a deterministic serial routine, so the fan-out is
  // bitwise thread-count-invariant. Equation (4) below re-validates every
  // candidate for the current rho, so cache reuse never costs soundness.
  if (!sep->populated) {
    std::size_t jobs = 0;
    std::vector<std::size_t> job_entry;
    for (std::size_t a = first; a < active_levels.size(); ++a) {
      const int l = active_levels[a];
      advance_suffix(l);  // zsuffix[v] = sum_{k >= l} zbar_{v,k}
      if (s.job_q.size() <= jobs) {
        s.job_q.emplace_back();
        s.job_qhat.emplace_back();
        s.separators.emplace_back();
      }
      std::vector<OddSetQueryEdge>& q_edges = s.job_q[jobs];
      q_edges.clear();
      for (std::size_t e = 0; e < edges; ++e) {
        const double us = sample.us[e];
        const std::uint32_t ru = sample.row_u[e];
        if (row_level[ru] < l || !(us > 0)) continue;
        q_edges.push_back(OddSetQueryEdge{
            row_vertex[ru], row_vertex[sample.row_v[e]], q_scale * us});
      }
      if (q_edges.empty()) continue;
      // Separation reads q_hat only at this level's query-edge endpoints,
      // so only those entries are filled (stale slots are never read; the
      // write is idempotent per vertex, so duplicates are harmless).
      std::vector<double>& qhat = s.job_qhat[jobs];
      qhat.resize(n);
      for (const OddSetQueryEdge& qe : q_edges) {
        qhat[qe.u] = static_cast<double>(b[qe.u]) +
                     2.0 * q_scale * rho * s.zsuffix[qe.u];
        qhat[qe.v] = static_cast<double>(b[qe.v]) +
                     2.0 * q_scale * rho * s.zsuffix[qe.v];
      }
      job_entry.push_back(sep->by_level.size());
      sep->by_level.emplace_back();
      sep->by_level.back().level = l;
      ++jobs;
    }
    const OddSetOptions odd{.eps = eps};
    run_chunks(pool(), 0, jobs, 1,
               [&](std::size_t, std::size_t jlo, std::size_t jhi) {
                 for (std::size_t j = jlo; j < jhi; ++j) {
                   sep->by_level[job_entry[j]].sets = s.separators[j].find(
                       n, s.job_q[j], s.job_qhat[j], b, odd);
                 }
               });
    sep->populated = true;
  }

  struct LevelFamily {
    int level;
    double gap_weight;
    std::vector<std::vector<Vertex>> sets;
    std::vector<double> delta;
  };
  std::vector<LevelFamily> families;
  double gamma_os = 0;

  for (std::size_t a = first; a < active_levels.size(); ++a) {
    const int l = active_levels[a];
    OddSetCache::LevelEntry* entry = sep->find(l);
    if (entry == nullptr || entry->sets.empty()) continue;
    const int gap_lo = (a + 1 < active_levels.size())
                           ? active_levels[a + 1] + 1
                           : 0;
    // The lowest separated level also absorbs every level below it.
    const int effective_lo = (a == active_levels.size() - 1) ? 0 : gap_lo;
    const double gap_w = lg.level_weight_range(effective_lo, l);

    // Per-candidate static aux, cached across probes (us is fixed for the
    // whole Lagrangian search). Candidate sets of one level are pairwise
    // disjoint, so a single pass over the stored edges attributes each
    // edge to (at most) one set — replacing the per-set binary-search
    // membership scan of the map path.
    const std::size_t nsets = entry->sets.size();
    if (!entry->aux_valid) {
      entry->bw.assign(nsets, 0);
      entry->us_mass.assign(nsets, 0.0);
      for (std::size_t c = 0; c < nsets; ++c) {
        for (Vertex v : entry->sets[c]) {
          s.set_of[v] = static_cast<std::int32_t>(c);
          entry->bw[c] += b[v];
        }
      }
      for (std::size_t e = 0; e < edges; ++e) {
        const double us = sample.us[e];
        const std::uint32_t ru = sample.row_u[e];
        if (row_level[ru] < l || !(us > 0)) continue;
        const std::int32_t cu = s.set_of[row_vertex[ru]];
        if (cu >= 0 && cu == s.set_of[row_vertex[sample.row_v[e]]]) {
          entry->us_mass[cu] += us;
        }
      }
      for (std::size_t c = 0; c < nsets; ++c) {
        for (Vertex v : entry->sets[c]) s.set_of[v] = -1;
      }
      entry->aux_valid = true;
    }

    LevelFamily family;
    family.level = l;
    family.gap_weight = gap_w;
    // Delta(U, l) = sum_{k>=l} ( sum_{edges in U} us - rho sum_i zbar ).
    for (std::size_t c = 0; c < nsets; ++c) {
      const std::vector<Vertex>& set = entry->sets[c];
      double delta = entry->us_mass[c];
      for (Vertex v : set) delta -= rho * zbar_suffix_at(v, l);
      if (delta <= 0) continue;
      // Revalidate Equation (4): the set must be dense enough that
      // q_scale * delta covers floor(||U||_b / 2).
      const double need =
          std::floor(static_cast<double>(entry->bw[c]) / 2.0);
      if (q_scale * delta < need) continue;
      family.sets.push_back(set);
      family.delta.push_back(delta);
      gamma_os += gap_w * delta;
    }
    if (!family.sets.empty()) families.push_back(std::move(family));
  }

  // ---- Case B (Steps 16-18): odd-set duals absorb the mass. ----
  if (gamma_os >= eps * gamma_prime / 24.0 && gamma_prime > 0) {
    for (const LevelFamily& family : families) {
      for (std::size_t c = 0; c < family.sets.size(); ++c) {
        OddSetVar var;
        var.level = family.level;
        var.members = family.sets[c];
        var.value = gamma_prime * family.gap_weight / gamma_os;
        result.x.odd_sets.push_back(std::move(var));
      }
    }
    return result;
  }

  // ---- Case C (Steps 20-21): primal progress (Lemma 13 applies). ----
  result.kind = MicroResult::Kind::kPrimal;
  return result;
}

MicroResult MicroOracle::run_lagrangian(
    const std::vector<StoredMultiplier>& us, const ZetaMap& zeta, double beta,
    std::size_t* calls) const {
  return run_lagrangian(row_form(us, zeta), beta, calls);
}

MicroResult MicroOracle::run_lagrangian(const RowSample& sample, double beta,
                                        std::size_t* calls) const {
  const LevelGraph& lg = *lg_;
  prepare(sample);
  const double usc = scratch().usc;
  OddSetCache cache;  // one separation pass amortized over all rho probes
  auto invoke = [&](double rho) {
    if (calls != nullptr) ++(*calls);
    return probe(sample, beta, rho, &cache);
  };

  const double zq = weighted_qo(sample);
  if (zq <= 0 || usc <= 0) {
    // No outer packing pressure: a single invocation suffices.
    return invoke(1.0);
  }
  const double eps = lg.eps();
  const double upsilon = (13.0 / 12.0) * zq;
  const double rho0 = 12.0 * usc / (13.0 * zq);

  double rho_lo = eps * usc / (16.0 * zq);
  MicroResult low = invoke(rho_lo);
  if (low.kind == MicroResult::Kind::kPrimal) return low;
  double po_lo = weighted_po(low.x, sample);
  if (po_lo <= upsilon) return low;

  // Grow rho until the outer packing constraint is met (x = 0 is returned
  // once gamma <= 0, which trivially satisfies it).
  double rho_hi = rho0;
  MicroResult high = invoke(rho_hi);
  if (high.kind == MicroResult::Kind::kPrimal) return high;
  double po_hi = weighted_po(high.x, sample);
  int guard = 0;
  while (po_hi > upsilon && guard++ < 16) {
    rho_hi *= 2.0;
    high = invoke(rho_hi);
    if (high.kind == MicroResult::Kind::kPrimal) return high;
    po_hi = weighted_po(high.x, sample);
  }
  if (po_hi > upsilon) return high;  // give up; still a LagInner point

  // Binary search to a rho interval of width eps * rho0 / 16 (Lemma 10).
  int iters = 0;
  while (rho_hi - rho_lo > eps * rho0 / 16.0 && iters++ < 24) {
    const double mid = 0.5 * (rho_lo + rho_hi);
    MicroResult m = invoke(mid);
    if (m.kind == MicroResult::Kind::kPrimal) return m;
    const double po_mid = weighted_po(m.x, sample);
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
  MicroResult result;
  result.kind = MicroResult::Kind::kDual;
  result.gamma = high.gamma;
  result.x = combine_points(low.x, s1, high.x, 1.0 - s1);
  return result;
}

}  // namespace dp::core
