#include "core/odd_sets.hpp"

#include <algorithm>
#include <cmath>

#include "graph/flow_arena.hpp"
#include "graph/gomory_hu.hpp"

namespace dp::core {

namespace {

/// Greedily keep candidates (stable-sorted by preference, ties resolved by
/// candidate order) that are pairwise disjoint. `taken` must be all-zero
/// with at least n entries; it is restored to all-zero before returning.
std::vector<std::vector<Vertex>> keep_disjoint(
    std::vector<std::pair<double, std::vector<Vertex>>>& candidates,
    std::vector<char>& taken) {
  std::stable_sort(
      candidates.begin(), candidates.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::vector<Vertex>> out;
  for (auto& [score, set] : candidates) {
    bool clash = false;
    for (Vertex v : set) {
      if (taken[v]) {
        clash = true;
        break;
      }
    }
    if (clash) continue;
    for (Vertex v : set) taken[v] = 1;
    out.push_back(std::move(set));
  }
  for (const auto& set : out) {
    for (Vertex v : set) taken[v] = 0;
  }
  return out;
}

bool is_valid_odd_set(const std::vector<Vertex>& set, const Capacities& b,
                      std::int64_t max_b) {
  if (set.size() < 3) return false;
  std::int64_t bw = 0;
  for (Vertex v : set) bw += b[v];
  return bw % 2 == 1 && bw <= max_b;
}

}  // namespace

/// Exact Padberg-Rao style search (Lemma 25) on the discretized auxiliary
/// graph H (vertices remapped to the active set; node `s` last). One
/// arena-backed flow network is built ONCE; every Gusfield flow restores
/// capacities in place, and the residual rounds that make the collection
/// MAXIMAL contract taken vertices (disable + deficiency restitution to s)
/// instead of rebuilding H from scratch. All working buffers live on the
/// separator, so repeat calls reuse their capacity.
std::vector<std::vector<Vertex>> OddSetSeparator::exact(
    const std::vector<OddSetQueryEdge>& q,
    const std::vector<double>& q_hat, const Capacities& b,
    std::int64_t kappa, double unit, std::int64_t max_b, int max_rounds) {
  const std::vector<Vertex>& active = active_;
  const std::size_t na = active.size();
  // `active` is sorted, so the global->local remap is a binary search
  // instead of a hash map.
  const auto local = [&active](Vertex v) {
    return static_cast<std::uint32_t>(
        std::lower_bound(active.begin(), active.end(), v) - active.begin());
  };
  const auto s = static_cast<std::uint32_t>(na);  // special node

  // Raw query edges in local ids (round bookkeeping: a round without any
  // surviving query edge stops the search, zero-capacity edges included —
  // they witness activity even when discretization floors them away).
  raw_.clear();
  raw_.reserve(q.size());
  // Aggregated H edges: discretized q-edges merged by a sort-and-merge
  // pass, then one deficiency edge (i, s) per vertex (possibly capacity 0
  // now, raised later when a neighbor is contracted away).
  agg_.clear();
  agg_.reserve(q.size() + na);
  for (const auto& qe : q) {
    const std::uint32_t lu = local(qe.u);
    const std::uint32_t lv = local(qe.v);
    raw_.emplace_back(lu, lv);
    const auto cap = static_cast<std::int64_t>(std::floor(qe.q * unit));
    if (cap <= 0) continue;
    agg_.push_back(ArenaEdge{std::min(lu, lv), std::max(lu, lv), cap});
  }
  aggregate_parallel_edges(agg_);
  const std::size_t num_q_edges = agg_.size();

  incident_cap_.assign(na, 0);
  for (std::size_t e = 0; e < num_q_edges; ++e) {
    incident_cap_[agg_[e].u] += agg_[e].cap;
    incident_cap_[agg_[e].v] += agg_[e].cap;
  }
  // deficiency[i] may drift negative if the caller's q_hat underestimates
  // the incident mass; the arena capacity clamps at 0 exactly like the
  // seed's "only add positive-deficiency edges" rule.
  deficiency_.assign(na, 0);
  s_edge_.assign(na, 0);
  for (std::size_t i = 0; i < na; ++i) {
    const auto target =
        static_cast<std::int64_t>(std::ceil(q_hat[active[i]] * unit));
    deficiency_[i] = target - incident_cap_[i];
    s_edge_[i] = agg_.size();
    agg_.push_back(ArenaEdge{static_cast<std::uint32_t>(i), s,
                             std::max<std::int64_t>(deficiency_[i], 0)});
  }

  net_.build(na + 1, agg_);

  alive_.assign(na + 1, 1);
  fresh_.assign(na, 0);
  inside_.assign(na + 1, 0);
  std::size_t alive_count = na;
  std::vector<std::vector<Vertex>> collected;

  for (int round = 0; round < max_rounds; ++round) {
    if (alive_count < 3) break;
    bool any_edge = false;
    for (const auto& [lu, lv] : raw_) {
      if (alive_[lu] && alive_[lv]) {
        any_edge = true;
        break;
      }
    }
    if (!any_edge) break;

    gomory_hu_from_arena(net_, &alive_, tree_);
    candidates_.clear();
    for (std::uint32_t v = 0; v < tree_.size(); ++v) {
      if (v == tree_.root || !alive_[v]) continue;
      if (tree_.cut_value[v] > kappa) continue;
      tree_.cut_side_into(v, side_);
      // Use the side not containing s.
      const bool s_inside =
          std::find(side_.begin(), side_.end(), s) != side_.end();
      std::vector<Vertex> set;
      if (s_inside) {
        for (std::uint32_t x : side_) inside_[x] = 1;
        for (std::uint32_t x = 0; x < na; ++x) {
          if (alive_[x] && !inside_[x]) set.push_back(active[x]);
        }
        for (std::uint32_t x : side_) inside_[x] = 0;
      } else {
        for (std::uint32_t x : side_) {
          if (x < na) set.push_back(active[x]);
        }
      }
      std::sort(set.begin(), set.end());
      if (!is_valid_odd_set(set, b, max_b)) continue;
      candidates_.emplace_back(static_cast<double>(tree_.cut_value[v]),
                               std::move(set));
    }
    const auto found = keep_disjoint(candidates_, taken_);
    if (found.empty()) break;

    // Contract the found sets: every internal or leaving q-edge vanishes,
    // and a surviving endpoint's deficiency absorbs the lost capacity so
    // its target ceil(q_hat * unit) is preserved.
    std::fill(fresh_.begin(), fresh_.end(), 0);
    for (const auto& set : found) {
      for (Vertex v : set) fresh_[local(v)] = 1;
      collected.push_back(set);
    }
    for (std::size_t e = 0; e < num_q_edges; ++e) {
      const std::uint32_t u = agg_[e].u;
      const std::uint32_t v = agg_[e].v;
      if (!alive_[u] || !alive_[v]) continue;  // removed in an earlier round
      if (fresh_[u] == fresh_[v]) continue;    // survives, or fully internal
      const std::uint32_t keep = fresh_[u] ? v : u;
      deficiency_[keep] += agg_[e].cap;
      net_.set_edge_base_cap(
          s_edge_[keep], std::max<std::int64_t>(deficiency_[keep], 0));
    }
    for (std::uint32_t v = 0; v < na; ++v) {
      if (!fresh_[v]) continue;
      net_.disable_vertex(v);
      alive_[v] = 0;
      --alive_count;
    }
  }
  return collected;
}

void OddSetSeparator::ensure(std::size_t n) {
  const std::size_t old = seen_.size();
  if (old >= n) return;
  seen_.resize(n, 0);
  incident_.resize(n, 0.0);
  taken_.resize(n, 0);
  comp_of_.resize(n, -1);
  parent_.resize(n);
  rank_.resize(n, 0);
  for (std::size_t v = old; v < n; ++v) {
    parent_[v] = static_cast<std::uint32_t>(v);
  }
}

std::uint32_t OddSetSeparator::root_of(std::uint32_t v) noexcept {
  // Path halving; only ever touches vertices united below, so the
  // touched-entry reset walk in heuristic() restores the forest.
  while (parent_[v] != v) {
    parent_[v] = parent_[parent_[v]];
    v = parent_[v];
  }
  return v;
}

/// Heuristic for large instances: connected components of the subgraph of
/// heavy q-edges, trimmed to the size cap. Each candidate is scored by
/// deficiency (lower = denser). Everything runs on flat reusable buffers:
/// components materialize via counting offsets (no per-component vectors)
/// and all n-sized state is restored by walking the active list.
std::vector<std::vector<Vertex>> OddSetSeparator::heuristic(
    const std::vector<OddSetQueryEdge>& q, const std::vector<double>& q_hat,
    const Capacities& b, std::int64_t max_b) {
  // Heavy edge: carries at least half of either endpoint's average share.
  for (const auto& qe : q) {
    incident_[qe.u] += qe.q;
    incident_[qe.v] += qe.q;
    if (qe.q * 4.0 >= std::min(q_hat[qe.u], q_hat[qe.v])) {
      const std::uint32_t ru = root_of(qe.u);
      const std::uint32_t rv = root_of(qe.v);
      if (ru != rv) {
        // Union by rank, ties to the smaller id: deterministic forest.
        if (rank_[ru] < rank_[rv]) {
          parent_[ru] = rv;
        } else if (rank_[rv] < rank_[ru]) {
          parent_[rv] = ru;
        } else if (ru < rv) {
          parent_[rv] = ru;
          ++rank_[ru];
        } else {
          parent_[ru] = rv;
          ++rank_[rv];
        }
      }
    }
  }
  // Components over the active vertices, ordered by smallest member:
  // counting pass over the (sorted) active list, then offset fill.
  std::int32_t num_comps = 0;
  comp_counts_.clear();
  for (Vertex v : active_) {
    const std::uint32_t r = root_of(v);
    if (comp_of_[r] < 0) {
      comp_of_[r] = num_comps++;
      comp_counts_.push_back(0);
    }
    ++comp_counts_[static_cast<std::size_t>(comp_of_[r])];
  }
  comp_off_.assign(static_cast<std::size_t>(num_comps) + 1, 0);
  for (std::int32_t c = 0; c < num_comps; ++c) {
    comp_off_[static_cast<std::size_t>(c) + 1] =
        comp_off_[static_cast<std::size_t>(c)] +
        comp_counts_[static_cast<std::size_t>(c)];
  }
  comp_members_.resize(active_.size());
  comp_cursor_.assign(comp_off_.begin(), comp_off_.end() - 1);
  for (Vertex v : active_) {
    comp_members_[comp_cursor_[static_cast<std::size_t>(
        comp_of_[root_of(v)])]++] = v;
  }

  candidates_.clear();
  for (std::int32_t c = 0; c < num_comps; ++c) {
    const std::size_t lo = comp_off_[static_cast<std::size_t>(c)];
    const std::size_t hi = comp_off_[static_cast<std::size_t>(c) + 1];
    if (hi - lo < 3) continue;
    // Members arrive ascending (active_ is sorted).
    std::vector<Vertex> set(comp_members_.begin() + static_cast<long>(lo),
                            comp_members_.begin() + static_cast<long>(hi));
    // Trim to the capacity cap by dropping the vertices with least q-mass.
    std::int64_t bw = 0;
    for (Vertex v : set) bw += b[v];
    if (bw > max_b) {
      std::sort(set.begin(), set.end(), [this](Vertex a, Vertex c2) {
        return incident_[a] > incident_[c2];
      });
      while (!set.empty() && bw > max_b) {
        bw -= b[set.back()];
        set.pop_back();
      }
      std::sort(set.begin(), set.end());
    }
    // Fix parity by dropping the lightest member if needed.
    if (bw % 2 == 0 && !set.empty()) {
      std::size_t drop = 0;
      for (std::size_t i = 1; i < set.size(); ++i) {
        if (incident_[set[i]] < incident_[set[drop]]) drop = i;
      }
      bw -= b[set[drop]];
      set.erase(set.begin() + static_cast<long>(drop));
    }
    if (!is_valid_odd_set(set, b, max_b)) continue;
    double deficiency = 0;
    for (Vertex v : set) deficiency += q_hat[v];
    candidates_.emplace_back(deficiency, std::move(set));
  }
  auto result = keep_disjoint(candidates_, taken_);
  // Restore the rest state by walking only the touched entries.
  for (Vertex v : active_) {
    incident_[v] = 0.0;
    comp_of_[root_of(v)] = -1;
  }
  for (Vertex v : active_) {
    parent_[v] = v;
    rank_[v] = 0;
  }
  return result;
}

std::vector<std::vector<Vertex>> OddSetSeparator::find(
    std::size_t n, const std::vector<OddSetQueryEdge>& q_edges,
    const std::vector<double>& q_hat, const Capacities& b,
    const OddSetOptions& options) {
  if (q_edges.empty()) return {};
  ensure(n);
  const double eps = options.eps;
  const auto max_b = static_cast<std::int64_t>(std::ceil(4.0 / eps));

  // Active vertices (sorted): endpoints of query edges. Dense when the
  // endpoints cover a good fraction of [0, n), so pick whichever of
  // "rescan the flags" and "sort the collected list" is cheaper — the
  // output is identical.
  active_.clear();
  for (const auto& qe : q_edges) {
    if (!seen_[qe.u]) {
      seen_[qe.u] = 1;
      active_.push_back(qe.u);
    }
    if (!seen_[qe.v]) {
      seen_[qe.v] = 1;
      active_.push_back(qe.v);
    }
  }
  if (active_.size() * 8 >= n) {
    std::size_t out = 0;
    for (std::size_t v = 0; v < n; ++v) {
      if (seen_[v]) active_[out++] = static_cast<Vertex>(v);
    }
  } else {
    std::sort(active_.begin(), active_.end());
  }
  for (Vertex v : active_) seen_[v] = 0;

  if (active_.size() <= options.gomory_hu_limit) {
    const double unit = 8.0 / (eps * eps * eps);
    const auto kappa = static_cast<std::int64_t>(std::floor(unit));
    // Lemma 25 asks for a MAXIMAL disjoint collection; a single Gomory-Hu
    // tree only guarantees the minimum odd cut among its fundamental cuts.
    // exact() iterates: collect disjoint sets, contract their vertices
    // out of the arena, rebuild the tree on the shrunken network until no
    // new set appears.
    return exact(q_edges, q_hat, b, kappa, unit, max_b, /*max_rounds=*/10);
  }
  return heuristic(q_edges, q_hat, b, max_b);
}

std::vector<std::vector<Vertex>> find_dense_odd_sets(
    std::size_t n, const std::vector<OddSetQueryEdge>& q_edges,
    const std::vector<double>& q_hat, const Capacities& b,
    const OddSetOptions& options) {
  OddSetSeparator separator;
  return separator.find(n, q_edges, q_hat, b, options);
}

}  // namespace dp::core
