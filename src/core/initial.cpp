#include "core/initial.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

namespace dp::core {

InitialSolution build_initial(const LevelGraph& lg, const Capacities& b,
                              double p, std::uint64_t seed,
                              ResourceMeter* meter) {
  const Graph& g = lg.graph();
  const std::size_t n = g.num_vertices();
  const int L = lg.num_levels();
  const double eps = lg.eps();
  Rng rng(seed);

  InitialSolution out;
  if (n == 0) return out;
  const double exponent = 1.0 + 1.0 / (2.0 * std::max(p, 1.01));
  const std::size_t budget = static_cast<std::size_t>(
      std::ceil(std::pow(static_cast<double>(n), exponent))) + 16;

  // Per-level residual capacities and remaining candidate edges.
  std::vector<std::vector<std::int64_t>> residual(
      L, std::vector<std::int64_t>(n));
  for (int k = 0; k < L; ++k) {
    for (std::size_t v = 0; v < n; ++v) {
      residual[k][v] = b[static_cast<Vertex>(v)];
    }
  }
  // The retained edges grouped by level, ids ascending within a level.
  std::vector<std::vector<EdgeId>> remaining(L);
  for (const EdgeId e : lg.retained()) remaining[lg.level(e)].push_back(e);
  std::vector<char> occupied(L);
  for (int k = 0; k < L; ++k) occupied[k] = !remaining[k].empty();

  const std::size_t max_rounds =
      static_cast<std::size_t>(10.0 * std::max(p, 1.0)) + 20;
  bool work_left = true;
  while (work_left && out.rounds < max_rounds) {
    work_left = false;
    std::size_t stored_this_round = 0;
    for (int k = 0; k < L; ++k) {
      auto& edges = remaining[k];
      if (edges.empty()) continue;
      work_left = true;
      auto& res = residual[k];

      // Sample up to `budget` distinct edges uniformly, process greedily
      // with saturation.
      std::vector<EdgeId> sample;
      if (edges.size() <= budget) {
        sample = edges;
      } else {
        const auto picks =
            rng.sample_without_replacement(edges.size(), budget);
        sample.reserve(picks.size());
        for (std::size_t idx : picks) sample.push_back(edges[idx]);
      }
      rng.shuffle(sample);
      stored_this_round += sample.size();
      for (EdgeId e : sample) {
        const Edge& edge = g.edge(e);
        const std::int64_t y = std::min(res[edge.u], res[edge.v]);
        if (y > 0) {
          res[edge.u] -= y;
          res[edge.v] -= y;
          out.support.push_back(e);
        }
      }
      // Filter: drop edges with a saturated endpoint.
      edges.erase(std::remove_if(edges.begin(), edges.end(),
                                 [&](EdgeId e) {
                                   const Edge& edge = g.edge(e);
                                   return res[edge.u] == 0 ||
                                          res[edge.v] == 0;
                                 }),
                  edges.end());
    }
    if (work_left) {
      ++out.rounds;
      if (meter != nullptr) {
        meter->add_round();
        meter->store_edges(stored_this_round);
        meter->release_edges(stored_this_round);
      }
    }
  }

  // Fallback: if the round guard tripped before the filtering converged
  // (adversarial degree sequences), finish the maximal matchings exhaustively
  // in one extra round so the dual coverage guarantee always holds.
  if (work_left) {
    ++out.rounds;
    if (meter != nullptr) meter->add_round();
    for (int k = 0; k < L; ++k) {
      auto& res = residual[k];
      for (EdgeId e : remaining[k]) {
        const Edge& edge = g.edge(e);
        const std::int64_t y = std::min(res[edge.u], res[edge.v]);
        if (y > 0) {
          res[edge.u] -= y;
          res[edge.v] -= y;
          out.support.push_back(e);
        }
      }
      remaining[k].clear();
    }
  }

  // Dual start: saturated vertices carry x_i(k) = r * wHat_k, r = eps/256.
  const double r = eps / 256.0;
  out.coverage = r;
  const int levels = lg.num_levels();
  std::vector<double> xi(n, 0.0);
  // Vertex-major iteration emits keys in strictly increasing order, so the
  // sparse point is built with O(1) appends.
  for (std::size_t v = 0; v < n; ++v) {
    for (int k = 0; k < levels; ++k) {
      if (!occupied[k]) continue;
      if (residual[k][v] == 0) {
        const double value = r * lg.level_weight(k);
        out.x0.xik.append(static_cast<std::uint64_t>(v) * levels + k, value);
        xi[v] = std::max(xi[v], value);
      }
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    out.beta0 += static_cast<double>(b[static_cast<Vertex>(v)]) * xi[v];
  }
  std::sort(out.support.begin(), out.support.end());
  out.support.erase(std::unique(out.support.begin(), out.support.end()),
                    out.support.end());
  return out;
}

}  // namespace dp::core
