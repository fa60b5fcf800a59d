#include "core/weight_levels.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "matching/greedy.hpp"
#include "util/error.hpp"

namespace dp::core {

LevelGraph::LevelGraph(const Graph& g, const Capacities& b, double eps)
    : LevelGraph(g, b, eps, edges_by_weight_desc(g)) {}

LevelGraph::LevelGraph(const Graph& g, const Capacities& b, double eps,
                       std::vector<EdgeId> order)
    : g_(&g),
      eps_(eps),
      weight_order_(
          std::make_shared<const std::vector<EdgeId>>(std::move(order))) {
  if (eps <= 0 || eps >= 1) {
    throw std::invalid_argument("LevelGraph: eps must be in (0, 1)");
  }
  if (b.size() != g.num_vertices()) {
    throw std::invalid_argument("LevelGraph: capacity size mismatch");
  }
  w_star_ = g.max_weight();
  const double big_b =
      std::max<double>(2.0, static_cast<double>(b.total()));
  // Floor at eps * W* / B (a slightly finer floor than the paper's W*/B):
  // a b-matching has at most B/2 edges, so the dropped mass is below
  // eps * W* / 2 <= eps * OPT / 2.
  scale_ = w_star_ > 0 ? eps * w_star_ / big_b : 1.0;

  const double log_base = std::log1p(eps);
  level_.assign(g.num_edges(), -1);
  int max_level = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const double w = g.edge(e).w;
    // A NaN or infinite weight has no level (and would poison W*, the
    // scale and the certificate): reject it rather than guess.
    if (!std::isfinite(w)) {
      throw ConfigError("LevelGraph: weight of edge " + std::to_string(e) +
                            " is not finite",
                        {"core.levels"});
    }
    if (w < scale_ || w <= 0) continue;  // dropped: below W*/B
    // Level k with scale * (1+eps)^k <= w; epsilon guard for exact powers.
    const int k = static_cast<int>(
        std::floor(std::log(w / scale_) / log_base + 1e-9));
    level_[e] = std::max(0, k);
    max_level = std::max(max_level, level_[e]);
  }
  num_levels_ = max_level + 1;

  level_weight_.resize(num_levels_);
  for (int k = 0; k < num_levels_; ++k) {
    level_weight_[k] = std::pow(1.0 + eps, k);
  }
  level_weight_prefix_.resize(num_levels_ + 1);
  level_weight_prefix_[0] = 0.0;
  for (int k = 0; k < num_levels_; ++k) {
    level_weight_prefix_[k + 1] = level_weight_prefix_[k] + level_weight_[k];
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (level_[e] >= 0) retained_.push_back(e);
  }
}

}  // namespace dp::core
