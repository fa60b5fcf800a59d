#include "core/certificate.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "matching/greedy.hpp"

namespace dp::core {

CertificateReport extract_certificate(const DualState& state,
                                      const LevelGraph& lg,
                                      const Capacities& b) {
  CertificateReport report;
  const Graph& g = lg.graph();
  const double eps = lg.eps();
  const double lambda = state.lambda(lg);
  report.lambda = lambda;
  if (lambda <= 1e-12) return report;  // no usable certificate yet

  // Scale: normalized dual values -> original weights. Each retained edge
  // has original weight < scale * (1+eps) * wHat_level, so multiplying the
  // normalized duals by scale*(1+eps)/lambda covers all retained edges.
  // Dropped edges (below the level floor) are covered by adding
  // eps*W*/(2) ... distributed as uniform vertex potential eps*W*/B per
  // unit of capacity: x_i += b_i * floor_value covers every dropped edge
  // since w_dropped < scale = eps W*/B <= x_u + x_v for b >= 1.
  const double factor = lg.scale() * (1.0 + eps) / lambda;
  const double floor_value = lg.scale();

  report.dual.x.assign(g.num_vertices(), 0.0);
  for (std::size_t v = 0; v < g.num_vertices(); ++v) {
    report.dual.x[v] =
        state.x_max(static_cast<Vertex>(v)) * factor + floor_value;
  }
  // z_U = sum over levels of z_{U,l}; merge identical member sets.
  std::map<std::vector<Vertex>, double> merged;
  const auto& sets = state.odd_sets();
  for (std::size_t s = 0; s < sets.size(); ++s) {
    const double value = state.odd_set_value(s) * factor;
    if (value > 0) merged[sets[s].members] += value;
  }
  for (auto& [members, value] : merged) {
    report.dual.sets.push_back(members);
    report.dual.z.push_back(value);
  }

  report.feasible = dual_feasible(g, report.dual, 1e-7 * (1.0 + lg.w_star()));
  report.bound = dual_objective(b, report.dual);
  return report;
}

OddSetDual greedy_witness_dual(const Graph& g,
                               const std::vector<EdgeId>& order) {
  OddSetDual dual;
  dual.x.assign(g.num_vertices(), 0.0);
  // Weight-sorted greedy; both endpoints of a taken edge get its weight.
  const Matching greedy = greedy_matching_in_order(g, order);
  for (const EdgeId e : greedy.edges()) {
    const Edge& edge = g.edge(e);
    dual.x[edge.u] = edge.w;
    dual.x[edge.v] = edge.w;
  }
  return dual;
}

OddSetDual incident_witness_dual(const Graph& g) {
  OddSetDual dual;
  dual.x.assign(g.num_vertices(), 0.0);
  for (const Edge& e : g.edges()) {
    dual.x[e.u] = std::max(dual.x[e.u], e.w / 2.0);
    dual.x[e.v] = std::max(dual.x[e.v], e.w / 2.0);
  }
  return dual;
}

DualBound best_dual_bound(const DualState& state, const LevelGraph& lg,
                          const Capacities& b) {
  const Graph& g = lg.graph();
  DualBound best;
  const CertificateReport report = extract_certificate(state, lg, b);
  if (report.feasible) best.mw_bound = report.bound;
  // Candidates in BoundSource order; strict < keeps the earlier on a tie.
  const auto consider = [&best](BoundSource source, double bound) {
    if (bound < best.bound) {
      best.bound = bound;
      best.source = source;
    }
  };
  best.bound = std::numeric_limits<double>::infinity();
  if (report.feasible) consider(BoundSource::kMw, report.bound);
  const double tol = 1e-9 * (1.0 + lg.w_star());
  const OddSetDual greedy = greedy_witness_dual(g, lg.weight_order());
  if (dual_feasible(g, greedy, tol)) {
    consider(BoundSource::kGreedyWitness, dual_objective(b, greedy));
  }
  const OddSetDual incident = incident_witness_dual(g);
  if (dual_feasible(g, incident, tol)) {
    consider(BoundSource::kIncidentWitness, dual_objective(b, incident));
  }
  consider(BoundSource::kTrivial, g.total_weight());
  return best;
}

}  // namespace dp::core
