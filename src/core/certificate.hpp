#pragma once
// Explicit dual certificates.
//
// Condition (d1) of Definition 1: a dual point with A x >= (1-3eps) c
// yields an upper bound on the optimum once scaled by 1/lambda. This module
// materializes the solver's internal DualState as an explicit OddSetDual for
// the ORIGINAL (unnormalized, undiscretized) problem — x_i = max_k x_i(k)
// and z_U = sum_l z_{U,l}, both scaled back by the weight normalization and
// by 1/lambda — and verifies feasibility edge by edge with the generic
// checker. The resulting dual_objective is a machine-checkable upper bound
// on the maximum weight b-matching.

#include "core/dual_state.hpp"
#include "core/weight_levels.hpp"
#include "matching/verify.hpp"

namespace dp::core {

struct CertificateReport {
  OddSetDual dual;       // explicit dual for the original weights
  bool feasible = false; // verified cover of every original edge
  double bound = 0;      // dual objective (valid upper bound iff feasible)
  double lambda = 0;     // covering ratio of the normalized state
};

/// Extract and verify an explicit certificate from a dual state. The bound
/// includes the dropped-edge slack (edges below the eps W*/B level floor
/// can contribute at most eps W*/2 in total, added to the objective) and
/// the (1+eps) discretization factor.
CertificateReport extract_certificate(const DualState& state,
                                      const LevelGraph& lg,
                                      const Capacities& b);

/// Cheap always-feasible dual witnesses, used to floor the certificate
/// while the multiplicative-weights dual is still converging:
///
/// * greedy_witness_dual — set x_u = x_v = w_e for each greedy-matching
///   edge: any skipped edge had an endpoint matched at no smaller weight,
///   so every edge is covered; objective = 2 * greedy weight. `order` must
///   be edges_by_weight_desc(g); best_dual_bound passes the level graph's
///   weight_order().
OddSetDual greedy_witness_dual(const Graph& g,
                               const std::vector<EdgeId>& order);

/// * incident_witness_dual — x_v = (max incident weight)/2: every edge
///   (i,j) satisfies x_i + x_j >= (w_ij + w_ij)/2 = w_ij.
OddSetDual incident_witness_dual(const Graph& g);

/// Which dual won best_dual_bound.
enum class BoundSource {
  kMw,               // the multiplicative-weights state's certificate
  kGreedyWitness,
  kIncidentWitness,
  kTrivial,          // the total edge weight
};

struct DualBound {
  double bound = 0;  // the smallest verified bound
  BoundSource source = BoundSource::kTrivial;
  /// The MW certificate's bound, won or not; 0 when its extraction is
  /// infeasible (no usable lambda yet).
  double mw_bound = 0;
};

/// Best (smallest) verified dual bound among the state certificate, the
/// witnesses and the trivial bound; on a tie the earlier one in
/// BoundSource order wins.
DualBound best_dual_bound(const DualState& state, const LevelGraph& lg,
                          const Capacities& b);

}  // namespace dp::core
