#pragma once
// Substrate-agnostic access layer — the "access to data" axis of the paper.
//
// Algorithm 2 is ONE dual-primal algorithm across access models: random
// access (RAM), semi-streaming passes, and MapReduce rounds. Everything the
// round loop reads from the *input* goes through a Substrate:
//
//   - the per-round multiplier sweep over the retained edges (the ratio
//     kernel behind lambda and the Theorem 5 promise multipliers),
//   - the batched sampling draw of the t deferred sparsifiers
//     (core/sampling's counter-based masks), and
//   - the materialization of the stored union handed to the offline
//     re-solve.
//
// Each backend implements those operations under its own access discipline
// and meters the quantities its model constrains (ResourceMeter): the
// in-memory backend charges one round + one pass per draw (the RAM
// reference), the streaming backend charges exactly ONE pass per round
// iteration (multipliers, probabilities and the draw all ride the same
// pass; between passes only the sampled edges count as stored state), and
// the MapReduce backend executes the draw as a real simulator round
// (mappers evaluate masks over input shards, one reducer per sparsifier
// under the O(n^{1+1/p}) memory cap) so rounds, shuffle volume and the
// reducer cap are enforced, not just reported.
//
// Edge sources: bind() always receives the solve's Graph/LevelGraph (the
// simulation harness the solver itself runs on), but the PASS DATA PLANE a
// backend reads can be either that in-RAM graph or a binary edge file
// (stream/edge_file), installed via attach_source(). Only backends whose
// access discipline is genuinely sequential can serve a file-backed source
// (accepts_file_source(): the streaming backend); attaching one to a
// random-access backend is a typed ConfigError, never a crash. A
// file-backed streaming substrate does NOT materialize the retained
// attribute table — passes decode blocks through the prefetcher and
// stored-sample attributes live in a per-round cache — so its resident
// edge state stays o(m).
//
// Memory budget: set_memory_budget() caps the RESIDENT EDGE-ATTRIBUTE
// state of the access layer — full per-edge attribute records held in
// process memory (the materialized attribute table, IO block buffers, the
// stored-sample attribute cache), metered via hold/release_resident in
// edge units. Exceeding the cap is a typed ConfigError at the charge
// point, not a silent RAM spike. The table and its Edge view describe the
// same records and are charged once per retained edge.
//
// Determinism contract: every per-edge quantity is a pure function of the
// edge's retained index and solver state, reductions are exact (min/max),
// and the draw masks are pure functions of (seed, round, q, idx) — so for
// a fixed seed the full SolverResult (value, lambda, beta, certified
// ratio, history, stored counts) is bitwise identical across all three
// substrates and across thread counts. Only the meters differ, because
// the models count different things.
//
// Simulation note: the solver-side Graph, LevelGraph and per-edge scalar
// arrays (multiplier ratios, probabilities) are working memory of the
// SIMULATION. The model's "space" is the stored-edge meter — what the
// algorithm retains between accesses — which tests gate at o(m); the
// budget above additionally makes the access layer's physical residency a
// first-class, enforceable quantity.

#include <cstdint>
#include <functional>
#include <vector>

#include "core/sampling.hpp"
#include "core/weight_levels.hpp"
#include "graph/graph.hpp"
#include "stream/edge_file.hpp"
#include "util/accounting.hpp"
#include "util/cancel.hpp"
#include "util/fault.hpp"

namespace dp {
class ThreadPool;
}

namespace dp::access {

enum class SubstrateKind { kInMemory, kStreaming, kMapReduce };

/// Static attributes of one retained edge, in retained order.
struct RetainedEdge {
  EdgeId id = 0;  // full-graph edge id
  Vertex u = 0;
  Vertex v = 0;
  double w = 0;        // original weight
  std::int32_t level = 0;  // LevelGraph level (>= 0 for retained edges)
};

/// One access sweep's kernel: fill elementwise outputs for the retained
/// indices [lo, hi), reading the attribute span BASE-RELATIVE: `edges`
/// points at the record for index `lo`, so the kernel reads
/// edges[idx - lo]. Must be pure per index — backends are free to split,
/// reorder or parallelize the ranges, and the file-backed pass hands each
/// arrival a one-element span decoded from the current block (no table).
using SweepKernel =
    std::function<void(std::size_t lo, std::size_t hi,
                       const RetainedEdge* edges)>;

class Substrate {
 public:
  Substrate() = default;
  virtual ~Substrate() = default;

  Substrate(const Substrate&) = delete;
  Substrate& operator=(const Substrate&) = delete;

  virtual SubstrateKind kind() const noexcept = 0;
  virtual const char* name() const noexcept = 0;

  /// Whether this backend's access discipline can serve a file-backed
  /// edge source (sequential passes only). Default: no.
  virtual bool accepts_file_source() const noexcept { return false; }

  /// Install the pass data plane for subsequent solves. A default
  /// (unattached) source means "read the bound Graph". Attaching a
  /// file-backed source to a backend that needs random access throws
  /// ConfigError immediately. bind() validates that a file source
  /// describes the same graph (n, m) as the bound one.
  void attach_source(stream::EdgeSource source);
  const stream::EdgeSource& source() const noexcept { return source_; }

  /// Cap (in edge units) on the access layer's resident edge-attribute
  /// records; 0 = unlimited. Enforced wherever residency is charged —
  /// table materialization at bind(), IO buffers, stored-attribute
  /// caches — by throwing ConfigError. The solver installs
  /// SolverOptions::memory_budget_edges here before bind().
  void set_memory_budget(std::size_t edges) noexcept { budget_ = edges; }

  /// Attach one solve: materialize the retained-edge attribute table
  /// (unless this backend runs table-free, see materializes_table) and
  /// reset the per-solve accounting. `pool`/`grain` follow the solver's
  /// fixed-chunk determinism contract (outputs never depend on either).
  /// One solve drives a substrate at a time.
  void bind(const Graph& g, const core::LevelGraph& lg, ThreadPool* pool,
            std::size_t grain);

  std::size_t num_vertices() const noexcept { return n_; }
  std::size_t num_retained() const noexcept { return retained_count_; }

  /// The attribute table (retained order). Empty when the backend runs
  /// table-free (file-backed streaming); use stored_attrs()/fetch_edges()
  /// for attribute access that works on every backend.
  const std::vector<RetainedEdge>& table() const noexcept { return table_; }

  /// Batch-fetch the attributes of retained indices into out[0..count).
  /// On table-backed substrates these are the table rows; the file-backed
  /// backend serves STORED indices from its per-round sample cache
  /// (falling back to a file record read), fastest when `idxs` ascends.
  /// Valid between a draw and the matching release_stored for stored
  /// indices; always valid on table-backed substrates. Thread-safe.
  virtual void stored_attrs(const std::uint32_t* idxs, std::size_t count,
                            RetainedEdge* out) const {
    for (std::size_t i = 0; i < count; ++i) out[i] = table_[idxs[i]];
  }

  /// Batch-fetch edge records for retained indices (the deferred
  /// probability stage's per-class gather). Table-backed: a copy from the
  /// view; file-backed: random-access record reads. Thread-safe.
  virtual void fetch_edges(const std::uint32_t* idxs, std::size_t count,
                           Edge* out) const {
    for (std::size_t i = 0; i < count; ++i) out[i] = edge_view_[idxs[i]];
  }

  /// Model accounting for the round loop's accesses. Reset by bind().
  ResourceMeter& meter() noexcept { return meter_; }
  const ResourceMeter& meter() const noexcept { return meter_; }

  /// The round's multiplier sweep — one logical access to every retained
  /// edge under this substrate's discipline. The streaming backend charges
  /// the round's single pass here.
  virtual void multiplier_sweep(const SweepKernel& kernel) = 0;

  /// The round's batched draw of all t sparsifiers from retained-indexed
  /// inclusion probabilities. Charges the model's round accounting (and,
  /// for MapReduce, executes the simulator round). The returned round is
  /// valid until the next draw.
  virtual const core::SamplingRound& draw(const std::vector<double>& prob,
                                          std::size_t t, std::uint64_t round,
                                          std::uint64_t seed) = 0;

  /// Stored-union materialization: resolve stored retained indices to
  /// (full-graph id, edge) pairs for the offline re-solve. Reads only the
  /// stored sample's attributes — no new input access. Thread-safe (the
  /// table is immutable after bind; the file backend reads immutable
  /// mapped records).
  virtual void materialize_union(const std::vector<std::uint32_t>& indices,
                                 std::vector<EdgeId>& ids,
                                 std::vector<Edge>& edges) const;

  /// Release the round's stored edges at the pipeline's merge point (peak
  /// space is a per-round quantity in the paper's model). The file-backed
  /// backend also drops its stored-attribute cache here.
  virtual void release_stored(std::size_t k) { meter_.release_edges(k); }

  /// The solve bind() attached is returning: drop working memory kept
  /// across its rounds (the MapReduce backend's shuffle buffers). The
  /// meter and the backend's getters stay readable. A solve that throws
  /// skips this; the next bind() or the destructor frees that memory.
  virtual void end_solve() noexcept {}

  /// Install the fault-tolerance plan for subsequent solves. Injection is
  /// a backend concern: the streaming backend wires mid-pass failures, the
  /// MapReduce backend wires mapper/reducer task failures, and the
  /// in-memory reference ignores the plan (RAM access has no failing
  /// unit). The solver installs SolverOptions::faults here before bind().
  void set_fault_plan(const FaultPlan& plan) { plan_ = plan; }
  const FaultPlan& fault_plan() const noexcept { return plan_; }

  /// Install the cooperative stop for subsequent solves (the solver wires
  /// SolverOptions' cancel/deadline here before bind()). Sweeps and draws
  /// poll it at their safe points — access entry everywhere, plus every
  /// pass chunk on the streaming backend, where a single pass dominates
  /// the round's wall time — and raise SolveAborted, which is NOT a
  /// SubstrateFault: it bypasses the retry machinery and unwinds to the
  /// solver, which returns the anytime result.
  void set_stop(const StopCheck& stop) { stop_ = stop; }

 protected:
  /// Whether bind() materializes the attribute table. The file-backed
  /// streaming substrate overrides this to false — its passes decode
  /// blocks on the fly and its resident state stays o(m).
  virtual bool materializes_table() const noexcept { return true; }

  /// Backend hook invoked at the end of bind() (the table is ready).
  virtual void on_bind() {}

  /// Charge `k` resident edge-attribute records, enforcing the budget:
  /// over-budget is a typed ConfigError naming the holder (`what`) —
  /// never a silent RAM spike. Balanced by uncharge_resident.
  void charge_resident(std::size_t k, const char* what);
  void uncharge_resident(std::size_t k) noexcept {
    meter_.release_resident(k);
  }

  /// No-fault sentinel of fault_offset_or_none.
  static constexpr std::uint64_t kNoFault = ~std::uint64_t{0};

  /// Arrival stride (power of two) between stop polls inside a streaming
  /// pass — coarse enough to be free, fine enough that a deadline fires
  /// within a chunk of any realistically sized pass.
  static constexpr std::uint64_t kStopPollStride = 1024;

  /// Injection decision for event (site, a, b) on `attempt`: the arrival
  /// offset in [0, bound) where the event dies, or kNoFault. Pure function
  /// of the plan's seed and the counters (never of threads or timing).
  std::uint64_t fault_offset_or_none(FaultSite site, std::uint64_t a,
                                     std::uint64_t b, std::uint64_t attempt,
                                     std::uint64_t bound) const noexcept {
    if (!injector_.enabled() || bound == 0) return kNoFault;
    if (!injector_.should_fail(site, a, b, attempt)) return kNoFault;
    return injector_.fail_offset(site, a, b, attempt, bound);
  }

  /// Poll the stop at an access-entry safe point.
  void poll_stop(const char* site) const { stop_.throw_if_stopped(site); }

  const Graph* g_ = nullptr;
  const core::LevelGraph* lg_ = nullptr;
  ThreadPool* pool_ = nullptr;
  std::size_t grain_ = 2048;
  std::size_t n_ = 0;
  std::size_t retained_count_ = 0;
  std::vector<RetainedEdge> table_;
  std::vector<Edge> edge_view_;
  stream::EdgeSource source_;  // default: read the bound Graph
  std::size_t budget_ = 0;     // resident-edge cap; 0 = unlimited
  ResourceMeter meter_;
  FaultPlan plan_;           // default: injection disabled
  FaultInjector injector_;   // rebuilt from plan_ at bind()
  RetryPolicy retry_;        // plan_'s budget, snapshot at bind()
  StopCheck stop_;           // unarmed unless set_stop() installed one
};

}  // namespace dp::access
