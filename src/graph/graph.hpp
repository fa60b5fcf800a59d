#pragma once
// Core graph types: weighted undirected edge lists with an optional CSR
// adjacency view, plus per-vertex capacities b_i for b-matching.
//
// The library's streaming and MapReduce substrates consume the edge list
// (read-only, sequential); combinatorial algorithms (matching, flows) build
// the CSR view once and then work in-memory.

#include <atomic>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace dp {

using Vertex = std::uint32_t;
using EdgeId = std::uint32_t;

/// An edge id that names no edge: the mark of an edge one graph has and
/// another lacks in an id map between them.
inline constexpr EdgeId kNoEdge = ~EdgeId{0};

/// Undirected weighted edge. Invariant maintained by Graph: u != v.
/// Parallel edges are allowed at the container level (some substrates
/// aggregate them); generators emit simple graphs.
struct Edge {
  Vertex u = 0;
  Vertex v = 0;
  double w = 1.0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// Immutable-after-build undirected graph.
class Graph {
 public:
  Graph() = default;
  explicit Graph(std::size_t n) : n_(n) {}
  Graph(std::size_t n, std::vector<Edge> edges);

  std::size_t num_vertices() const noexcept { return n_; }
  std::size_t num_edges() const noexcept { return edges_.size(); }
  const std::vector<Edge>& edges() const noexcept { return edges_; }
  const Edge& edge(EdgeId e) const noexcept { return edges_[e]; }

  /// Append an edge; invalidates the CSR view. Self loops are rejected
  /// (returns false) because no matching LP has them.
  bool add_edge(Vertex u, Vertex v, double w = 1.0);

  /// Total edge weight.
  double total_weight() const noexcept;

  /// Largest edge weight (0 for empty graphs).
  double max_weight() const noexcept;

  /// (neighbor, edge id) pairs incident to `u`; builds CSR lazily. The
  /// lazy build is mutex-guarded and the validity flag has acquire/release
  /// ordering, so concurrent readers (ThreadPool sweeps) are safe — but
  /// call build_adjacency() explicitly before a parallel section to avoid
  /// serializing the first reads on the build lock. add_edge() must not
  /// run concurrently with readers.
  struct Incidence {
    Vertex neighbor;
    EdgeId edge;
  };
  std::span<const Incidence> neighbors(Vertex u) const;

  /// Degree of u (requires CSR; builds lazily).
  std::size_t degree(Vertex u) const { return neighbors(u).size(); }

  /// Force construction of the adjacency view; idempotent and safe to call
  /// from multiple threads. Call before handing the graph to parallel code.
  void build_adjacency() const;

  /// Subgraph induced by keeping edge ids where keep[e] is true. Vertex set
  /// is preserved (same n), so vertex ids remain stable.
  Graph edge_subgraph(const std::vector<char>& keep) const;

  /// Human-readable summary, e.g. "Graph(n=100, m=450, W=13.5)".
  std::string summary() const;

  // The atomic flag and build mutex are not copyable, so spell out the
  // value semantics: copies carry the edge list and any built CSR view.
  Graph(const Graph& other);
  Graph& operator=(const Graph& other);
  Graph(Graph&& other) noexcept;
  Graph& operator=(Graph&& other) noexcept;
  ~Graph() = default;

 private:
  std::size_t n_ = 0;
  std::vector<Edge> edges_;

  // Lazily built CSR adjacency (mutable: logically const accessors).
  // adjacency_valid_ is written under adjacency_mutex_ with release order
  // and read with acquire order, so a reader that sees `true` also sees the
  // fully built offsets_/incidences_.
  mutable std::vector<std::size_t> offsets_;
  mutable std::vector<Incidence> incidences_;
  mutable std::atomic<bool> adjacency_valid_{false};
  mutable std::mutex adjacency_mutex_;
};

/// Per-vertex capacities for b-matching. For ordinary matching all b_i = 1.
class Capacities {
 public:
  Capacities() = default;
  /// Uniform capacities b for all n vertices.
  Capacities(std::size_t n, std::int64_t b) : b_(n, b) {}
  explicit Capacities(std::vector<std::int64_t> b) : b_(std::move(b)) {}

  std::int64_t operator[](Vertex v) const noexcept { return b_[v]; }
  std::int64_t& operator[](Vertex v) noexcept { return b_[v]; }
  std::size_t size() const noexcept { return b_.size(); }
  bool empty() const noexcept { return b_.empty(); }

  /// B = sum_i b_i (the paper's B; space grows with log B).
  std::int64_t total() const noexcept;

  /// ||U||_b = sum over vertices in U. U given as vertex list.
  std::int64_t weight_of(const std::vector<Vertex>& set) const noexcept;

  static Capacities unit(std::size_t n) { return Capacities(n, 1); }

 private:
  std::vector<std::int64_t> b_;
};

}  // namespace dp
