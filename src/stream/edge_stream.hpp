#pragma once
// Semi-streaming access model: sequential read-only passes over the edge
// list with pass counting. Algorithms in the streaming model may keep only
// o(m) state; the ResourceMeter records passes and peak stored edges so
// tests can assert the model is respected.
//
// Two backends behind one pass interface:
//  - an in-RAM Graph (the original mode): passes walk the edge vector;
//  - a file-backed EdgeFileStream (out-of-core): passes scan DPEF blocks,
//    decoding one at a time on the pass thread, so a pass never holds
//    more than one block of edges in memory.
// Shuffled passes differ per backend: the Graph mode permutes EDGES, the
// file mode permutes BLOCKS (sequential IO within each block — a full
// per-edge permutation would defeat out-of-core streaming). Both model
// "arbitrary arrival order"; every consumer in this library derives its
// retained/stored sets from per-edge-id draws that are invariant to
// arrival order, so solves are bitwise identical across backends (the
// contract tests/test_out_of_core.cpp pins).
//
// Passes are templated on the callable so hot per-edge loops inline instead
// of paying an indirect call per edge.
//
// The shuffled-order cache follows the same mutex + acquire/release pattern
// as Graph::neighbors' lazy CSR: each seed's permutation is built once,
// under a mutex, into an immutable entry pushed onto a lock-free list, so
// concurrent first passes (including passes with different seeds) are safe.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "graph/graph.hpp"
#include "stream/edge_file.hpp"
#include "util/accounting.hpp"

namespace dp {

class EdgeStream {
 public:
  /// Stream over g's edges in their stored order. The graph must outlive
  /// the stream.
  explicit EdgeStream(const Graph& g, ResourceMeter* meter = nullptr)
      : graph_(&g), meter_(meter) {}

  /// Stream over a binary edge file. The stream object must outlive this
  /// wrapper; IO accounting goes to the meter attached to `file` itself
  /// (set_meter), while `meter` here counts model passes.
  explicit EdgeStream(stream::EdgeFileStream& file,
                      ResourceMeter* meter = nullptr)
      : file_(&file), meter_(meter) {}

  EdgeStream(const EdgeStream&) = delete;
  EdgeStream& operator=(const EdgeStream&) = delete;

  ~EdgeStream();

  bool file_backed() const noexcept { return file_ != nullptr; }

  std::size_t num_vertices() const noexcept {
    return file_ != nullptr ? file_->num_vertices() : graph_->num_vertices();
  }
  std::size_t num_edges() const noexcept {
    return file_ != nullptr ? file_->num_edges() : graph_->num_edges();
  }

  /// One pass: invoke fn(edge) for every edge in order. Increments the pass
  /// counter. The callable is a template parameter (devirtualized).
  template <typename Fn>
  void for_each_pass(Fn&& fn) const {
    if (meter_ != nullptr) meter_->add_pass();
    if (file_ != nullptr) {
      file_->for_each([&fn](EdgeId, const Edge& e) { fn(e); });
      return;
    }
    for (const Edge& e : graph_->edges()) fn(e);
  }

  /// One pass that also yields each edge's id: fn(id, edge). The access
  /// substrates use this to map arrivals onto their retained-index space.
  template <typename Fn>
  void for_each_pass_indexed(Fn&& fn) const {
    if (meter_ != nullptr) meter_->add_pass();
    if (file_ != nullptr) {
      file_->for_each(fn);
      return;
    }
    const std::size_t m = graph_->num_edges();
    for (EdgeId e = 0; e < m; ++e) fn(e, graph_->edge(e));
  }

  /// One pass in a random order determined by `seed` (models adversarial /
  /// arbitrary arrival order differing between passes), yielding each
  /// edge's id: fn(id, edge). Graph backend: per-edge permutation; file
  /// backend: per-BLOCK permutation (see file header). The permutation is
  /// cached per seed as an immutable entry (repeated passes with the same
  /// seed rebuild nothing); only the index order is materialized, never the
  /// edges. Safe to call concurrently, including concurrent first passes.
  template <typename Fn>
  void for_each_pass_shuffled_indexed(std::uint64_t seed, Fn&& fn) const {
    if (meter_ != nullptr) meter_->add_pass();
    if (file_ != nullptr) {
      const std::vector<EdgeId>& blocks = order_for(seed);
      file_->scan_blocks(
          blocks.data(), blocks.size(),
          [&fn](EdgeId base, const Edge* edges, std::size_t count) {
            for (std::size_t i = 0; i < count; ++i) {
              fn(static_cast<EdgeId>(base + i), edges[i]);
            }
          });
      return;
    }
    for (EdgeId idx : order_for(seed)) fn(idx, graph_->edge(idx));
  }

 private:
  /// One immutable cached permutation (edge ids for the Graph backend,
  /// block ids for the file backend). Entries are only ever prepended to
  /// the list and freed by the destructor, so readers traverse without
  /// locking (acquire loads pair with the release store publishing a new
  /// fully-built entry).
  struct ShuffleOrder {
    std::uint64_t seed;
    std::vector<EdgeId> order;
    ShuffleOrder* next;
  };

  const std::vector<EdgeId>& order_for(std::uint64_t seed) const;

  const Graph* graph_ = nullptr;
  stream::EdgeFileStream* file_ = nullptr;
  ResourceMeter* meter_;
  mutable std::atomic<ShuffleOrder*> orders_{nullptr};
  mutable std::mutex order_mutex_;  // serializes permutation builds
};

}  // namespace dp
