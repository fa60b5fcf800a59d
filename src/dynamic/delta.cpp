#include "dynamic/delta.hpp"

#include <algorithm>
#include <utility>

namespace dp::dyn {

NormalizedDelta normalize(const EdgeDelta& delta) {
  NormalizedDelta out;

  out.remove_keys.reserve(delta.removes.size());
  for (const EdgeRemove& r : delta.removes) {
    if (r.u == r.v) {
      ++out.dropped_self_loops;
      continue;
    }
    out.remove_keys.push_back(edge_key(r.u, r.v));
  }
  std::sort(out.remove_keys.begin(), out.remove_keys.end());
  const auto rlast =
      std::unique(out.remove_keys.begin(), out.remove_keys.end());
  out.duplicate_removes =
      static_cast<std::size_t>(out.remove_keys.end() - rlast);
  out.remove_keys.erase(rlast, out.remove_keys.end());

  out.inserts.reserve(delta.inserts.size());
  for (const EdgeInsert& e : delta.inserts) {
    if (e.u == e.v) {
      ++out.dropped_self_loops;
      continue;
    }
    const Vertex lo = e.u < e.v ? e.u : e.v;
    const Vertex hi = e.u < e.v ? e.v : e.u;
    out.inserts.push_back(EdgeInsert{lo, hi, e.w});
  }
  // Stable sort + first-wins dedup: within a batch the first insert of an
  // endpoint pair is the one that applies, repeats are only counted.
  std::stable_sort(out.inserts.begin(), out.inserts.end(),
                   [](const EdgeInsert& a, const EdgeInsert& b) {
                     return edge_key(a.u, a.v) < edge_key(b.u, b.v);
                   });
  auto ilast = std::unique(out.inserts.begin(), out.inserts.end(),
                           [](const EdgeInsert& a, const EdgeInsert& b) {
                             return edge_key(a.u, a.v) == edge_key(b.u, b.v);
                           });
  out.duplicate_inserts = static_cast<std::size_t>(out.inserts.end() - ilast);
  out.inserts.erase(ilast, out.inserts.end());
  return out;
}

DeltaIds delta_ids(const Graph& post, const NormalizedDelta& delta) {
  DeltaIds out;
  const std::vector<std::uint64_t>& removes = delta.remove_keys;
  const std::vector<EdgeInsert>& inserts = delta.inserts;
  // Past its last op a side reads as a key above every edge's.
  constexpr std::uint64_t kPastEnd = ~std::uint64_t{0};
  const auto remove_key = [&removes](std::size_t r) {
    return r < removes.size() ? removes[r] : kPastEnd;
  };
  const auto insert_key = [&inserts](std::size_t i) {
    return i < inserts.size() ? edge_key(inserts[i].u, inserts[i].v)
                              : kPastEnd;
  };
  // A key-sorted graph merges with the key-sorted delta: the pre-delta keys
  // are the post-delta ones minus the inserts plus the removes, so walking
  // all three in key order numbers the pre-delta edges as it goes. The map
  // is sized for the most pre-delta edges there can be and trimmed after;
  // a removed edge's entry keeps its kNoEdge fill.
  const std::size_t m = post.num_edges();
  const Edge* edges = post.edges().data();
  out.renamed.assign(m + removes.size(), kNoEdge);
  EdgeId* renamed = out.renamed.data();
  std::size_t old = 0;
  std::size_t r = 0;
  std::size_t i = 0;
  std::uint64_t next_remove = remove_key(0);
  std::uint64_t next_insert = insert_key(0);
  std::uint64_t last = 0;
  bool key_sorted = true;
  for (std::size_t e = 0; e < m; ++e) {
    const std::uint64_t key = edge_key(edges[e].u, edges[e].v);
    if (e > 0 && key <= last) {
      key_sorted = false;
      break;
    }
    last = key;
    // Removed keys below this one were pre-delta edges the graph lacks.
    for (; next_remove < key; next_remove = remove_key(++r)) ++old;
    while (next_insert < key) next_insert = insert_key(++i);
    const bool removed = next_remove == key;
    if (removed) next_remove = remove_key(++r);
    if (next_insert == key) {
      next_insert = insert_key(++i);
      out.inserted.push_back(static_cast<EdgeId>(e));
      if (removed) ++old;  // reweighted
    } else {
      renamed[old++] = static_cast<EdgeId>(e);
    }
  }
  if (key_sorted) {
    out.renamed.resize(old + (removes.size() - r));
    return out;
  }
  // Any other edge order: a binary search per edge finds the inserts.
  out.renamed.clear();
  std::vector<std::pair<std::size_t, EdgeId>> located;
  for (EdgeId e = 0; e < post.num_edges(); ++e) {
    const std::uint64_t key = edge_key(post.edge(e).u, post.edge(e).v);
    const auto it = std::lower_bound(
        inserts.begin(), inserts.end(), key,
        [](const EdgeInsert& ins, std::uint64_t k) {
          return edge_key(ins.u, ins.v) < k;
        });
    if (it != inserts.end() && edge_key(it->u, it->v) == key) {
      located.emplace_back(static_cast<std::size_t>(it - inserts.begin()), e);
    }
  }
  std::sort(located.begin(), located.end());
  out.inserted.clear();
  for (const auto& [index, e] : located) out.inserted.push_back(e);
  return out;
}

}  // namespace dp::dyn
