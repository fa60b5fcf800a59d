#include "graph/gomory_hu.hpp"

#include <algorithm>
#include <stdexcept>

namespace dp {

void GomoryHuTree::finalize() {
  const std::size_t n = parent.size();
  depth.assign(n, 0);
  // Gusfield invariant: parent[v] is either v's root or an index < v, so a
  // single increasing pass resolves every depth.
  for (std::uint32_t v = 0; v < n; ++v) {
    if (parent[v] != v) depth[v] = depth[parent[v]] + 1;
  }
  child_off.assign(n + 1, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (parent[v] != v) ++child_off[parent[v] + 1];
  }
  for (std::size_t v = 0; v < n; ++v) child_off[v + 1] += child_off[v];
  child_list.resize(n == 0 ? 0 : child_off[n]);
  std::vector<std::uint32_t> cursor(child_off.begin(), child_off.end() - 1);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (parent[v] != v) child_list[cursor[parent[v]]++] = v;
  }
}

std::int64_t GomoryHuTree::min_cut(std::uint32_t s, std::uint32_t t) const {
  std::int64_t best = INT64_MAX;
  std::int32_t ds = depth[s];
  std::int32_t dt = depth[t];
  std::uint32_t a = s;
  std::uint32_t b = t;
  while (ds > dt) {
    best = std::min(best, cut_value[a]);
    a = parent[a];
    --ds;
  }
  while (dt > ds) {
    best = std::min(best, cut_value[b]);
    b = parent[b];
    --dt;
  }
  while (a != b) {
    if (parent[a] == a && parent[b] == b) return 0;  // different components
    best = std::min(best, cut_value[a]);
    best = std::min(best, cut_value[b]);
    a = parent[a];
    b = parent[b];
  }
  return best == INT64_MAX ? 0 : best;
}

void GomoryHuTree::cut_side_into(std::uint32_t v,
                                 std::vector<std::uint32_t>& out) const {
  out.clear();
  // Iterative subtree walk on the children CSR: out doubles as the stack —
  // entries before `head` are emitted, entries at/after it are pending.
  out.push_back(v);
  std::size_t head = 0;
  while (head < out.size()) {
    const std::uint32_t x = out[head++];
    for (std::uint32_t c = child_off[x]; c < child_off[x + 1]; ++c) {
      out.push_back(child_list[c]);
    }
  }
}

std::vector<std::uint32_t> GomoryHuTree::cut_side(std::uint32_t v) const {
  std::vector<std::uint32_t> side;
  cut_side_into(v, side);
  return side;
}

void gomory_hu_from_arena(FlowArena& net, const std::vector<char>* alive,
                          GomoryHuTree& tree) {
  const std::size_t n = net.num_vertices();
  tree.cut_value.assign(n, 0);
  tree.parent.resize(n);
  tree.root = 0;
  auto is_alive = [alive](std::uint32_t v) {
    return alive == nullptr || (*alive)[v] != 0;
  };
  std::uint32_t root = 0;
  while (root < n && !is_alive(root)) ++root;
  if (root >= n) {  // nothing alive: forest of singletons
    for (std::uint32_t v = 0; v < n; ++v) tree.parent[v] = v;
    tree.finalize();
    return;
  }
  tree.root = root;
  for (std::uint32_t v = 0; v < n; ++v) {
    tree.parent[v] = is_alive(v) ? root : v;
  }
  // Gusfield: for each i, flow to the current parent; re-parent later
  // siblings that fall on i's side of the cut.
  std::vector<char> side;
  for (std::uint32_t i = root + 1; i < n; ++i) {
    if (!is_alive(i)) continue;
    const std::uint32_t p = tree.parent[i];
    tree.cut_value[i] = net.max_flow(i, p);
    net.min_cut_side(i, side);
    for (std::uint32_t j = i + 1; j < n; ++j) {
      if (tree.parent[j] == p && side[j] && is_alive(j)) tree.parent[j] = i;
    }
  }
  tree.finalize();
}

GomoryHuTree gomory_hu_from_arena(FlowArena& net,
                                  const std::vector<char>* alive) {
  GomoryHuTree tree;
  gomory_hu_from_arena(net, alive, tree);
  return tree;
}

GomoryHuTree gomory_hu(std::size_t n, const std::vector<Edge>& edges,
                       const std::vector<std::int64_t>& cap) {
  if (edges.size() != cap.size()) {
    throw std::invalid_argument("gomory_hu: cap size mismatch");
  }
  if (n <= 1) {
    GomoryHuTree tree;
    tree.parent.assign(n, 0);
    tree.cut_value.assign(n, 0);
    tree.finalize();
    return tree;
  }
  // Aggregate parallel edges: sort-and-merge over a flat buffer (no node
  // allocations, unlike the old std::map path).
  std::vector<ArenaEdge> agg;
  agg.reserve(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (cap[e] <= 0) continue;
    const auto key = std::minmax(edges[e].u, edges[e].v);
    agg.push_back(ArenaEdge{key.first, key.second, cap[e]});
  }
  aggregate_parallel_edges(agg);

  FlowArena net;
  net.build(n, agg);
  return gomory_hu_from_arena(net);
}

}  // namespace dp
