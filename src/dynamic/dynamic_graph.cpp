#include "dynamic/dynamic_graph.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>

#include "util/error.hpp"

namespace dp::dyn {

namespace {

constexpr Vertex key_lo(std::uint64_t key) noexcept {
  return static_cast<Vertex>(key >> 32);
}
constexpr Vertex key_hi(std::uint64_t key) noexcept {
  return static_cast<Vertex>(key & 0xffff'ffffULL);
}

bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

DynamicGraph::DynamicGraph(Graph base) : n_(base.num_vertices()) {
  live_.reserve(base.num_edges());
  for (const Edge& e : base.edges()) {
    live_.emplace_back(edge_key(e.u, e.v), e.w);
  }
  std::sort(live_.begin(), live_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 1; i < live_.size(); ++i) {
    if (live_[i].first == live_[i - 1].first) {
      throw ConfigError("DynamicGraph requires a simple base graph",
                        {"dynamic.base"});
    }
  }
  base_ = std::make_shared<const Graph>(std::move(base));
}

std::optional<double> DynamicGraph::live_weight(std::uint64_t key) const {
  const auto it = std::lower_bound(
      live_.begin(), live_.end(), key,
      [](const auto& a, std::uint64_t k) { return a.first < k; });
  if (it == live_.end() || it->first != key) return std::nullopt;
  return it->second;
}

DeltaSummary DynamicGraph::apply(const EdgeDelta& delta) {
  NormalizedDelta nd = normalize(delta);
  for (const std::uint64_t key : nd.remove_keys) {
    if (key_hi(key) >= n_) {
      throw ConfigError("delta remove endpoint out of range",
                        {"dynamic.apply", generation_ + 1});
    }
  }
  for (const EdgeInsert& e : nd.inserts) {
    if (e.v >= n_) {
      throw ConfigError("delta insert endpoint out of range",
                        {"dynamic.apply", generation_ + 1});
    }
    if (!std::isfinite(e.w)) {
      throw ConfigError("delta insert weight is not finite",
                        {"dynamic.apply", generation_ + 1});
    }
  }

  DeltaSummary s;
  s.dropped_self_loops = nd.dropped_self_loops;
  s.duplicate_inserts = nd.duplicate_inserts;
  s.phantom_removes = nd.duplicate_removes;  // repeats of one remove

  LogEntry entry;
  entry.generation = generation_ + 1;

  // Effective removes: keys actually live right now.
  std::vector<std::uint64_t> removed_keys;
  for (const std::uint64_t key : nd.remove_keys) {
    if (const auto w = live_weight(key)) {
      removed_keys.push_back(key);
      entry.removed.push_back(EdgeInsert{key_lo(key), key_hi(key), *w});
    } else {
      ++s.phantom_removes;
    }
  }

  // Effective inserts: new keys, re-inserts of just-removed keys, and
  // reweights (same key live at a different weight).
  std::vector<EdgeInsert> added;
  for (const EdgeInsert& e : nd.inserts) {
    const std::uint64_t key = edge_key(e.u, e.v);
    const bool removed_now = std::binary_search(removed_keys.begin(),
                                                removed_keys.end(), key);
    const auto w = live_weight(key);
    if (w && !removed_now) {
      if (same_bits(*w, e.w)) {
        ++s.duplicate_inserts;
        continue;
      }
      // Reweight: log as remove(old) + insert(new).
      entry.removed.push_back(EdgeInsert{e.u, e.v, *w});
    }
    added.push_back(e);
    entry.inserted.push_back(e);
  }
  std::sort(entry.removed.begin(), entry.removed.end(),
            [](const EdgeInsert& a, const EdgeInsert& b) {
              return edge_key(a.u, a.v) < edge_key(b.u, b.v);
            });

  // Rebuild the live table in one sorted merge: additions overwrite,
  // removed keys (not re-added) drop, everything else carries over.
  std::vector<std::pair<std::uint64_t, double>> next;
  next.reserve(live_.size() + added.size());
  std::size_t ai = 0;
  for (const auto& [key, w] : live_) {
    while (ai < added.size() && edge_key(added[ai].u, added[ai].v) < key) {
      next.emplace_back(edge_key(added[ai].u, added[ai].v), added[ai].w);
      ++ai;
    }
    if (ai < added.size() && edge_key(added[ai].u, added[ai].v) == key) {
      next.emplace_back(key, added[ai].w);
      ++ai;
      continue;
    }
    if (std::binary_search(removed_keys.begin(), removed_keys.end(), key)) {
      continue;
    }
    next.emplace_back(key, w);
  }
  for (; ai < added.size(); ++ai) {
    next.emplace_back(edge_key(added[ai].u, added[ai].v), added[ai].w);
  }
  live_ = std::move(next);

  s.inserted = entry.inserted.size();
  s.removed = entry.removed.size();
  ++generation_;
  s.generation = generation_;
  log_.push_back(std::move(entry));
  return s;
}

std::shared_ptr<const Graph> DynamicGraph::materialize() const {
  // Generation 0 serves the base unchanged (caller edge ids preserved);
  // after the first delta the canonical key-sorted form takes over.
  if (generation_ == 0) return base_;
  if (cache_ != nullptr && cache_generation_ == generation_) return cache_;
  Graph g(n_);
  for (const auto& [key, w] : live_) {
    g.add_edge(key_lo(key), key_hi(key), w);
  }
  cache_ = std::make_shared<const Graph>(std::move(g));
  cache_generation_ = generation_;
  return cache_;
}

EdgeDelta DynamicGraph::delta_since(std::uint64_t generation) const {
  EdgeDelta out;
  if (generation >= generation_) return out;
  // Reconstruct each touched key's state at `generation` by undoing the
  // log newest-to-oldest: the LAST write (from the oldest entry past the
  // cut) is the state just after `generation`.
  std::map<std::uint64_t, std::optional<double>> at_gen;
  for (auto it = log_.rbegin(); it != log_.rend(); ++it) {
    if (it->generation <= generation) break;
    for (const EdgeInsert& e : it->inserted) {
      at_gen[edge_key(e.u, e.v)] = std::nullopt;  // absent before the entry
    }
    for (const EdgeInsert& e : it->removed) {
      at_gen[edge_key(e.u, e.v)] = e.w;  // live at this weight before it
    }
  }
  for (const auto& [key, was] : at_gen) {
    const auto now = live_weight(key);
    const Vertex u = key_lo(key);
    const Vertex v = key_hi(key);
    if (was.has_value() && !now.has_value()) {
      out.removes.push_back(EdgeRemove{u, v});
    } else if (!was.has_value() && now.has_value()) {
      out.inserts.push_back(EdgeInsert{u, v, *now});
    } else if (was.has_value() && now.has_value() &&
               !same_bits(*was, *now)) {
      out.removes.push_back(EdgeRemove{u, v});
      out.inserts.push_back(EdgeInsert{u, v, *now});
    }
  }
  return out;
}

}  // namespace dp::dyn
