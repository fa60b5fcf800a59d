#include "matching/greedy.hpp"

#include <algorithm>
#include <bit>
#include <compare>
#include <numeric>
#include <stdexcept>

namespace dp {

namespace {

/// A key whose unsigned ascending order is the weight's descending order.
/// Positive weights keep their magnitude bits inverted under a clear sign
/// bit; negative ones keep their bits as they are (sign set, larger
/// magnitude later). -0.0 is keyed as +0.0, so the two tie as they do
/// under operator>.
std::uint64_t descending_key(double w) {
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  const auto bits = std::bit_cast<std::uint64_t>(w == 0.0 ? 0.0 : w);
  return (bits & kSign) != 0 ? bits : bits ^ (kSign - 1);
}

}  // namespace

std::vector<EdgeId> edges_by_weight_desc(const Graph& g) {
  // Stable LSD radix sort on descending_key: passes run from the lowest
  // digit up and each keeps the previous order within a bucket, so ties
  // stay in id order; the last pass writes the ids out.
  constexpr unsigned kDigitBits = 11;
  constexpr unsigned kDigits = (64 + kDigitBits - 1) / kDigitBits;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  const auto digit = [](std::uint64_t key, unsigned d) {
    return static_cast<std::size_t>(key >> (d * kDigitBits)) & (kBuckets - 1);
  };
  struct Item {
    std::uint64_t key;
    EdgeId id;
  };
  const std::size_t m = g.num_edges();
  std::vector<Item> items;
  items.reserve(m);
  std::vector<std::size_t> count(kDigits * kBuckets, 0);
  for (std::size_t e = 0; e < m; ++e) {
    const std::uint64_t key = descending_key(g.edge(static_cast<EdgeId>(e)).w);
    items.push_back(Item{key, static_cast<EdgeId>(e)});
    for (unsigned d = 0; d < kDigits; ++d) {
      ++count[d * kBuckets + digit(key, d)];
    }
  }
  std::vector<Item> next(m);
  std::vector<EdgeId> order(m);
  for (unsigned d = 0; d < kDigits; ++d) {
    std::size_t* bucket = count.data() + d * kBuckets;
    std::exclusive_scan(bucket, bucket + kBuckets, bucket, std::size_t{0});
    if (d + 1 == kDigits) {
      for (const Item& item : items) {
        order[bucket[digit(item.key, d)]++] = item.id;
      }
    } else {
      for (const Item& item : items) {
        next[bucket[digit(item.key, d)]++] = item;
      }
      items.swap(next);
    }
  }
  return order;
}

std::vector<EdgeId> subset_weight_order(const std::vector<EdgeId>& order,
                                        const std::vector<EdgeId>& ids) {
  const std::size_t m = order.size();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] >= m || (i > 0 && ids[i] <= ids[i - 1])) {
      throw std::invalid_argument(
          "subset_weight_order: ids must strictly ascend below the order's "
          "size");
    }
  }
  std::vector<EdgeId> local_id(m, kNoEdge);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    local_id[ids[i]] = static_cast<EdgeId>(i);
  }
  std::vector<EdgeId> local;
  local.reserve(ids.size());
  for (const EdgeId e : order) {
    if (local_id[e] != kNoEdge) local.push_back(local_id[e]);
  }
  return local;
}

std::optional<std::vector<EdgeId>> merge_weight_order(
    const Graph& g, const std::vector<EdgeId>& prev_order,
    const std::vector<EdgeId>& renamed, const std::vector<EdgeId>& inserted) {
  struct Keyed {
    std::uint64_t key;
    EdgeId id;
    auto operator<=>(const Keyed&) const = default;
  };
  const std::size_t m = g.num_edges();
  const auto keyed = [&g](EdgeId e) {
    return Keyed{descending_key(g.edge(e).w), e};
  };
  std::vector<Keyed> sorted_inserts;
  sorted_inserts.reserve(inserted.size());
  for (const EdgeId e : inserted) {
    if (e >= m) return std::nullopt;
    sorted_inserts.push_back(keyed(e));
  }
  std::sort(sorted_inserts.begin(), sorted_inserts.end());
  std::vector<EdgeId> order;
  order.reserve(m);
  // The check: each pair written must exceed the last. Strictly ascending
  // pairs have distinct ids, so m of them below m are a permutation, and
  // the one ascending in (key, id) is the sort's.
  Keyed last{};
  const auto put = [&order, &last](const Keyed& next) {
    if (!order.empty() && !(last < next)) return false;
    order.push_back(next.id);
    last = next;
    return true;
  };
  std::size_t i = 0;
  for (const EdgeId old : prev_order) {
    if (old >= renamed.size()) return std::nullopt;
    const EdgeId e = renamed[old];
    if (e == kNoEdge) continue;
    if (e >= m) return std::nullopt;
    const Keyed next = keyed(e);
    for (; i < sorted_inserts.size() && sorted_inserts[i] < next; ++i) {
      if (!put(sorted_inserts[i])) return std::nullopt;
    }
    if (!put(next)) return std::nullopt;
  }
  for (; i < sorted_inserts.size(); ++i) {
    if (!put(sorted_inserts[i])) return std::nullopt;
  }
  if (order.size() != m) return std::nullopt;
  return order;
}

Matching greedy_matching(const Graph& g) {
  return greedy_matching_in_order(g, edges_by_weight_desc(g));
}

Matching greedy_matching_in_order(const Graph& g,
                                  const std::vector<EdgeId>& order) {
  std::vector<char> used(g.num_vertices(), 0);
  Matching m;
  for (EdgeId e : order) {
    const Edge& edge = g.edge(e);
    if (!used[edge.u] && !used[edge.v]) {
      used[edge.u] = used[edge.v] = 1;
      m.add(e);
    }
  }
  return m;
}

Matching maximal_matching(const Graph& g) {
  std::vector<char> used(g.num_vertices(), 0);
  Matching m;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    if (!used[edge.u] && !used[edge.v]) {
      used[edge.u] = used[edge.v] = 1;
      m.add(e);
    }
  }
  return m;
}

void extend_maximal_matching(const Graph& g,
                             const std::vector<EdgeId>& candidates,
                             std::vector<Vertex>& mate, Matching& m) {
  for (EdgeId e : candidates) {
    const Edge& edge = g.edge(e);
    if (mate[edge.u] == Matching::kUnmatched &&
        mate[edge.v] == Matching::kUnmatched) {
      mate[edge.u] = edge.v;
      mate[edge.v] = edge.u;
      m.add(e);
    }
  }
}

BMatching greedy_b_matching_in_order(const Graph& g, const Capacities& b,
                                     const std::vector<EdgeId>& order) {
  std::vector<std::int64_t> residual(g.num_vertices());
  for (std::size_t v = 0; v < g.num_vertices(); ++v) {
    residual[v] = b[static_cast<Vertex>(v)];
  }
  BMatching bm(g.num_edges());
  for (EdgeId e : order) {
    const Edge& edge = g.edge(e);
    const std::int64_t y = std::min(residual[edge.u], residual[edge.v]);
    if (y > 0) {
      bm.set_multiplicity(e, y);
      residual[edge.u] -= y;
      residual[edge.v] -= y;
    }
  }
  return bm;
}

BMatching greedy_b_matching(const Graph& g, const Capacities& b) {
  return greedy_b_matching_in_order(g, b, edges_by_weight_desc(g));
}

}  // namespace dp
