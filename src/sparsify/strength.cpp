#include "sparsify/strength.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace dp {

namespace {

int subsample_levels(std::size_t m) {
  return 1 +
         static_cast<int>(std::ceil(std::log2(static_cast<double>(m) + 1)));
}

/// A level-i certificate j * 2^i is only statistically meaningful when the
/// placement index j is at least ~log n (the k-connectivity requirement of
/// the original construction); below that, mere survival of the
/// subsampling would inflate weak edges (a bridge that survives 3 halvings
/// is still a bridge).
std::size_t strength_k_min(std::size_t n) {
  return std::max<std::size_t>(
      2, static_cast<std::size_t>(
             std::ceil(std::log2(static_cast<double>(n) + 2))));
}

/// Partition the edge set into at most kStrengthRegions vertex-disjoint
/// buckets of connected components, balanced by edge count (components in
/// first-appearance order, each assigned to the lightest bucket so far).
/// Returns the number of buckets and fills scratch.region_offset /
/// scratch.region_members (edge ids ascending inside each bucket). The
/// split is a pure function of (n, edges) — never of the thread count.
std::size_t build_level0_regions(std::size_t n,
                                 const std::vector<Edge>& edges,
                                 StrengthScratch& scratch) {
  const std::size_t m = edges.size();
  scratch.components.reset(n);
  for (const Edge& e : edges) scratch.components.unite(e.u, e.v);

  scratch.comp_count.assign(n, 0);
  scratch.comp_order.clear();
  for (const Edge& e : edges) {
    const std::uint32_t root = scratch.components.find(e.u);
    if (scratch.comp_count[root] == 0) scratch.comp_order.push_back(root);
    ++scratch.comp_count[root];
  }

  const std::size_t regions =
      std::min(kStrengthRegions, scratch.comp_order.size());
  scratch.comp_bucket.assign(n, 0);
  std::uint32_t load[kStrengthRegions] = {};
  for (const std::uint32_t root : scratch.comp_order) {
    std::size_t lightest = 0;
    for (std::size_t r = 1; r < regions; ++r) {
      if (load[r] < load[lightest]) lightest = r;
    }
    scratch.comp_bucket[root] = static_cast<std::uint8_t>(lightest);
    load[lightest] += scratch.comp_count[root];
  }

  scratch.region_offset.assign(regions + 1, 0);
  for (const Edge& e : edges) {
    const std::uint8_t r =
        scratch.comp_bucket[scratch.components.find(e.u)];
    ++scratch.region_offset[r + 1];
  }
  for (std::size_t r = 0; r < regions; ++r) {
    scratch.region_offset[r + 1] += scratch.region_offset[r];
  }
  scratch.region_members.resize(m);
  scratch.region_cursor.assign(scratch.region_offset.begin(),
                               scratch.region_offset.begin() +
                                   static_cast<std::ptrdiff_t>(regions));
  for (std::size_t e = 0; e < m; ++e) {
    const std::uint8_t r =
        scratch.comp_bucket[scratch.components.find(edges[e].u)];
    scratch.region_members[scratch.region_cursor[r]++] =
        static_cast<std::uint32_t>(e);
  }
  return regions;
}

}  // namespace

void estimate_strengths_into(std::size_t n, const std::vector<Edge>& edges,
                             std::uint64_t seed,
                             std::vector<double>& strength,
                             StrengthScratch& scratch, ThreadPool* pool) {
  const std::size_t m = edges.size();
  strength.assign(m, 1.0);
  if (m == 0 || n == 0) return;

  const auto levels = static_cast<std::size_t>(subsample_levels(m));
  const std::size_t k_min = strength_k_min(n);

  // Counter-based subsample depths: a pure function of (seed, e), so the
  // grouping below is independent of evaluation order.
  const CounterRng rng(seed);
  scratch.level_cap.resize(m);
  for (std::size_t e = 0; e < m; ++e) {
    scratch.level_cap[e] = static_cast<std::uint8_t>(
        std::min<int>(static_cast<int>(levels) - 1,
                      rng.coin_flips_until_tail(e, 0)));
  }

  // CSR of level membership: edge e participates in levels 0..cap[e].
  scratch.level_offset.assign(levels + 1, 0);
  for (std::size_t e = 0; e < m; ++e) {
    for (std::size_t i = 0; i <= scratch.level_cap[e]; ++i) {
      ++scratch.level_offset[i + 1];
    }
  }
  std::size_t used_levels = levels;
  for (std::size_t i = 0; i < levels; ++i) {
    if (scratch.level_offset[i + 1] == 0) {
      used_levels = i;  // nested subsamples: all deeper levels empty too
      break;
    }
    scratch.level_offset[i + 1] += scratch.level_offset[i];
  }
  scratch.level_members.resize(scratch.level_offset[used_levels]);
  scratch.cursor.assign(scratch.level_offset.begin(),
                        scratch.level_offset.begin() +
                            static_cast<std::ptrdiff_t>(used_levels));
  for (std::size_t e = 0; e < m; ++e) {
    const std::size_t cap =
        std::min<std::size_t>(scratch.level_cap[e],
                              used_levels == 0 ? 0 : used_levels - 1);
    for (std::size_t i = 0; i <= cap && i < used_levels; ++i) {
      scratch.level_members[scratch.cursor[i]++] = static_cast<std::uint32_t>(e);
    }
  }

  // Independent forest-packing jobs, each sequential in edge order and
  // writing only its own candidate slice — deterministic for any thread
  // count. Level 0 holds EVERY edge and used to dominate the critical
  // path as one serial job; it now splits into vertex-disjoint region
  // jobs (balanced component buckets). Forest packing never crosses a
  // component boundary — an edge's placement index depends only on the
  // earlier edges of its own component — so per-region packing in
  // ascending edge order reproduces the serial placement indices exactly.
  // Levels >= 1 are subsamples and stay one job each.
  scratch.candidate.resize(scratch.level_members.size());
  const std::size_t regions = build_level0_regions(n, edges, scratch);
  const std::size_t jobs = regions + (used_levels - 1);
  if (scratch.packers.size() < jobs) {
    scratch.packers.resize(jobs);
  }
  run_jobs(pool, jobs, [&](std::size_t job) {
    detail::ForestPacker& packer = scratch.packers[job];
    packer.reset(n);
    if (job < regions) {
      // Level 0's CSR positions coincide with edge ids (every edge is a
      // level-0 member, filled in ascending order).
      for (std::size_t pos = scratch.region_offset[job];
           pos < scratch.region_offset[job + 1]; ++pos) {
        const std::uint32_t e = scratch.region_members[pos];
        scratch.candidate[e] = static_cast<double>(
            packer.insert(edges[e].u, edges[e].v));
      }
      return;
    }
    const std::size_t i = job - regions + 1;
    const double scale = std::pow(2.0, static_cast<double>(i));
    for (std::size_t pos = scratch.level_offset[i];
         pos < scratch.level_offset[i + 1]; ++pos) {
      const std::uint32_t e = scratch.level_members[pos];
      const std::size_t j = packer.insert(edges[e].u, edges[e].v);
      scratch.candidate[pos] =
          j >= k_min ? static_cast<double>(j) * scale : 0.0;
    }
  });

  // Combine in level order (max is exact, so the order is irrelevant for
  // the value — it just keeps the pass cache-friendly).
  for (std::size_t i = 0; i < used_levels; ++i) {
    for (std::size_t pos = scratch.level_offset[i];
         pos < scratch.level_offset[i + 1]; ++pos) {
      const std::uint32_t e = scratch.level_members[pos];
      if (scratch.candidate[pos] > strength[e]) {
        strength[e] = scratch.candidate[pos];
      }
    }
  }
}

}  // namespace dp
