#include "matching/blossom_weighted.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <stdexcept>
#include <vector>

namespace dp {

namespace {

// Primal-dual blossom solver, 1-indexed vertices. Blossom (super)vertices
// occupy ids n+1 .. n_x <= 2n. The structure follows the classical O(n^3)
// formulation on a (2n+2)^2 matrix of arcs (u, v, w): S-labels (0 =
// outer/even, 1 = inner/odd, -1 = free), per-vertex duals lab[], slack
// pointers per root vertex, and explicit blossom flower lists with rotation
// on augmentation. Of that matrix only the weights between original
// vertices (their endpoints are their position) and the row and column of
// each blossom id taken so far are stored; see blossom_weighted.hpp.
class WeightedBlossom {
 public:
  explicit WeightedBlossom(int n)
      : n_(n),
        n_x_(n),
        size_(2 * n + 2),
        w_(static_cast<std::size_t>(n + 1) * (n + 1), 0),
        lab_(size_, 0),
        match_(size_, 0),
        slack_(size_, 0),
        st_(size_, 0),
        pa_(size_, 0),
        s_(size_, -1),
        vis_(size_, 0),
        flo_(size_) {}

  void set_weight(int u, int v, std::int64_t w) {
    // Parallel edges: keep the best.
    if (w > weight(u, v)) {
      weight(u, v) = w;
      weight(v, u) = w;
    }
  }

  /// Runs the algorithm; afterwards mate(u) gives the 1-indexed partner of
  /// u or 0.
  void solve() {
    std::fill(match_.begin(), match_.end(), 0);
    std::int64_t w_max = 0;
    for (int u = 0; u <= n_; ++u) {
      st_[u] = u;
      flo_[u].clear();
    }
    for (int u = 1; u <= n_; ++u) {
      for (int v = 1; v <= n_; ++v) w_max = std::max(w_max, weight(u, v));
    }
    for (int u = 1; u <= n_; ++u) lab_[u] = w_max;
    while (matching()) {
    }
  }

  int mate(int u) const { return match_[u]; }

 private:
  struct Arc {
    int u = 0, v = 0;
    std::int64_t w = 0;
  };

  // Row b and column b of blossom id b, and b's flo_from row.
  struct BlossomCells {
    std::vector<Arc> row;       // cell (b, x), x < 2n+2
    std::vector<Arc> col;       // cell (x, b), x <= n
    std::vector<int> flo_from;  // flo_from(b, x), x <= n
  };

  std::int64_t& weight(int u, int v) {
    return w_[static_cast<std::size_t>(u) * (n_ + 1) + v];
  }
  std::int64_t weight(int u, int v) const {
    return w_[static_cast<std::size_t>(u) * (n_ + 1) + v];
  }
  BlossomCells& cells(int b) { return blossoms_[b - n_ - 1]; }
  const BlossomCells& cells(int b) const { return blossoms_[b - n_ - 1]; }

  // Cell (u, v) of the arc matrix; ids above n_x_ are never read.
  Arc edge(int u, int v) const {
    if (u > n_) return cells(u).row[v];
    if (v > n_) return cells(v).col[u];
    return Arc{u, v, weight(u, v)};
  }
  // Writable cell (u, v), where u or v is a blossom id.
  Arc& blossom_edge(int u, int v) {
    return u > n_ ? cells(u).row[v] : cells(v).col[u];
  }
  // An original vertex x is its own flower: flo_from(x, x) = x, else 0.
  int flo_from(int b, int x) const {
    return b > n_ ? cells(b).flo_from[x] : (b == x ? b : 0);
  }

  // Takes blossom id n_x_ + 1. Its cells start as the dense matrix held
  // them: endpoints at their position, weight 0.
  void take_new_id() {
    const int b = ++n_x_;
    BlossomCells c{std::vector<Arc>(size_), std::vector<Arc>(n_ + 1),
                   std::vector<int>(n_ + 1, 0)};
    for (int x = 0; x < size_; ++x) c.row[x] = Arc{b, x, 0};
    for (int x = 0; x <= n_; ++x) c.col[x] = Arc{x, b, 0};
    blossoms_.push_back(std::move(c));
  }

  std::int64_t e_delta(const Arc& e) const {
    return lab_[e.u] + lab_[e.v] - edge(e.u, e.v).w * 2;
  }

  void update_slack(int u, int x) {
    if (!slack_[x] || e_delta(edge(u, x)) < e_delta(edge(slack_[x], x))) {
      slack_[x] = u;
    }
  }

  void set_slack(int x) {
    slack_[x] = 0;
    for (int u = 1; u <= n_; ++u) {
      if (edge(u, x).w > 0 && st_[u] != x && s_[st_[u]] == 0) {
        update_slack(u, x);
      }
    }
  }

  void q_push(int x) {
    if (x <= n_) {
      q_.push_back(x);
    } else {
      for (int i : flo_[x]) q_push(i);
    }
  }

  void set_st(int x, int b) {
    st_[x] = b;
    if (x > n_) {
      for (int i : flo_[x]) set_st(i, b);
    }
  }

  int get_pr(int b, int xr) {
    auto& f = flo_[b];
    const int pr = static_cast<int>(
        std::find(f.begin(), f.end(), xr) - f.begin());
    if (pr % 2 == 1) {
      std::reverse(f.begin() + 1, f.end());
      return static_cast<int>(f.size()) - pr;
    }
    return pr;
  }

  void set_match(int u, int v) {
    match_[u] = edge(u, v).v;
    if (u > n_) {
      const Arc e = edge(u, v);
      const int xr = flo_from(u, e.u);
      const int pr = get_pr(u, xr);
      for (int i = 0; i < pr; ++i) {
        set_match(flo_[u][static_cast<std::size_t>(i)],
                  flo_[u][static_cast<std::size_t>(i ^ 1)]);
      }
      set_match(xr, v);
      std::rotate(flo_[u].begin(), flo_[u].begin() + pr, flo_[u].end());
    }
  }

  void augment(int u, int v) {
    for (;;) {
      const int xnv = st_[match_[u]];
      set_match(u, v);
      if (!xnv) return;
      set_match(xnv, st_[pa_[xnv]]);
      u = st_[pa_[xnv]];
      v = xnv;
    }
  }

  int get_lca(int u, int v) {
    ++timestamp_;
    while (u || v) {
      if (u != 0) {
        if (vis_[u] == timestamp_) return u;
        vis_[u] = timestamp_;
        u = st_[match_[u]];
        if (u) u = st_[pa_[u]];
      }
      std::swap(u, v);
    }
    return 0;
  }

  void add_blossom(int u, int lca, int v) {
    int b = n_ + 1;
    while (b <= n_x_ && st_[b]) ++b;
    if (b > n_x_) take_new_id();
    lab_[b] = 0;
    s_[b] = 0;
    match_[b] = match_[lca];
    flo_[b].clear();
    flo_[b].push_back(lca);
    for (int x = u, y; x != lca; x = st_[pa_[y]]) {
      flo_[b].push_back(x);
      y = st_[match_[x]];
      flo_[b].push_back(y);
      q_push(y);
    }
    std::reverse(flo_[b].begin() + 1, flo_[b].end());
    for (int x = v, y; x != lca; x = st_[pa_[y]]) {
      flo_[b].push_back(x);
      y = st_[match_[x]];
      flo_[b].push_back(y);
      q_push(y);
    }
    set_st(b, b);
    for (int x = 1; x <= n_x_; ++x) {
      blossom_edge(b, x).w = 0;
      blossom_edge(x, b).w = 0;
    }
    std::vector<int>& b_from = cells(b).flo_from;
    std::fill(b_from.begin() + 1, b_from.end(), 0);
    for (int xs : flo_[b]) {
      for (int x = 1; x <= n_x_; ++x) {
        if (edge(b, x).w == 0 ||
            e_delta(edge(xs, x)) < e_delta(edge(b, x))) {
          blossom_edge(b, x) = edge(xs, x);
          blossom_edge(x, b) = edge(x, xs);
        }
      }
      for (int x = 1; x <= n_; ++x) {
        if (flo_from(xs, x)) b_from[x] = xs;
      }
    }
    set_slack(b);
  }

  void expand_blossom(int b) {
    for (int i : flo_[b]) set_st(i, i);
    const int xr = flo_from(b, edge(b, pa_[b]).u);
    const int pr = get_pr(b, xr);
    for (int i = 0; i < pr; i += 2) {
      const int xs = flo_[b][static_cast<std::size_t>(i)];
      const int xns = flo_[b][static_cast<std::size_t>(i + 1)];
      pa_[xs] = edge(xns, xs).u;
      s_[xs] = 1;
      s_[xns] = 0;
      slack_[xs] = 0;
      set_slack(xns);
      q_push(xns);
    }
    s_[xr] = 1;
    pa_[xr] = pa_[b];
    for (std::size_t i = static_cast<std::size_t>(pr) + 1;
         i < flo_[b].size(); ++i) {
      const int xs = flo_[b][i];
      s_[xs] = -1;
      set_slack(xs);
    }
    st_[b] = 0;
  }

  bool on_found_edge(const Arc& e) {
    const int u = st_[e.u];
    const int v = st_[e.v];
    if (s_[v] == -1) {
      pa_[v] = e.u;
      s_[v] = 1;
      const int nu = st_[match_[v]];
      slack_[v] = 0;
      slack_[nu] = 0;
      s_[nu] = 0;
      q_push(nu);
    } else if (s_[v] == 0) {
      const int lca = get_lca(u, v);
      if (!lca) {
        augment(u, v);
        augment(v, u);
        return true;
      }
      add_blossom(u, lca, v);
    }
    return false;
  }

  bool matching() {
    std::fill(s_.begin() + 1, s_.begin() + n_x_ + 1, -1);
    std::fill(slack_.begin() + 1, slack_.begin() + n_x_ + 1, 0);
    q_.clear();
    for (int x = 1; x <= n_x_; ++x) {
      if (st_[x] == x && !match_[x]) {
        pa_[x] = 0;
        s_[x] = 0;
        q_push(x);
      }
    }
    if (q_.empty()) return false;
    for (;;) {
      while (!q_.empty()) {
        const int u = q_.front();
        q_.pop_front();
        if (s_[st_[u]] == 1) continue;
        for (int v = 1; v <= n_; ++v) {
          const std::int64_t w = weight(u, v);
          if (w > 0 && st_[u] != st_[v]) {
            if (lab_[u] + lab_[v] - w * 2 == 0) {
              if (on_found_edge(Arc{u, v, w})) return true;
            } else {
              update_slack(u, st_[v]);
            }
          }
        }
      }
      std::int64_t d = std::numeric_limits<std::int64_t>::max();
      for (int b = n_ + 1; b <= n_x_; ++b) {
        if (st_[b] == b && s_[b] == 1) d = std::min(d, lab_[b] / 2);
      }
      for (int x = 1; x <= n_x_; ++x) {
        if (st_[x] == x && slack_[x]) {
          if (s_[x] == -1) {
            d = std::min(d, e_delta(edge(slack_[x], x)));
          } else if (s_[x] == 0) {
            d = std::min(d, e_delta(edge(slack_[x], x)) / 2);
          }
        }
      }
      for (int u = 1; u <= n_; ++u) {
        if (s_[st_[u]] == 0) {
          if (lab_[u] <= d) return false;  // dual would hit zero: done
          lab_[u] -= d;
        } else if (s_[st_[u]] == 1) {
          lab_[u] += d;
        }
      }
      for (int b = n_ + 1; b <= n_x_; ++b) {
        if (st_[b] == b) {
          if (s_[b] == 0) {
            lab_[b] += d * 2;
          } else if (s_[b] == 1) {
            lab_[b] -= d * 2;
          }
        }
      }
      q_.clear();
      for (int x = 1; x <= n_x_; ++x) {
        if (st_[x] == x && slack_[x] && st_[slack_[x]] != x &&
            e_delta(edge(slack_[x], x)) == 0) {
          if (on_found_edge(edge(slack_[x], x))) return true;
        }
      }
      for (int b = n_ + 1; b <= n_x_; ++b) {
        if (st_[b] == b && s_[b] == 1 && lab_[b] == 0) expand_blossom(b);
      }
    }
  }

  int n_;
  int n_x_;
  int size_;
  std::vector<std::int64_t> w_;  // (n+1)^2 weights between original vertices
  std::vector<BlossomCells> blossoms_;  // ids n+1 .. n_x_
  std::vector<std::int64_t> lab_;
  std::vector<int> match_, slack_, st_, pa_;
  std::vector<int> s_, vis_;
  std::vector<std::vector<int>> flo_;
  std::deque<int> q_;
  int timestamp_ = 0;
};

}  // namespace

Matching max_weight_matching_integral(const Graph& g,
                                      const std::vector<std::int64_t>& w) {
  const int n = static_cast<int>(g.num_vertices());
  if (n == 0) return Matching{};
  WeightedBlossom solver(n);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (w[e] <= 0) continue;  // nonpositive edges never help
    const Edge& edge = g.edge(e);
    solver.set_weight(static_cast<int>(edge.u) + 1,
                      static_cast<int>(edge.v) + 1, w[e]);
  }
  solver.solve();

  // Extract edge ids: for each mated pair, the first edge in id order of
  // maximum integer weight, keyed by the pair's lower endpoint.
  constexpr EdgeId kNone = ~EdgeId{0};
  std::vector<EdgeId> best(g.num_vertices(), kNone);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    const Vertex lo = std::min(edge.u, edge.v);
    const Vertex hi = std::max(edge.u, edge.v);
    if (solver.mate(static_cast<int>(lo) + 1) != static_cast<int>(hi) + 1) {
      continue;
    }
    if (best[lo] == kNone || w[e] > w[best[lo]]) best[lo] = e;
  }
  Matching m;
  std::vector<char> emitted(g.num_vertices(), 0);
  for (int u = 1; u <= n; ++u) {
    const int v = solver.mate(u);
    if (v == 0 || v < u) continue;
    const auto gu = static_cast<Vertex>(u - 1);
    const auto gv = static_cast<Vertex>(v - 1);
    if (emitted[gu] || emitted[gv]) continue;
    if (best[gu] != kNone) {
      m.add(best[gu]);
      emitted[gu] = emitted[gv] = 1;
    }
  }
  return m;
}

Matching max_weight_matching(const Graph& g) {
  std::vector<std::int64_t> w(g.num_edges());
  bool integral = true;
  double max_w = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const double x = g.edge(e).w;
    if (x < 0) {
      throw std::invalid_argument("max_weight_matching: negative weight");
    }
    max_w = std::max(max_w, x);
    if (std::floor(x) != x) integral = false;
  }
  if (integral && max_w < 1e15) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      w[e] = static_cast<std::int64_t>(g.edge(e).w);
    }
  } else {
    // Scale so the max weight is ~2^40; rounding error per edge is
    // <= max_w * 2^-40, negligible against the approximation tolerances the
    // callers verify.
    const double scale = max_w > 0 ? std::ldexp(1.0, 40) / max_w : 1.0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      w[e] = static_cast<std::int64_t>(std::llround(g.edge(e).w * scale));
    }
  }
  return max_weight_matching_integral(g, w);
}

}  // namespace dp
