#include "util/math.hpp"

namespace dp {

double loglog_slope(const std::vector<double>& x,
                    const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) return 0.0;
  const std::size_t n = x.size();
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double lx = std::log(x[i]);
    const double ly = std::log(y[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  const double denom = n * sxx - sx * sx;
  if (std::fabs(denom) < 1e-12) return 0.0;
  return (n * sxy - sx * sy) / denom;
}

}  // namespace dp
