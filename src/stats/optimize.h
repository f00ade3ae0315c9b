// Derivative-free minimization (Nelder–Mead simplex).
//
// The ARMA conditional-sum-of-squares objective is smooth but its gradient
// is awkward to derive; Nelder–Mead is robust for the low-dimensional
// (p+q+1 <= ~6) problems RoVista fits per vVP time series.
//
// The minimizer is a template over the objective so that a cheap
// objective (a CSS pass over ~10 points, evaluated ~70 times per fit and
// three fits per experiment) inlines into the simplex loop instead of
// paying an indirect call each time.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace rovista::stats {

struct NelderMeadOptions {
  int max_iterations = 500;
  double tolerance = 1e-9;     // convergence: spread of simplex f-values
  double initial_step = 0.25;  // simplex edge relative to each coordinate
};

struct NelderMeadResult {
  std::vector<double> x;
  double fmin = 0.0;
  int iterations = 0;
  bool converged = false;
};

/// Minimize `f`, any callable `double(const std::vector<double>&)`,
/// starting from `x0`.
template <class F>
NelderMeadResult nelder_mead(F&& f, std::vector<double> x0,
                             const NelderMeadOptions& opt = {}) {
  const std::size_t n = x0.size();
  NelderMeadResult result;
  if (n == 0) {
    result.x = std::move(x0);
    result.fmin = f(result.x);
    result.converged = true;
    return result;
  }

  // Build initial simplex: x0 plus a perturbation along each axis.
  std::vector<std::vector<double>> simplex(n + 1, x0);
  for (std::size_t i = 0; i < n; ++i) {
    const double step =
        x0[i] != 0.0 ? opt.initial_step * std::abs(x0[i]) : opt.initial_step;
    simplex[i + 1][i] += step;
  }
  std::vector<double> fv(n + 1);
  for (std::size_t i = 0; i <= n; ++i) fv[i] = f(simplex[i]);

  constexpr double kAlpha = 1.0;  // reflection
  constexpr double kGamma = 2.0;  // expansion
  constexpr double kRho = 0.5;    // contraction
  constexpr double kSigma = 0.5;  // shrink

  // Work buffers live across iterations: the objective is cheap, so
  // per-iteration allocation would dominate. An accepted trial point is
  // swapped into the simplex, and its old worst vertex becomes the next
  // trial buffer.
  std::vector<std::size_t> idx(n + 1);
  std::vector<std::vector<double>> sorted(n + 1);
  std::vector<double> sorted_fv(n + 1);
  std::vector<double> centroid(n);
  std::vector<double> xr(n);
  std::vector<double> xe(n);
  std::vector<double> xc(n);
  const auto blend = [&](double t, std::vector<double>& p) {
    for (std::size_t j = 0; j < n; ++j) {
      p[j] = centroid[j] + t * (centroid[j] - simplex[n][j]);
    }
  };

  int iter = 0;
  for (; iter < opt.max_iterations; ++iter) {
    // Order vertices by objective value: a stable insertion sort, which
    // is what std::sort does on so few elements.
    for (std::size_t i = 0; i <= n; ++i) {
      std::size_t j = i;
      for (; j > 0 && fv[i] < fv[idx[j - 1]]; --j) idx[j] = idx[j - 1];
      idx[j] = i;
    }
    for (std::size_t i = 0; i <= n; ++i) {
      sorted[i].swap(simplex[idx[i]]);
      sorted_fv[i] = fv[idx[i]];
    }
    simplex.swap(sorted);
    fv.swap(sorted_fv);

    if (std::abs(fv[n] - fv[0]) <
        opt.tolerance * (std::abs(fv[0]) + opt.tolerance)) {
      result.converged = true;
      break;
    }

    // Centroid of the n best vertices.
    std::fill(centroid.begin(), centroid.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) centroid[j] += simplex[i][j];
    }
    for (double& c : centroid) c /= static_cast<double>(n);

    blend(kAlpha, xr);
    const double fr = f(xr);
    if (fr < fv[0]) {
      blend(kGamma, xe);
      const double fe = f(xe);
      if (fe < fr) {
        simplex[n].swap(xe);
        fv[n] = fe;
      } else {
        simplex[n].swap(xr);
        fv[n] = fr;
      }
    } else if (fr < fv[n - 1]) {
      simplex[n].swap(xr);
      fv[n] = fr;
    } else {
      blend(fr < fv[n] ? kRho : -kRho, xc);
      const double fc = f(xc);
      if (fc < std::min(fr, fv[n])) {
        simplex[n].swap(xc);
        fv[n] = fc;
      } else {
        // Shrink toward the best vertex.
        for (std::size_t i = 1; i <= n; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            simplex[i][j] =
                simplex[0][j] + kSigma * (simplex[i][j] - simplex[0][j]);
          }
          fv[i] = f(simplex[i]);
        }
      }
    }
  }

  std::size_t best = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    if (fv[i] < fv[best]) best = i;
  }
  result.x = std::move(simplex[best]);
  result.fmin = fv[best];
  result.iterations = iter;
  return result;
}

}  // namespace rovista::stats
