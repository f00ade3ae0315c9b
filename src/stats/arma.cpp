#include "stats/arma.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/optimize.h"
#include "stats/timeseries.h"

namespace rovista::stats {

namespace {

constexpr double kBigPenalty = 1e18;

// Conditional sum of squares for parameters packed as
// [c, phi_1..phi_p, theta_1..theta_q]. `e` is the innovations buffer,
// x.size() long and zero on entry to the first call; it need not be
// cleared between calls, because every entry past `start` is written
// before it is read and the ones up to `start` are never written. A sum
// of non-negative terms that is ever infinite or NaN stays so, so it is
// checked once, at the end.
double css_objective(const std::vector<double>& params, int p, int q,
                     const std::vector<double>& x, std::vector<double>& e) {
  const int start = std::max(p, 1) - 1;  // first index with full AR history
  const double c = params[0];

  // Soft stationarity / invertibility guard: reject wild coefficients.
  double phi_abs = 0.0;
  for (int i = 0; i < p; ++i) phi_abs += std::abs(params[1 + i]);
  double theta_abs = 0.0;
  for (int j = 0; j < q; ++j) theta_abs += std::abs(params[1 + p + j]);
  if (phi_abs > 2.0 || theta_abs > 2.0) return kBigPenalty;

  double css = 0.0;
  for (std::size_t t = static_cast<std::size_t>(start) + 1; t < x.size();
       ++t) {
    double pred = c;
    for (int i = 1; i <= p; ++i) {
      pred += params[static_cast<std::size_t>(i)] *
              x[t - static_cast<std::size_t>(i)];
    }
    for (int j = 1; j <= q; ++j) {
      if (t >= static_cast<std::size_t>(j)) {
        pred += params[static_cast<std::size_t>(p + j)] *
                e[t - static_cast<std::size_t>(j)];
      }
    }
    e[t] = x[t] - pred;
    css += e[t] * e[t];
  }
  return std::isfinite(css) ? css : kBigPenalty;
}

// Yule–Walker AR(p) estimate used to seed the optimizer.
std::vector<double> yule_walker(const std::vector<double>& x, int p) {
  if (p == 0) return {};
  // Durbin–Levinson: the order-p PACF recursion returns phi_{p,1..p}.
  const std::vector<double> rho = acf(x, static_cast<std::size_t>(p));
  std::vector<double> phi_prev(static_cast<std::size_t>(p) + 1, 0.0);
  std::vector<double> phi_cur(static_cast<std::size_t>(p) + 1, 0.0);
  phi_prev[1] = rho[1];
  double v = 1.0 - rho[1] * rho[1];
  for (int k = 2; k <= p; ++k) {
    double num = rho[static_cast<std::size_t>(k)];
    for (int j = 1; j < k; ++j) {
      num -= phi_prev[static_cast<std::size_t>(j)] *
             rho[static_cast<std::size_t>(k - j)];
    }
    const double phi_kk = (std::abs(v) > 1e-12) ? num / v : 0.0;
    for (int j = 1; j < k; ++j) {
      phi_cur[static_cast<std::size_t>(j)] =
          phi_prev[static_cast<std::size_t>(j)] -
          phi_kk * phi_prev[static_cast<std::size_t>(k - j)];
    }
    phi_cur[static_cast<std::size_t>(k)] = phi_kk;
    v *= (1.0 - phi_kk * phi_kk);
    phi_prev = phi_cur;
  }
  std::vector<double> phi(static_cast<std::size_t>(p));
  for (int i = 1; i <= p; ++i) {
    phi[static_cast<std::size_t>(i - 1)] = phi_prev[static_cast<std::size_t>(i)];
  }
  // Clamp to a comfortably stationary region.
  for (double& f : phi) f = std::clamp(f, -0.95, 0.95);
  return phi;
}

}  // namespace

double ArmaModel::process_mean() const noexcept {
  double denom = 1.0;
  for (double f : phi) denom -= f;
  return std::abs(denom) > 1e-9 ? c / denom : c;
}

std::vector<double> ArmaModel::innovations(const std::vector<double>& x) const {
  std::vector<double> e(x.size(), 0.0);
  const std::size_t start = static_cast<std::size_t>(std::max(p, 1));
  for (std::size_t t = start; t < x.size(); ++t) {
    double pred = c;
    for (int i = 1; i <= p; ++i) {
      pred += phi[static_cast<std::size_t>(i - 1)] *
              x[t - static_cast<std::size_t>(i)];
    }
    for (int j = 1; j <= q; ++j) {
      if (t >= static_cast<std::size_t>(j)) {
        pred += theta[static_cast<std::size_t>(j - 1)] *
                e[t - static_cast<std::size_t>(j)];
      }
    }
    e[t] = x[t] - pred;
  }
  return e;
}

std::vector<double> ArmaModel::psi_weights(std::size_t h) const {
  // psi_0 = 1; psi_j = theta_j + sum_{i=1..min(j,p)} phi_i psi_{j-i}.
  std::vector<double> psi(h, 0.0);
  if (h == 0) return psi;
  psi[0] = 1.0;
  for (std::size_t j = 1; j < h; ++j) {
    double v = (j <= static_cast<std::size_t>(q))
                   ? theta[j - 1]
                   : 0.0;
    for (int i = 1; i <= p && static_cast<std::size_t>(i) <= j; ++i) {
      v += phi[static_cast<std::size_t>(i - 1)] *
           psi[j - static_cast<std::size_t>(i)];
    }
    psi[j] = v;
  }
  return psi;
}

std::optional<ArmaModel> fit_arma(const std::vector<double>& x, int p, int q) {
  const std::size_t min_n = static_cast<std::size_t>(p + q + 3);
  if (p < 0 || q < 0 || x.size() < min_n) return std::nullopt;

  const double m = mean(x);
  std::vector<double> params(static_cast<std::size_t>(1 + p + q), 0.0);
  const std::vector<double> phi0 = yule_walker(x, p);
  double phi_sum = 0.0;
  for (int i = 0; i < p; ++i) {
    params[static_cast<std::size_t>(1 + i)] = phi0[static_cast<std::size_t>(i)];
    phi_sum += phi0[static_cast<std::size_t>(i)];
  }
  params[0] = m * (1.0 - phi_sum);

  NelderMeadOptions opt;
  opt.max_iterations = 400;
  opt.initial_step = 0.2;
  std::vector<double> innovations(x.size(), 0.0);
  const NelderMeadResult nm = nelder_mead(
      [&](const std::vector<double>& v) {
        return css_objective(v, p, q, x, innovations);
      },
      params, opt);
  if (nm.fmin >= kBigPenalty) return std::nullopt;

  ArmaModel model;
  model.p = p;
  model.q = q;
  model.c = nm.x[0];
  model.phi.assign(nm.x.begin() + 1, nm.x.begin() + 1 + p);
  model.theta.assign(nm.x.begin() + 1 + p, nm.x.end());
  model.css = nm.fmin;

  // Degrees of freedom: conditioning points and estimated parameters
  // both come out — with ~10 observations the parameter count matters.
  const std::size_t consumed =
      static_cast<std::size_t>(std::max(p, 1)) +
      static_cast<std::size_t>(p + q + 1);
  const std::size_t eff =
      x.size() > consumed ? x.size() - consumed : 1;
  model.sigma2 = model.css / static_cast<double>(eff);
  model.dof = static_cast<double>(eff);
  if (model.sigma2 <= 0.0) model.sigma2 = 1e-9;
  // AICc: the small-sample correction matters — RoVista fits on ~10
  // background points, where plain AIC badly over-selects.
  const double n = static_cast<double>(eff);
  const double k = static_cast<double>(p + q + 1);
  model.aic = n * std::log(model.sigma2) + 2.0 * k;
  if (n - k - 1.0 > 0.0) {
    model.aic += 2.0 * k * (k + 1.0) / (n - k - 1.0);
  } else {
    model.aic += 1e6;  // saturated model: effectively reject
  }
  return model;
}

std::optional<ArmaModel> fit_arma_auto(const std::vector<double>& x, int max_p,
                                       int max_q) {
  std::optional<ArmaModel> best;
  for (int p = 0; p <= max_p; ++p) {
    for (int q = 0; q <= max_q; ++q) {
      // Hard order cap: require >= 4 observations per parameter, or the
      // CSS fit memorizes the background and the forecast variance
      // collapses (everything then looks like a spike).
      if (x.size() < static_cast<std::size_t>(4 * (p + q + 1))) continue;
      const auto m = fit_arma(x, p, q);
      if (m && (!best || m->aic < best->aic)) best = m;
    }
  }
  return best;
}

ArmaForecast forecast_arma(const ArmaModel& model,
                           const std::vector<double>& x, std::size_t h) {
  ArmaForecast fc;
  fc.mean.reserve(h);
  fc.stddev.reserve(h);

  const std::vector<double> e = model.innovations(x);

  // Extended series for the recursion: known history then forecasts.
  std::vector<double> ext = x;
  std::vector<double> ext_e = e;
  for (std::size_t step = 1; step <= h; ++step) {
    double pred = model.c;
    for (int i = 1; i <= model.p; ++i) {
      const std::size_t idx = ext.size() - static_cast<std::size_t>(i);
      pred += model.phi[static_cast<std::size_t>(i - 1)] * ext[idx];
    }
    for (int j = 1; j <= model.q; ++j) {
      if (ext_e.size() >= static_cast<std::size_t>(j)) {
        pred += model.theta[static_cast<std::size_t>(j - 1)] *
                ext_e[ext_e.size() - static_cast<std::size_t>(j)];
      }
    }
    ext.push_back(pred);
    ext_e.push_back(0.0);  // future innovations have zero expectation
    fc.mean.push_back(pred);
  }

  const std::vector<double> psi = model.psi_weights(h);
  double acc = 0.0;
  for (std::size_t step = 0; step < h; ++step) {
    acc += psi[step] * psi[step];
    fc.stddev.push_back(std::sqrt(model.sigma2 * acc));
  }
  return fc;
}

}  // namespace rovista::stats
