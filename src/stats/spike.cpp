#include "stats/spike.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "stats/adf.h"
#include "stats/arima.h"
#include "stats/diagnostics.h"
#include "stats/distributions.h"
#include "stats/timeseries.h"

namespace rovista::stats {

double spike_false_negative_rate(double s, double sigma,
                                 double alpha) noexcept {
  if (sigma <= 0.0) return s > 0.0 ? 0.0 : 1.0;
  const double t_alpha = upper_tail_critical(alpha);
  return normal_cdf(t_alpha - s / sigma);
}

double spike_expected_fn_rate(double mu_s, double sd_s, double sigma,
                              double alpha) noexcept {
  if (sd_s <= 0.0) return spike_false_negative_rate(mu_s, sigma, alpha);
  // Discretize the N(mu_s, sd_s^2) prior over ±4 sd with 33 nodes. The
  // nodes, their weights and the critical value depend on nothing that
  // varies per experiment, so they are computed once, not per node.
  constexpr int kNodes = 33;
  static const auto nodes = [] {
    std::array<std::pair<double, double>, kNodes> n{};  // (u, weight)
    for (int i = 0; i < kNodes; ++i) {
      const double u = -4.0 + 8.0 * static_cast<double>(i) /
                                  static_cast<double>(kNodes - 1);
      n[static_cast<std::size_t>(i)] = {u, normal_pdf(u)};
    }
    return n;
  }();
  const double t_alpha = upper_tail_critical(alpha);
  double acc = 0.0;
  double weight = 0.0;
  for (const auto& [u, w] : nodes) {
    // spike_false_negative_rate(mu_s + sd_s * u, sigma, alpha).
    const double s = mu_s + sd_s * u;
    acc += w * (sigma <= 0.0 ? (s > 0.0 ? 0.0 : 1.0)
                             : normal_cdf(t_alpha - s / sigma));
    weight += w;
  }
  return acc / weight;
}

std::optional<SpikeAnalysis> SpikeDetector::analyze(
    const std::vector<double>& background,
    const std::vector<double>& observed) const {
  if (background.size() < 6 || observed.empty()) return std::nullopt;

  SpikeAnalysis out;

  // Model selection per Appendix A: ADF, then ARMA or ARIMA. Below ~12
  // observations the ADF regression has essentially no power and
  // over-differencing does real damage, so short series default to the
  // stationary (ARMA) path.
  if (background.size() >= 12) {
    const auto adf = adf_test(background, -1, config_.alpha);
    out.nonstationary = adf.has_value() && !adf->reject_unit_root;
  }

  ArmaForecast fc;
  double dof = 1.0;
  if (out.nonstationary) {
    auto model = fit_arima_auto(background, config_.max_p, config_.max_q,
                                config_.alpha);
    if (!model) return std::nullopt;
    fc = forecast_arima(*model, background, observed.size());
    dof = model->arma.dof;
    if (config_.check_residual_whiteness) {
      const auto lb = residual_whiteness(
          model->arma, difference(background, model->d),
          /*lags=*/4, config_.alpha);
      if (lb.has_value()) out.residuals_white = !lb->reject_whiteness;
    }
  } else {
    auto model = fit_arma_auto(background, config_.max_p, config_.max_q);
    if (!model) return std::nullopt;
    fc = forecast_arma(*model, background, observed.size());
    dof = model->dof;
    if (config_.check_residual_whiteness) {
      const auto lb =
          residual_whiteness(*model, background, /*lags=*/4, config_.alpha);
      if (lb.has_value()) out.residuals_white = !lb->reject_whiteness;
    }
  }

  out.forecast = fc.mean;
  out.forecast_sd = fc.stddev;

  // Thresholds: the planned index (the burst interval, whose timing is
  // known a priori) is a single comparison at level α; every other
  // index belongs to an unplanned scan and gets a Bonferroni-corrected
  // level α/(m-1), so a stray exceedance cannot masquerade as the RTO
  // echo. Student-t quantiles account for the variance being estimated
  // from ~10 points.
  const std::size_t m = observed.size();
  const double scan_alpha =
      m > 1 ? config_.alpha / static_cast<double>(m - 1) : config_.alpha;
  const double t_planned = upper_tail_critical_t(config_.alpha, dof);
  const double t_scan = upper_tail_critical_t(scan_alpha, dof);
  out.z_scores.reserve(m);
  out.spike_at.reserve(m);
  for (std::size_t k = 0; k < m; ++k) {
    const double sigma = std::max(fc.stddev[k], 1e-9);
    const double z = (observed[k] - fc.mean[k]) / sigma;
    out.z_scores.push_back(z);
    const bool planned =
        config_.planned_index >= 0 &&
        k == static_cast<std::size_t>(config_.planned_index);
    const bool spike = z > (planned ? t_planned : t_scan);
    out.spike_at.push_back(spike);
    if (spike) ++out.spike_count;
  }

  // Appendix A screening: a vVP is usable only if a 10-packet spike is
  // resolvable against its background noise at the chosen level. The
  // binding case is the first observation (the burst rides the longest
  // sampling gap); with Poisson background this makes the paper's
  // "≤ 10 pkt/s" vVP cutoff fall out of α = 0.05.
  const double sigma0 = std::max(fc.stddev.front(), 1e-9);
  out.estimated_fn_rate = spike_expected_fn_rate(
      config_.spike_packets, config_.spike_stddev, sigma0, config_.alpha);
  out.usable = out.estimated_fn_rate <= 5.0 * config_.alpha &&
               out.residuals_white;
  return out;
}

}  // namespace rovista::stats
