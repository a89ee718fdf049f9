#include "model/robust_fit.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"

namespace snapq {
namespace {

constexpr int kIrlsIterations = 25;
constexpr double kResidualFloor = 1e-9;

}  // namespace

LinearModel FitWeighted(std::span<const ObservationPair> pairs,
                        const std::vector<double>& weights) {
  SNAPQ_CHECK_EQ(pairs.size(), weights.size());
  double sw = 0.0, swx = 0.0, swy = 0.0, swxx = 0.0, swxy = 0.0;
  for (size_t k = 0; k < pairs.size(); ++k) {
    const double w = weights[k];
    sw += w;
    swx += w * pairs[k].x;
    swy += w * pairs[k].y;
    swxx += w * pairs[k].x * pairs[k].x;
    swxy += w * pairs[k].x * pairs[k].y;
  }
  if (sw <= 0.0) return LinearModel{0.0, 0.0};
  const double denom = sw * swxx - swx * swx;
  const double scale = sw * swxx + swx * swx;
  if (denom <= 1e-12 * std::max(1.0, scale)) {
    return LinearModel{0.0, swy / sw};  // constant predictor
  }
  const double a = (sw * swxy - swx * swy) / denom;
  const double b = (swy - a * swx) / sw;
  return LinearModel{a, b};
}

LinearModel FitForMetric(std::span<const ObservationPair> pairs,
                         const ErrorMetric& metric) {
  if (pairs.empty()) return LinearModel{0.0, 0.0};
  switch (metric.kind()) {
    case ErrorMetricKind::kSumSquared: {
      RegressionStats stats;
      for (const ObservationPair& p : pairs) stats.Add(p.x, p.y);
      return stats.Fit();
    }
    case ErrorMetricKind::kRelative:
    case ErrorMetricKind::kAbsolute: {
      // IRLS for (scaled) least absolute deviations: both metrics are
      // linear in the residual, differing only in the per-point scale
      // s_k = 1 (absolute) or s_k = max(s, |y_k|) (relative). Reweight by
      // 1/(s_k * |residual|), refit, and keep the best iterate; starting
      // from the LS line guarantees the result never loses to it.
      std::vector<double> scale(pairs.size(), 1.0);
      if (metric.kind() == ErrorMetricKind::kRelative) {
        for (size_t k = 0; k < pairs.size(); ++k) {
          scale[k] = std::max(metric.sanity_bound(), std::abs(pairs[k].y));
        }
      }
      RegressionStats stats;
      for (const ObservationPair& p : pairs) stats.Add(p.x, p.y);
      LinearModel model = stats.Fit();
      std::vector<double> weights(pairs.size(), 1.0);
      double best_err = TotalError(pairs, metric, model);
      LinearModel best = model;
      for (int it = 0; it < kIrlsIterations; ++it) {
        for (size_t k = 0; k < pairs.size(); ++k) {
          const double r =
              std::abs(pairs[k].y - model.Estimate(pairs[k].x));
          weights[k] = 1.0 / (scale[k] * std::max(kResidualFloor, r));
        }
        model = FitWeighted(pairs, weights);
        const double err = TotalError(pairs, metric, model);
        if (err < best_err) {
          best_err = err;
          best = model;
        }
      }
      return best;
    }
  }
  return LinearModel{0.0, 0.0};
}

double TotalError(std::span<const ObservationPair> pairs,
                  const ErrorMetric& metric, const LinearModel& model) {
  double total = 0.0;
  for (const ObservationPair& p : pairs) {
    total += metric.Distance(p.y, model.Estimate(p.x));
  }
  return total;
}

}  // namespace snapq
