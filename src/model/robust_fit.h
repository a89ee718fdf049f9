// Fitting the correlation line under error metrics other than sse. §4
// notes that "there is a vast literature on linear regression that can be
// of use for optimizing other error metrics such as relative or absolute
// error"; this module provides those fits over a cache line's pairs:
//
//   * sse       — ordinary least squares (Lemma 1);
//   * absolute  — least absolute deviations via iteratively reweighted
//                 least squares (IRLS with weights 1/|residual|);
//   * relative  — IRLS for the weighted-LAD objective sum |r_k|/max(s,|y_k|)
//                 (weights 1/(max(s,|y_k|) * |r_k|)).
//
// Both IRLS fits start from the least-squares line and keep the best
// iterate under the target metric, so they never do worse than plain LS
// on the cached pairs (asserted by property tests).
#ifndef SNAPQ_MODEL_ROBUST_FIT_H_
#define SNAPQ_MODEL_ROBUST_FIT_H_

#include <span>
#include <vector>

#include "model/cache_line.h"
#include "model/error_metric.h"
#include "model/linear_model.h"

namespace snapq {

/// Weighted least squares over (x, y, w) triples; falls back to the
/// weighted-mean constant model for degenerate predictors.
LinearModel FitWeighted(std::span<const ObservationPair> pairs,
                        const std::vector<double>& weights);

/// The metric-optimal line over `pairs` (see file comment). For the sse
/// metric this equals RegressionStats::Fit().
LinearModel FitForMetric(std::span<const ObservationPair> pairs,
                         const ErrorMetric& metric);

/// Total error of `model` over `pairs` under `metric` (the objective
/// FitForMetric approximately minimizes).
double TotalError(std::span<const ObservationPair> pairs,
                  const ErrorMetric& metric, const LinearModel& model);

}  // namespace snapq

#endif  // SNAPQ_MODEL_ROBUST_FIT_H_
