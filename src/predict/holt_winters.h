#pragma once
// Non-seasonal Holt-Winters (double exponential smoothing) throughput
// predictor, as used by the paper's kernel scheduler. Tracks a level and a
// trend so it reacts to sustained throughput drops faster than EWMA while
// smoothing over one-slot noise (He et al., SIGCOMM 2005).

#include "predict/estimator.h"

namespace mpdash {

struct HoltWintersParams {
  // Level and trend smoothing factors; He et al.'s recommended setting for
  // TCP throughput series.
  double alpha = 0.5;
  double beta = 0.2;
};

class HoltWinters final : public ThroughputEstimator {
 public:
  explicit HoltWinters(HoltWintersParams params = {});

  void add_sample(DataRate sample) override;
  DataRate predict() const override;
  std::size_t sample_count() const override { return n_; }
  void reset() override;

  double trend_bps() const { return trend_; }

 private:
  HoltWintersParams params_;
  std::size_t n_ = 0;
  double level_ = 0.0;
  double trend_ = 0.0;
  double prev_sample_ = 0.0;
};

}  // namespace mpdash
