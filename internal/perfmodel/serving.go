package perfmodel

// Serving-side extensions of the performance model: queue-drain and
// deadline-risk estimates the elastic autoscaler steers by. They reuse
// the Equation 1 predictor, so scaling decisions are driven by the same
// analytic model that is validated against the simulator elsewhere —
// not by a second, ad-hoc cost function.

// DrainTime predicts how long a backlog of `depth` queued TSQR jobs of
// one m×n shape takes to drain over `partitions` equal partitions, each
// priced by this predictor (which should describe ONE partition). The
// estimate is the standard multi-server drain bound: ceil(depth /
// partitions) consecutive services.
func (p Predictor) DrainTime(depth, partitions, m, n int) float64 {
	if depth <= 0 || partitions <= 0 {
		return 0
	}
	rounds := (depth + partitions - 1) / partitions
	return float64(rounds) * p.TSQRTime(m, n, false)
}

// DeadlineRisk reports whether a job with `remaining` seconds of
// deadline budget is at risk behind `depth` queued jobs of the same
// shape on one partition: the predicted wait (depth services) plus its
// own service must fit the budget.
func (p Predictor) DeadlineRisk(remaining float64, depth, m, n int) bool {
	if remaining <= 0 {
		return true
	}
	solo := p.TSQRTime(m, n, false)
	return float64(depth)*solo+solo > remaining
}
