package sim

// ErlangB returns the Erlang-B blocking probability for offered load
// rho = λ/μ Erlangs on c servers, computed by the standard stable
// recurrence B(0) = 1, B(k) = ρ·B(k-1) / (k + ρ·B(k-1)).
//
// It is the analytic ground truth the Figure 6 simulator is validated
// against in the degenerate case (one class, unit bandwidth, no handoffs,
// no reservation), where the two-cell system decouples into independent
// M/M/c/c queues.
func ErlangB(rho float64, c int) float64 {
	if c <= 0 {
		return 1
	}
	if rho <= 0 {
		return 0
	}
	b := 1.0
	for k := 1; k <= c; k++ {
		b = rho * b / (float64(k) + float64(rho*b))
	}
	return b
}
