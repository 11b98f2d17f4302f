package serve

import (
	"fmt"
	"sort"
	"time"
)

// LatencySummary reduces a batch of request latencies to the quantiles the
// load pipeline reports. It lives here (rather than in cmd/loadgen) so the
// reduction is unit-testable: the quantile convention — nearest-rank on the
// sorted sample, p50 at ceil(0.50·n), p99 at ceil(0.99·n) — must not drift
// between the CI gate and the baseline it compares against.
type LatencySummary struct {
	N   int           // samples
	P50 time.Duration // nearest-rank median
	P99 time.Duration // nearest-rank 99th percentile
	Max time.Duration
}

// Summarize computes the summary over one batch. The input is not modified.
func Summarize(samples []time.Duration) (LatencySummary, error) {
	if len(samples) == 0 {
		return LatencySummary{}, fmt.Errorf("serve: no latency samples")
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := len(sorted)
	return LatencySummary{
		N:   n,
		P50: sorted[rank(0.50, n)],
		P99: sorted[rank(0.99, n)],
		Max: sorted[n-1],
	}, nil
}

// rank maps a quantile to its nearest-rank index: ceil(q·n) clamped to the
// sample, zero-based.
func rank(q float64, n int) int {
	r := int(q*float64(n) + 0.9999999)
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r - 1
}
