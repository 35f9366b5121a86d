package obs

import "math"

// Percentile returns the p-quantile (0 < p <= 1) of sorted ascending
// values by the nearest-rank definition: the ceil(p*n)-th smallest
// value. Unlike a floored index, p=0.99 over a small sample returns a
// value at least as large as 99% of observations. Returns 0 for an
// empty slice.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}
