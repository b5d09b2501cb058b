package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the tail rule: a percentile is reported only when at
// least this many ops lie beyond it, so the tail is a property of many
// ops rather than of a handful.
const minBeyond = 10

// tail returns the q-quantile (nearest rank) of vals, and an error
// instead when fewer than minBeyond values lie above its rank.
func tail(vals []float64, q float64) (float64, error) {
	n := len(vals)
	rank := int(math.Ceil(q * float64(n)))
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g over %d ops leaves %d beyond it (need %d)",
			q*100, n, beyond, minBeyond)
	}
	return quantile(vals, q), nil
}

// quantile returns the nearest-rank q-quantile of vals (0 for none),
// without the tail rule: for diagnostics such as generator lateness.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(vals))))
	if rank < 1 {
		rank = 1
	}
	return sorted(vals)[rank-1]
}

// median returns the middle value (mean of the two middle values for
// an even count); 0 for no values.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := sorted(vals)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// ratio returns num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
