package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailLadder is the set of percentiles the tail rule chooses from. It
// stops at p95: over the 1792 leases of a funarc-fleet run, p99 followed
// the host's steal time (ten-run spread 0.19-0.34, against 0.05 for p95).
var tailLadder = []float64{50, 75, 90, 95}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailPercentile picks the highest percentile of tailLadder that has at
// least minBeyond of n samples beyond it. ok is false when even the
// median has fewer than minBeyond samples beyond it.
func tailPercentile(n int) (p float64, ok bool) {
	for i := len(tailLadder) - 1; i >= 0; i-- {
		p := tailLadder[i]
		// The tolerance absorbs rounding in 100-p.
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// tail applies the tail rule to xs: it returns the chosen percentile,
// its value and a description naming the sample count.
func tail(xs []float64) (value float64, desc string) {
	p, ok := tailPercentile(len(xs))
	if !ok {
		return median(xs), fmt.Sprintf("p50 over %d samples (fewer than %d beyond any percentile)", len(xs), minBeyond)
	}
	return quantile(xs, p/100), fmt.Sprintf("p%g over %d samples", p, len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
