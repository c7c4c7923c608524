package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the median of xs (the mean of the middle pair for an
// even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tail is a latency tail: the value, the percentile it was taken at (0
// when the sample was too small for any percentile and the value is the
// maximum), and the sample count.
type tail struct {
	value      float64
	percentile float64
	samples    int
}

func (t tail) String() string {
	if t.percentile == 0 {
		return fmt.Sprintf("max of %d samples (fewer than 11, so no percentile has ten beyond it)", t.samples)
	}
	return fmt.Sprintf("p%.4g of %d samples", t.percentile, t.samples)
}

// tailOf returns the highest ladder percentile with at least ten samples
// beyond it, as the nearest-rank value. Fixed ladder steps keep the
// reported percentile from drifting with small changes in the sample
// count. Below 20 samples no step qualifies: with 11 to 19 samples the
// eleventh-largest value is returned at its own percentile, and with
// fewer than 11 the maximum, labelled as such.
func tailOf(xs []float64) tail {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return tail{value: math.NaN()}
	}
	for _, p := range tailLadder {
		rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
		if n-rank >= 10 {
			return tail{value: s[rank-1], percentile: p, samples: n}
		}
	}
	if n >= 11 {
		return tail{value: s[n-11], percentile: 100 * float64(n-10) / float64(n), samples: n}
	}
	return tail{value: s[n-1], samples: n}
}

// rssPeak is the resident set the process stayed at or under for 95% of
// the sampled time (nearest rank): a sustained peak, which a short GC
// overshoot does not move.
func rssPeak(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[int(math.Ceil(0.95*float64(len(s))))-1]
}
