package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a quantile before it is
// reported: p99 needs at least 1000 samples, p50 at least 20.
const minTail = 10

// Quantile returns the q-quantile (0 < q < 1) of values by linear
// interpolation between closest ranks, and whether at least minTail
// samples lie beyond it. values need not be sorted; it is not modified.
func Quantile(values []float64, q float64) (float64, bool) {
	n := len(values)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return sortedQuantile(s, q), float64(n)*(1-q) >= minTail
}

func sortedQuantile(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= len(s) {
		hi = len(s) - 1
	}
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

// Median is the 0.5-quantile without the tail-count requirement; it is
// used for the small per-run repetition counts (set-ups, rebuilds).
func Median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return sortedQuantile(s, 0.5)
}

// Mean is the arithmetic mean, 0 for no values.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// windowP99 is the median of the p99s of consecutive sub-windows of
// samples (in arrival order), each large enough to put minTail samples
// beyond its p99, at most maxWindows of them. A stall confined to one
// sub-window moves the result less than a pooled p99. ok is false when
// there are too few samples for a single window.
func windowP99(samples []float64) (p99 float64, windows int, ok bool) {
	const perWindow = 100 * minTail
	const maxWindows = 8
	windows = len(samples) / perWindow
	if windows > maxWindows {
		windows = maxWindows
	}
	if windows == 0 {
		return 0, 0, false
	}
	var p99s []float64
	size := len(samples) / windows
	for i := 0; i < windows; i++ {
		lo, hi := i*size, (i+1)*size
		if i == windows-1 {
			hi = len(samples)
		}
		v, _ := Quantile(samples[lo:hi], 0.99)
		p99s = append(p99s, v)
	}
	return Median(p99s), windows, true
}

// MiddleMean is the mean of the middle half of values (the
// interquartile mean). For a quantity with two modes, such as a restart
// that does or does not meet a collection cycle, it moves smoothly with
// the share of each mode, where a median jumps between them.
func MiddleMean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	return Mean(s[lo:hi])
}
