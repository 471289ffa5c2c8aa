package main

import (
	"math/bits"
	"sort"
)

// hist is a fixed-size log-bucket histogram of nanosecond values: exact
// below 256 ns, then 128 sub-buckets per power of two (bucket width
// ≤ 0.8 % of the value). It never allocates after construction, so
// recording into it adds nothing to allocs_per_op.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSub     = 128 // sub-buckets per octave
	histExact   = 2 * histSub
	histMaxExp  = 32 // values up to 2^40 ns (≈ 18 min) keep full resolution
	histBuckets = histExact + histMaxExp*histSub
)

func bucketOf(ns int64) int {
	if ns < histExact {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 8 // ns>>e is in [128, 255]
	if e > histMaxExp {
		return histBuckets - 1
	}
	return histExact + (e-1)*histSub + int(uint64(ns)>>uint(e)) - histSub
}

// bucketRange returns bucket i's lower bound and width.
func bucketRange(i int) (lo, width float64) {
	if i < histExact {
		return float64(i), 1
	}
	e := (i-histExact)/histSub + 1
	m := (i-histExact)%histSub + histSub
	return float64(uint64(m) << uint(e)), float64(uint64(1) << uint(e))
}

func (h *hist) record(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the value of the ceil(q·n)-th smallest sample,
// interpolated by rank inside its bucket, so two runs that land in the
// same bucket still report different digits.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := uint64(q*float64(h.n) + 0.999999)
	if target < 1 {
		target = 1
	}
	if target > h.n {
		target = h.n
	}
	var seen uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+uint64(c) >= target {
			lo, w := bucketRange(i)
			return lo + w*(float64(target-seen)-0.5)/float64(c)
		}
		seen += uint64(c)
	}
	return 0
}

// median returns the middle of vs (mean of the two middle values when
// len is even). vs is sorted in place.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	m := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[m]
	}
	return (vs[m-1] + vs[m]) / 2
}

// sliceP99 is the latency_p99_us definition: the median, over the
// window's slices, of each slice's own p99, so one GC cycle or one
// scheduler hiccup moves one slice and not the metric. Slices holding
// fewer than 100 samples cannot support a p99 and are left out.
func sliceP99(slices []hist) float64 {
	var p99s []float64
	for i := range slices {
		if slices[i].n >= 100 {
			p99s = append(p99s, slices[i].quantile(0.99))
		}
	}
	return median(p99s)
}
