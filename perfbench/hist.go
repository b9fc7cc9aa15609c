package main

import "math/bits"

// subBits sets the histogram's resolution: each power of two is split
// into 1<<subBits linear buckets, so a bucket is at most 1/128 (0.78%) of
// its lower edge wide and a reported percentile, interpolated within its
// bucket, is within 0.8% of the recorded value.
const subBits = 7

const (
	subBuckets = 1 << subBits
	// histBuckets covers durations up to 2^48 ns (~3 days).
	histBuckets = (48 - subBits + 1) * subBuckets
)

// hist is a log-linear latency histogram in nanoseconds. One worker
// writes it; merge after the workers stop.
type hist struct {
	n      int64
	counts [histBuckets]int64
}

func bucketOf(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	e := bits.Len64(v) - 1 - subBits // v>>e is in [subBuckets, 2*subBuckets)
	i := (e+1)*subBuckets + int(v>>e) - subBuckets
	return min(i, histBuckets-1)
}

// bucketSpan returns bucket i's lower edge and width.
func bucketSpan(i int) (lo, width float64) {
	if i < subBuckets {
		return float64(i), 1
	}
	e := i/subBuckets - 1
	return float64(uint64(i%subBuckets+subBuckets) << e), float64(uint64(1) << e)
}

// add records a duration in ns.
func (h *hist) add(ns int64) {
	h.counts[bucketOf(uint64(max(ns, 0)))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 when empty),
// interpolating linearly within the bucket that holds it.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, width := bucketSpan(i)
			return lo + width*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	lo, width := bucketSpan(histBuckets - 1)
	return lo + width
}
