package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

func TestHistQuantileWithinOnePercent(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	var h hist
	xs := make([]float64, 0, 100_000)
	for i := 0; i < cap(xs); i++ {
		// Log-uniform from 100 ns to 10 ms.
		x := math.Exp(math.Log(100) + r.Float64()*math.Log(1e5))
		xs = append(xs, x)
		h.add(int64(x))
	}
	slices.Sort(xs)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		want := xs[int(q*float64(len(xs)))]
		if got := h.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%.3f = %.1f, want %.1f within 1%%", q, got, want)
		}
	}
}

func TestBucketsCoverEveryValueOnce(t *testing.T) {
	prevEnd := 0.0
	for i := 0; i < histBuckets; i++ {
		lo, w := bucketSpan(i)
		if lo != prevEnd {
			t.Fatalf("bucket %d starts at %v, previous ended at %v", i, lo, prevEnd)
		}
		if i >= subBuckets && w/lo > 1.0/subBuckets {
			t.Fatalf("bucket %d is %v wide at %v: over 1/%d", i, w, lo, subBuckets)
		}
		if bucketOf(uint64(lo)) != i {
			t.Fatalf("bucketOf(%v) = %d, want %d", lo, bucketOf(uint64(lo)), i)
		}
		prevEnd = lo + w
	}
}
