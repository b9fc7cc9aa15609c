package main

import (
	"math"
	"math/rand/v2"
)

// Op kinds a generator emits.
const (
	opGet uint8 = iota
	opUpdate
	opScan
	opInsert
	opTransfer
)

// op is one generated request. For opScan, n is the scan length; for
// opTransfer, key2 is the destination account and n the amount.
type op struct {
	kind uint8
	key  uint64
	key2 uint64
	n    int
}

// mask63 bounds every scrambled key below 1<<63, so the scan sentinels
// stored at 1<<63+i sort after all of them.
const mask63 = 1<<63 - 1

// scramble maps a key index to its key: a bijection on 63 bits (odd
// multiplies and xor-shifts), so neighbouring indices — and the hottest
// zipfian ranks — land far apart in key order and never collide.
func scramble(i uint64) uint64 {
	x := i & mask63
	x = x * 0x5851F42D4C957F2D & mask63
	x ^= x >> 29
	x = x * 0x14057B7EF767814F & mask63
	x ^= x >> 31
	return x
}

// tag is the 24-bit fingerprint every stored value carries in its upper
// bits, so a get can check that the value it read belongs to its key.
func tag(k uint64) uint64 { return (k * 0x9E3779B97F4A7C15 >> 40) & 0xFFFFFF }

// value is the value stored under k with sequence number seq. It stays
// below 2^40, the inline-value fast path of the uint64 API.
func value(k uint64, seq uint64) uint64 { return tag(k)<<16 | seq&0xFFFF }

// valueOK reports whether v is a value written for key k.
func valueOK(k, v uint64) bool { return v>>16 == tag(k) }

// zipf is YCSB's zipfian generator (Gray et al.'s method) over [0, n):
// rank 0 is the most popular item.
type zipf struct {
	n            float64
	theta, alpha float64
	zetan, eta   float64
	half         float64 // 1 + 0.5^theta
}

func newZipf(n uint64, theta float64) *zipf {
	var zetan, zeta2 float64
	for i := uint64(1); i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
		if i == 2 {
			zeta2 = zetan
		}
	}
	return &zipf{
		n:     float64(n),
		theta: theta,
		alpha: 1 / (1 - theta),
		zetan: zetan,
		eta:   (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		half:  1 + math.Pow(0.5, theta),
	}
}

func (z *zipf) next(r *rand.Rand) uint64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	i := uint64(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if i >= uint64(z.n) {
		i = uint64(z.n) - 1
	}
	return i
}

// gen is one worker's deterministic request stream: the same seed,
// workload and worker always yield the same ops.
type gen struct {
	wl      *workload
	r       *rand.Rand
	zipf    *zipf
	worker  uint64
	workers uint64
	inserts uint64
}

func newGen(wl *workload, z *zipf, seed uint64, worker, workers int) *gen {
	return &gen{
		wl:      wl,
		r:       rand.New(rand.NewPCG(seed, uint64(worker)+1)),
		zipf:    z,
		worker:  uint64(worker),
		workers: uint64(workers),
	}
}

// pick draws a preloaded key index from the workload's distribution.
func (g *gen) pick() uint64 {
	if g.zipf != nil {
		return g.zipf.next(g.r)
	}
	return g.r.Uint64N(uint64(g.wl.keys))
}

func (g *gen) next() op {
	wl := g.wl
	u := g.r.Float64()
	switch {
	case wl.bank:
		a := g.r.Uint64N(uint64(wl.keys))
		b := g.r.Uint64N(uint64(wl.keys) - 1)
		if b >= a {
			b++
		}
		return op{kind: opTransfer, key: scramble(a), key2: scramble(b), n: 1 + g.r.IntN(100)}
	case wl.scanShare > 0 && u < wl.scanShare:
		return op{kind: opScan, key: scramble(g.pick()), n: 1 + g.r.IntN(maxScan)}
	case wl.scanShare > 0:
		// Fresh keys: worker w's j-th insert takes index keys + j*workers + w,
		// disjoint across workers and from the preload.
		i := uint64(wl.keys) + g.inserts*g.workers + g.worker
		g.inserts++
		return op{kind: opInsert, key: scramble(i)}
	case u < wl.getShare:
		return op{kind: opGet, key: scramble(g.pick())}
	default:
		return op{kind: opUpdate, key: scramble(g.pick())}
	}
}

// maxScan is the longest scan YCSB-E issues; lengths are uniform in
// [1, maxScan].
const maxScan = 100
