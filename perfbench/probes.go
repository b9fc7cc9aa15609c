package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"incll/internal/alloc"
	"incll/internal/core"
	"incll/internal/epoch"
	"incll/internal/extlog"
	"incll/internal/nvm"
)

// Layer probes call the internal packages' exported functions directly,
// each on a structure of its own, for a fixed amount of work. They give
// per-call costs the stream cannot isolate.

// probeLines is the region the nvm probes store to: 256 KiB, inside L2.
const probeLines = 4096

// nvmProbes times the simulated NVM's primitives.
func nvmProbes(out map[string]float64) {
	a := nvm.New(nvm.Config{Words: 1 << 20})
	base := a.Reserve(probeLines * nvm.WordsPerLine)
	line := func(l int) uint64 { return base + uint64(l)*nvm.WordsPerLine }
	const rounds = 50

	// A store to a clean line marks it dirty; a later store to the same
	// line only writes.
	var first, again time.Duration
	for r := 0; r < rounds; r++ {
		a.FlushAll()
		t0 := time.Now()
		for l := 0; l < probeLines; l++ {
			a.Store(line(l), uint64(r))
		}
		first += time.Since(t0)
		t0 = time.Now()
		for l := 0; l < probeLines; l++ {
			a.Store(line(l)+1, uint64(r))
		}
		again += time.Since(t0)
	}
	out["nvm.store_first_ns"] = perOp(first, rounds*probeLines)
	out["nvm.store_ns"] = perOp(again, rounds*probeLines)

	// Two goroutines dirtying neighbouring lines contend on the shared
	// dirty-summary words.
	var both time.Duration
	for r := 0; r < rounds; r++ {
		a.FlushAll()
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for l := w; l < probeLines; l += 2 {
					a.Store(line(l), uint64(r))
				}
			}()
		}
		wg.Wait()
		both += time.Since(t0)
	}
	out["nvm.store_first_2w_ns"] = perOp(both, rounds*probeLines/2)

	var fence, flush time.Duration
	var flushed int
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for l := 0; l < probeLines; l++ {
			a.Store(line(l), uint64(r))
			a.Writeback(line(l))
			a.Fence()
		}
		fence += time.Since(t0)
		for l := 0; l < probeLines; l++ {
			a.Store(line(l), uint64(r)+1)
		}
		t0 = time.Now()
		flushed += a.FlushAll()
		flush += time.Since(t0)
	}
	out["nvm.fence_line_ns"] = perOp(fence, rounds*probeLines)
	out["nvm.flushall_line_ns"] = perOp(flush, flushed)
}

// epochProbes times an epoch Enter/Exit pair, alone and with a second
// goroutine doing the same.
func epochProbes(out map[string]float64) {
	a := nvm.New(nvm.Config{Words: 1 << 12})
	m, _ := epoch.Open(a, a.Reserve(epoch.HeaderWords))
	const n = 2_000_000
	pairs := func(g int) time.Duration {
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := 0; w < g; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					m.Enter()
					m.Exit()
				}
			}()
		}
		wg.Wait()
		return time.Since(t0)
	}
	out["epoch.enter_exit_ns"] = perOp(pairs(1), n)
	out["epoch.enter_exit_2w_ns"] = perOp(pairs(2), n)
}

// extlogProbe times logging one tree node's pre-image (write, writeback,
// fence), filling the segment and starting a new epoch between batches.
func extlogProbe(out map[string]float64) error {
	const seg = 1 << 16
	a := nvm.New(nvm.Config{Words: 1 << 18})
	eOff := a.Reserve(epoch.HeaderWords)
	lOff := a.Reserve(extlog.RegionWords(seg, 1))
	obj := a.Reserve(core.NodeWords)
	m, _ := epoch.Open(a, eOff)
	w := extlog.New(a, m, lOff, seg, 1).Writer(0)
	var d time.Duration
	var n int
	for b := 0; b < 100; b++ {
		t0 := time.Now()
		for w.LogObject(obj, core.NodeWords) {
			n++
		}
		d += time.Since(t0)
		m.Advance()
	}
	if n == 0 {
		return fmt.Errorf("extlog probe: a %d-word segment took no entry", seg)
	}
	out["extlog.log_object_ns"] = perOp(d, n)
	return nil
}

// allocProbe times a node allocation and its free, recycling the limbo
// list at an epoch boundary between batches.
func allocProbe(out map[string]float64) error {
	const heapWords = 1 << 20
	a := nvm.New(nvm.Config{Words: 1 << 21})
	eOff := a.Reserve(epoch.HeaderWords)
	meta := a.Reserve(alloc.MetaWords(1))
	heap := a.Reserve(heapWords)
	m, _ := epoch.Open(a, eOff)
	h := alloc.New(a, m, meta, heap, heapWords, 1).Handle(0)
	const batches, batch = 200, 1000
	var d time.Duration
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			p := h.AllocNode()
			if p == 0 {
				return fmt.Errorf("alloc probe: heap exhausted")
			}
			h.FreeNode(p)
		}
		d += time.Since(t0)
		m.Advance()
	}
	out["alloc.node_ns"] = perOp(d, batches*batch)
	return nil
}

// coreProbe preloads a core.Store — the layer under the incll façade —
// with the workload's keys and times single gets and puts on it with the
// same key sequence the façade probe uses.
func (r *runner) coreProbe(out map[string]float64) {
	const arenaWords = 1 << 24 // the DB's default arena
	s, _ := core.Open(nvm.New(nvm.Config{Words: arenaWords}), core.Config{Workers: workers, HeapWords: arenaWords / 2})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := s.Handle(w)
			for i := w; i < r.wl.keys; i += workers {
				k := scramble(uint64(i))
				h.Put(core.EncodeUint64(k), r.wl.preloadValue(k))
			}
		}()
	}
	wg.Wait()
	s.Advance()
	h := s.Handle(0)
	get, put := r.probeKeys(), r.probeKeys()
	var key [8]byte
	tick := func() { s.Advance() }
	out["core.get_ns"] = spanned(func() { h.Get(encodeKey(key[:], get())) }, tick)
	out["core.put_ns"] = spanned(func() {
		k := put()
		h.Put(encodeKey(key[:], k), r.wl.preloadValue(k))
	}, tick)
}

// probeOps is the op count of each probe loop.
const probeOps = 100_000

// probeKeys returns a key picker over the preloaded keys with the
// workload's distribution, seeded the same on every call.
func (r *runner) probeKeys() func() uint64 {
	rng := rand.New(rand.NewPCG(r.seed, 77))
	if r.zipf != nil {
		return func() uint64 { return scramble(r.zipf.next(rng)) }
	}
	return func() uint64 { return scramble(rng.Uint64N(uint64(r.wl.keys))) }
}

// probeBatch is the calls a probe makes per epoch: a few milliseconds of
// work, so no external log segment fills.
const probeBatch = 10_000

// spanned makes probeOps calls of fn, timing each on its own clock reads
// like a span, with an untimed tick — an epoch boundary — after every
// probeBatch calls. It returns the mean ns per call.
func spanned(fn func(), tick func()) float64 {
	var d time.Duration
	for i := 1; i <= probeOps; i++ {
		t0 := time.Now()
		fn()
		d += time.Since(t0)
		if i%probeBatch == 0 {
			tick()
		}
	}
	return perOp(d, probeOps)
}

func perOp(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}
