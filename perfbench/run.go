package main

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"time"

	"incll"
)

const (
	// setupRuns is how many DBs a run sets up (Open, preload, first
	// checkpoint) and measures; setup_s is the median set-up time.
	setupRuns = 3
	// crashCycles is how many crash-and-recover checks end a run;
	// recovery_s is the median of their Reopen times.
	crashCycles = 11
	// tailWrites is the doomed single-key writes issued after the last
	// checkpoint of each crash cycle: about one epoch's writes on ycsb-a.
	tailWrites = 40_000
	// tailTxns is the committed transfers bank issues before them, which
	// must survive the crash.
	tailTxns = 2_000
	// tailWritesBank is bank's doomed single-key writes. A sharded DB's
	// default external log segment (2^16 words per shard and worker) takes
	// a few thousand single-key writes in one epoch; some 12,000 per shard
	// overflow it and the store panics.
	tailWritesBank = 2_000
)

// runner holds one run's workload, seed and duration, and counts the ops
// it attempted and the correctness violations it saw.
type runner struct {
	wl         *workload
	seed       uint64
	dur        time.Duration
	zipf       *zipf
	attempted  int64
	violations int64
}

func newRunner(wl *workload, seed uint64, dur time.Duration) *runner {
	r := &runner{wl: wl, seed: seed, dur: dur}
	if wl.zipf {
		r.zipf = newZipf(uint64(wl.keys), 0.99)
	}
	return r
}

func (r *runner) options() incll.Options {
	return incll.Options{Workers: workers, Shards: r.wl.shards}
}

// gens returns fresh per-worker request streams for the run's seed: every
// store a run measures sees the same stream.
func (r *runner) gens() []*gen {
	g := make([]*gen, workers)
	for w := range g {
		g[w] = newGen(r.wl, r.zipf, r.seed, w, workers)
	}
	return g
}

// account draws a preloaded key uniformly.
func (r *runner) account(rng *rand.Rand) uint64 {
	return scramble(rng.Uint64N(uint64(r.wl.keys)))
}

// setup opens a DB, preloads it and takes the first checkpoint.
func (r *runner) setup(opts incll.Options) (*incll.DB, time.Duration) {
	t0 := time.Now()
	db, _ := incll.Open(opts)
	r.preload(newDBStore(db, workers))
	db.Checkpoint()
	return db, time.Since(t0)
}

// preload inserts every key of the workload, split across the workers.
func (r *runner) preload(st store) {
	wl := r.wl
	var wg sync.WaitGroup
	bad := make([]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < wl.keys; i += workers {
				k := scramble(uint64(i))
				if !st.put(w, k, wl.preloadValue(k), nil) {
					bad[w]++
				}
			}
			if w == 0 && wl.scanShare > 0 {
				for i := 0; i < scanSentinels; i++ {
					k := uint64(1)<<63 + uint64(i)
					if !st.put(w, k, value(k, 0), nil) {
						bad[w]++
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, b := range bad {
		r.violations += b
	}
	r.attempted += int64(wl.keys)
}

// measure runs one phase of the stream and counts its ops and violations.
func (r *runner) measure(p *phase) *phaseResult {
	res := p.run()
	r.attempted += res.total.ops
	r.violations += res.total.violations
	return res
}

// dbPhase is a phase against db with the benchmark's own checkpoint every
// 64 ms — equivalent to one tick of the background checkpointer, but timed
// from outside so the stop-the-world pause is measured.
func dbPhase(db *incll.DB, st store, gens []*gen, dur time.Duration) *phase {
	return &phase{st: st, gens: gens, dur: dur, tick: db.Checkpoint}
}

// warmup is the unmeasured run before each measured stream.
const warmup = 500 * time.Millisecond

// window is the length of one measured window. Throughput and latency
// percentiles are taken per window and reported as the median over all
// windows, so a second in which the machine stalls the process moves the
// result little.
const window = time.Second

// e2e is the untraced run: the end-to-end metrics. It sets up setupRuns
// DBs in turn and measures the stream on each for an equal share of the
// run, in windows, so neither one process's memory placement nor one bad
// second decides the result; checkpoint pauses are pooled over the run.
// The last DB then goes through the crash-and-recover checks.
func (r *runner) e2e() map[string]float64 {
	var setups, ops, rp50, rp99, wp50, wp99, pauses []float64
	windows := max(1, int(r.dur/window)/setupRuns)
	var db *incll.DB
	for i := 0; i < setupRuns; i++ {
		if db != nil {
			db.Close()
			db = nil
			runtime.GC()
		}
		var d time.Duration
		db, d = r.setup(r.options())
		setups = append(setups, d.Seconds())
		st := newDBStore(db, workers)
		gens := r.gens()
		r.measure(dbPhase(db, st, gens, warmup))
		for j := 0; j < windows; j++ {
			p := dbPhase(db, st, gens, r.dur/time.Duration(windows*setupRuns))
			p.timed, p.sampleEvery = true, r.wl.sampleEvery
			res := r.measure(p)
			t := &res.total
			ops = append(ops, res.opsPerSec())
			rp50 = append(rp50, t.read.quantile(0.50)/1e3)
			rp99 = append(rp99, t.read.quantile(0.99)/1e3)
			wp50 = append(wp50, t.write.quantile(0.50)/1e3)
			wp99 = append(wp99, t.write.quantile(0.99)/1e3)
			pauses = append(pauses, durationsMs(res.pauses)...)
		}
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	r.verify(db)
	recov := make([]float64, 0, crashCycles)
	for c := 0; c < crashCycles; c++ {
		var d time.Duration
		db, d = r.crashCycle(db, c)
		recov = append(recov, d.Seconds())
	}
	db.Close()

	return map[string]float64{
		"ops_per_s":         median(ops),
		"read_p50_us":       median(rp50),
		"read_p99_us":       median(rp99),
		"write_p50_us":      median(wp50),
		"write_p99_us":      median(wp99),
		"ckpt_pause_p50_ms": quantile(pauses, 0.50),
		"ckpt_pause_p90_ms": quantile(pauses, 0.90),
		"recovery_s":        median(recov),
		"setup_s":           median(setups),
		"live_heap_mb":      float64(ms.HeapInuse) / (1 << 20),
	}
}

// digest is an order-sensitive hash of the whole table, with its size
// and the sum of its values.
type digest struct {
	hash, sum uint64
	n         int
}

// verify reads the whole table once; for bank it also checks that the
// total balance is conserved.
func (r *runner) verify(db *incll.DB) digest {
	d := digest{hash: 14695981039346656037}
	db.Scan(incll.Key(0), -1, func(k []byte, v uint64) bool {
		d.hash = (d.hash ^ incll.DecodeValue(k)) * 1099511628211
		d.hash = (d.hash ^ v) * 1099511628211
		d.sum += v
		d.n++
		return true
	})
	r.attempted++
	if r.wl.bank && d.sum != uint64(r.wl.keys)*initialBalance {
		r.violations++
	}
	return d
}

// crashCycle checkpoints, issues a tail of writes (bank: committed
// transfers, which must survive; then single-key writes, which must roll
// back), crashes mid-epoch with half the dirty lines persisting, and
// checks that the recovered table equals the last committed state. It
// returns the recovered DB and how long Reopen took.
func (r *runner) crashCycle(db *incll.DB, c int) (*incll.DB, time.Duration) {
	wl := r.wl
	db.Checkpoint()
	st := newDBStore(db, workers)
	rng := rand.New(rand.NewPCG(r.seed, 1000+uint64(c)))
	account := func() uint64 { return r.account(rng) }
	doomed := tailWrites
	if wl.bank {
		doomed = tailWritesBank
		for i := 0; i < tailTxns; i++ {
			a, b := account(), account()
			if a == b {
				continue
			}
			if ok, _ := st.transfer(0, a, b, 1+rng.IntN(100), nil, nil); !ok {
				r.violations++
			}
		}
	}
	want := r.verify(db)
	for i := 0; i < doomed; i++ {
		var k, v uint64
		fresh := wl.scanShare > 0
		if fresh {
			// Indices far above any the stream's inserts reach.
			k = scramble(uint64(wl.keys) + 1<<40 + uint64(c*doomed+i))
			v = value(k, 0)
		} else {
			k = account()
			v = value(k, 0xFFFF)
		}
		if st.put(0, k, v, nil) != fresh {
			r.violations++
		}
	}
	r.attempted += int64(doomed)
	runtime.GC()
	db.SimulateCrash(0.5, int64(r.seed)*31+int64(c))
	t0 := time.Now()
	db, _ = db.Reopen()
	d := time.Since(t0)
	if got := r.verify(db); got != want {
		r.violations++
	}
	return db, d
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs by nearest rank (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}
