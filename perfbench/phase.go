package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// workers is the closed-loop client count: one goroutine per CPU of the
// 2-CPU reference machine, each issuing its next op when the last returns.
const workers = 2

// epochInterval is the paper's checkpoint cadence.
const epochInterval = 64 * time.Millisecond

// traceEvery traces one op in this many per worker in a traced phase.
const traceEvery = 32

// clockBase anchors nanotime.
var clockBase = time.Now()

// nanotime reads the monotonic clock once, in ns since clockBase: half the
// cost of a time.Now and time.Since pair.
func nanotime() int64 { return int64(time.Since(clockBase)) }

// workerStats is what one worker counts during a phase, padded so the two
// workers never write the same cache line.
type workerStats struct {
	ops, updates, inserts, conflicts, violations int64
	read, write                                  hist
	seq                                          uint64
	pairs                                        []kvPair
	_                                            [64]byte
}

// phase is one timed closed-loop run of a request stream against a store,
// with a tick — a DB checkpoint or an MT+ epoch barrier — every 64 ms.
type phase struct {
	st   store
	gens []*gen // one per worker; a phase continues each worker's stream
	dur  time.Duration
	// timed records the latency of one op in sampleEvery; traced records
	// spans instead.
	timed, traced bool
	sampleEvery   int
	tick          func() int
	// beforeTick, when set, runs on the ticking goroutine just before each
	// tick, outside the timed pause.
	beforeTick func()
}

// phaseResult is a phase's merged outcome.
type phaseResult struct {
	wall   time.Duration
	total  workerStats
	pauses []time.Duration // one per tick
	lines  []int           // each tick's return (cache lines flushed)
	spans  []*spans        // per worker, then the ticker's; traced only
}

func (r *phaseResult) opsPerSec() float64 { return float64(r.total.ops) / r.wall.Seconds() }

func (p *phase) run() *phaseResult {
	n := len(p.gens)
	stats := make([]*workerStats, n)
	res := &phaseResult{}
	for w := range stats {
		stats[w] = &workerStats{}
		if p.traced {
			res.spans = append(res.spans, newSpans(1<<20))
		}
	}
	var tickSpans *spans
	if p.traced {
		tickSpans = newSpans(1 << 12)
		res.spans = append(res.spans, tickSpans)
	}

	var stop atomic.Bool
	stopTick := make(chan struct{})
	tickDone := make(chan struct{})
	go func() {
		defer close(tickDone)
		p.ticker(stopTick, res, tickSpans)
	}()
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < n; w++ {
		var sp *spans
		if p.traced {
			sp = res.spans[w]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.work(w, stats[w], sp, &stop)
		}()
	}
	time.Sleep(p.dur)
	stop.Store(true)
	wg.Wait()
	res.wall = time.Since(start)
	close(stopTick)
	<-tickDone
	for _, s := range stats {
		res.total.add(s)
	}
	return res
}

// ticker calls p.tick on the fixed 64 ms grid, skipping ticks it missed
// like a time.Ticker, and times each call.
func (p *phase) ticker(stop <-chan struct{}, res *phaseResult, sp *spans) {
	next := time.Now().Add(epochInterval)
	timer := time.NewTimer(epochInterval)
	defer timer.Stop()
	for {
		select {
		case <-stop:
			return
		case <-timer.C:
		}
		if p.beforeTick != nil {
			p.beforeTick()
		}
		sp.startOp()
		t := sp.begin()
		t0 := time.Now()
		lines := p.tick()
		res.pauses = append(res.pauses, time.Since(t0))
		sp.end(spanCheckpoint, t)
		res.lines = append(res.lines, lines)
		now := time.Now()
		for !next.After(now) {
			next = next.Add(epochInterval)
		}
		timer.Reset(next.Sub(now))
	}
}

func (p *phase) work(w int, r *workerStats, sp *spans, stop *atomic.Bool) {
	g := p.gens[w]
	for i := 0; !stop.Load(); i++ {
		var tsp *spans
		if sp != nil && i%traceEvery == 0 && sp.room() {
			tsp = sp
			tsp.startOp()
		}
		t := tsp.begin()
		o := g.next()
		do(p.st, w, o, r, p.timed && i%p.sampleEvery == 0, tsp)
		tsp.end(spanOp, t)
	}
}

// do issues one op, times it when timed, and counts any wrong answer as a
// violation.
func do(st store, w int, o op, r *workerStats, timed bool, sp *spans) {
	var t0 int64
	if timed {
		t0 = nanotime()
	}
	switch o.kind {
	case opGet:
		v, ok := st.get(w, o.key, sp)
		if timed {
			r.read.add(nanotime() - t0)
		}
		if !ok || !valueOK(o.key, v) {
			r.violations++
		}
	case opUpdate, opInsert:
		r.seq++
		fresh := st.put(w, o.key, value(o.key, r.seq), sp)
		if timed {
			r.write.add(nanotime() - t0)
		}
		if o.kind == opInsert {
			r.inserts++
		} else {
			r.updates++
		}
		if fresh != (o.kind == opInsert) {
			r.violations++
		}
	case opScan:
		r.pairs = st.scan(w, o.key, o.n, sp, r.pairs[:0])
		if timed {
			r.read.add(nanotime() - t0)
		}
		if !scanOK(o, r.pairs) {
			r.violations++
		}
	case opTransfer:
		var rd *hist
		if timed {
			rd = &r.read
		}
		ok, c := st.transfer(w, o.key, o.key2, o.n, sp, rd)
		if timed {
			r.write.add(nanotime() - t0)
		}
		r.conflicts += int64(c)
		if !ok {
			r.violations++
		}
	}
	r.ops++
}

// scanOK checks a scan: it starts at its (preloaded) start key, returns
// exactly the requested count in strictly ascending order, and every
// value belongs to its key.
func scanOK(o op, got []kvPair) bool {
	if len(got) != o.n || got[0].k != o.key {
		return false
	}
	for i, p := range got {
		if !valueOK(p.k, p.v) || i > 0 && p.k <= got[i-1].k {
			return false
		}
	}
	return true
}

func (s *workerStats) add(o *workerStats) {
	s.ops += o.ops
	s.updates += o.updates
	s.inserts += o.inserts
	s.conflicts += o.conflicts
	s.violations += o.violations
	s.read.merge(&o.read)
	s.write.merge(&o.write)
}

// writes is the number of single-key writes the stream issued (each
// transfer writes two accounts).
func (s *workerStats) writes(bank bool) int64 {
	if bank {
		return 2 * s.ops
	}
	return s.updates + s.inserts
}
