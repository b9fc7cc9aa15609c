package main

import (
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"time"

	"incll"
)

// traced is the traced run: the per-layer metrics. It measures the same
// stream untraced (for counters and the tracing overhead) and traced (for
// spans), then on one worker, then runs the layer probes and the
// baselines: LOGGING (the DB with in-cache-line logging off) and MT+ (the
// transient tree). Spans are written to spanPath.
func (r *runner) traced(spanPath string) (map[string]float64, error) {
	out := map[string]float64{}
	db, _ := r.setup(r.options())
	st := newDBStore(db, workers)
	gens := r.gens()
	r.measure(dbPhase(db, st, gens, warmup))

	// Untraced: counters read around the phase.
	u := dbPhase(db, st, gens, r.dur/4)
	var limbo []float64
	u.beforeTick = func() { limbo = append(limbo, float64(db.Metrics().LimboDepth)) }
	m0, sh0, rt0 := db.Metrics(), shardOps(db), readRuntime()
	ur := r.measure(u)
	m1, sh1, rt1 := db.Metrics(), shardOps(db), readRuntime()

	tp := dbPhase(db, st, gens, r.dur/4)
	tp.traced = true
	tr := r.measure(tp)
	if err := writeSpans(spanPath, tr.spans); err != nil {
		return nil, err
	}
	stream := &spanStats{}
	for _, s := range tr.spans {
		stream.add(s)
	}

	one := r.measure(dbPhase(db, st, gens[:1], r.dur/10))
	probe := r.facadeProbe(db, st)
	db, _ = r.crashCycle(db, 0)
	db.Close()
	db = nil
	runtime.GC()

	logging := r.options()
	logging.DisableInCLL = true
	lr := r.baselineDB(logging)
	r.coreProbe(out)
	runtime.GC()
	mr, m1w := r.baselineMT()
	runtime.GC()

	nvmProbes(out)
	epochProbes(out)
	if err := extlogProbe(out); err != nil {
		return nil, err
	}
	if err := allocProbe(out); err != nil {
		return nil, err
	}

	// Each façade span comes from the stream where the workload issues
	// that call, else from the probe on the same DB.
	pick := func(name uint8) float64 {
		if stream.count[name] > 0 {
			return stream.meanNs(name)
		}
		return probe.meanNs(name)
	}
	out["incll.get_ns"] = pick(spanGet)
	out["incll.put_ns"] = pick(spanPut)
	out["incll.new_iter_ns"] = pick(spanNewIter)
	out["incll.seek_ns"] = pick(spanSeek)
	out["incll.next_ns"] = pick(spanNext)
	out["incll.facade_ns"] = probe.meanNs(spanGet) - out["core.get_ns"]
	out["txn.get_ns"] = pick(spanTxnGet)
	out["txn.commit_ns"] = pick(spanTxnCommit)
	out["bench.gen_ns"] = stream.opSelfNs()

	t := &ur.total
	ops := float64(t.ops)
	puts := float64(m1.Ops.Puts - m0.Ops.Puts)
	perm := float64(m1.Undo.InCLLPerm - m0.Undo.InCLLPerm)
	val := float64(m1.Undo.InCLLVal - m0.Undo.InCLLVal)
	ext := float64(m1.Undo.ExtLog - m0.Undo.ExtLog)
	nv := m1.NVM.Sub(m0.NVM)
	out["core.incll_val_per_put"] = ratio(val, puts)
	out["core.extlog_per_put"] = ratio(ext, puts)
	out["core.incll_ratio"] = ratio(perm+val, perm+val+ext)
	out["core.incll_perm_per_insert"] = ratio(perm, float64(t.inserts))
	out["core.logging_ops_per_s"] = lr.opsPerSec()
	out["core.incll_over_logging"] = ratio(ur.opsPerSec(), lr.opsPerSec())

	var pause time.Duration
	for _, d := range ur.pauses {
		pause += d
	}
	lines := 0
	for _, l := range ur.lines {
		lines += l
	}
	ticks := float64(len(ur.pauses))
	out["epoch.ckpt_ms_mean"] = ratio(float64(pause)/1e6, ticks)
	out["epoch.ckpt_wall_share"] = ratio(float64(pause), float64(ur.wall))
	out["epoch.forced_ckpts"] = float64(m1.Epoch-m0.Epoch) - ticks

	out["nvm.fences_per_op"] = ratio(float64(nv.Fences), ops)
	out["nvm.writebacks_per_op"] = ratio(float64(nv.Writebacks), ops)
	out["nvm.lines_per_ckpt"] = ratio(float64(lines), ticks)
	out["nvm.ckpt_ns_per_line"] = ratio(float64(pause), float64(lines))
	// User bytes: an 8-byte key and an 8-byte value per single-key write.
	out["nvm.write_amp"] = ratio(float64(nv.LinesPersisted)*64, float64(t.writes(r.wl.bank))*16)

	out["alloc.limbo_depth"] = mean(limbo)
	out["txn.conflict_ratio"] = ratio(float64(t.conflicts), float64(t.ops+t.conflicts))
	out["shard.op_skew"] = skew(sh0, sh1)

	out["masstree.mtplus_ops_per_s"] = mr.opsPerSec()
	out["masstree.incll_over_mtplus"] = ratio(ur.opsPerSec(), mr.opsPerSec())
	out["masstree.incll_over_mtplus_1w"] = ratio(one.opsPerSec(), m1w.opsPerSec())

	out["runtime.alloc_bytes_per_op"] = ratio(rt1.allocBytes-rt0.allocBytes, ops)
	out["runtime.mallocs_per_op"] = ratio(rt1.mallocs-rt0.mallocs, ops)
	out["runtime.gc_cpu_fraction"] = ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU)
	out["trace.overhead"] = 1 - ratio(tr.opsPerSec(), ur.opsPerSec())
	return out, nil
}

// baselineDB sets up a DB with opts and measures the stream on it.
func (r *runner) baselineDB(opts incll.Options) *phaseResult {
	db, _ := r.setup(opts)
	st := newDBStore(db, workers)
	gens := r.gens()
	r.measure(dbPhase(db, st, gens, warmup))
	res := r.measure(dbPhase(db, st, gens, r.dur*3/20))
	r.verify(db)
	db.Close()
	return res
}

// baselineMT preloads MT+ and measures the stream on it with both workers
// and with one, advancing its epoch barrier on the same 64 ms grid.
func (r *runner) baselineMT() (both, one *phaseResult) {
	mt := newMTStore(workers)
	r.preload(mt)
	gens := r.gens()
	ph := func(gens []*gen, dur time.Duration) *phase {
		return &phase{st: mt, gens: gens, dur: dur, tick: func() int { mt.barrier.Advance(); return 0 }}
	}
	r.measure(ph(gens, warmup))
	both = r.measure(ph(gens, r.dur*3/20))
	one = r.measure(ph(gens[:1], r.dur/10))
	return both, one
}

// facadeOps is the façade probe's iteration count.
const facadeOps = 20_000

// facadeProbe makes, on one goroutine and the measured DB, every façade
// call a stream can issue — a get, a put writing back the value read, a
// cursor scan of 1-100 keys and a zero-amount transfer — each in a span,
// with a checkpoint between batches. The writes change no value, so the
// workload's checks still hold afterwards.
func (r *runner) facadeProbe(db *incll.DB, st *dbStore) *spanStats {
	keys := r.probeKeys()
	rng := rand.New(rand.NewPCG(r.seed, 78))
	sp := newSpans(facadeOps / 10 * opSpanRoom)
	agg := &spanStats{}
	var pairs []kvPair
	for i := 1; i <= facadeOps; i++ {
		k := keys()
		v, ok := st.get(0, k, sp)
		if !ok {
			r.violations++
		}
		st.put(0, k, v, sp)
		pairs = st.scan(0, k, 1+rng.IntN(maxScan), sp, pairs[:0])
		a, b := r.account(rng), r.account(rng)
		if a != b {
			if ok, _ := st.transfer(0, a, b, 0, sp, nil); !ok {
				r.violations++
			}
		}
		if i%(facadeOps/10) == 0 {
			db.Checkpoint()
			agg.add(sp)
			sp.buf = sp.buf[:0]
		}
	}
	r.attempted += facadeOps
	return agg
}

// shardOps returns each shard's op count so far.
func shardOps(db *incll.DB) []int64 {
	out := make([]int64, db.Shards())
	for i := range out {
		s := db.ShardStats(i)
		out[i] = s.Gets.Load() + s.Puts.Load() + s.Scans.Load() + s.Deletes.Load()
	}
	return out
}

// skew is the busiest shard's op count over the mean, between two
// shardOps readings.
func skew(before, after []int64) float64 {
	var total, most int64
	for i := range after {
		d := after[i] - before[i]
		total += d
		most = max(most, d)
	}
	return ratio(float64(most)*float64(len(after)), float64(total))
}

// runtimeReading is the Go runtime's cumulative allocation and CPU
// counters.
type runtimeReading struct {
	allocBytes, mallocs, gcCPU, totalCPU float64
}

func readRuntime() runtimeReading {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	f := func(v metrics.Value) float64 {
		if v.Kind() == metrics.KindUint64 {
			return float64(v.Uint64())
		}
		return v.Float64()
	}
	return runtimeReading{f(s[0].Value), f(s[1].Value), f(s[2].Value), f(s[3].Value)}
}

// ratio is a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
