package main

import (
	"encoding/binary"
	"errors"

	"incll"
	"incll/internal/masstree"
)

// workload fixes one input: key count, shard count, op mix and key
// distribution. Everything else about the DB stays at its default.
type workload struct {
	name string
	why  string
	keys int
	// shards partitions the DB (Options.Shards).
	shards int
	// getShare is the get fraction of a get/update mix.
	getShare float64
	// scanShare, when > 0, makes a scan/insert mix instead.
	scanShare float64
	zipf      bool
	bank      bool
	// sampleEvery times one op in this many per worker (a fixed stride):
	// enough samples for a p99 in every window, few enough clock reads
	// (about 100 ns a timed op) not to tax throughput.
	sampleEvery int
}

var workloads = []*workload{
	{name: "ycsb-a", keys: 1_000_000, shards: 1, getShare: 0.5, sampleEvery: 8,
		why: "50/50 get/update, uniform over 1M keys: the write-heavy case; most leaf lines are dirtied every epoch"},
	{name: "ycsb-b-zipf", keys: 1_000_000, shards: 1, getShare: 0.95, zipf: true, sampleEvery: 8,
		why: "95/5 get/update, zipfian 0.99: descent and epoch enter/exit dominate, the hot keys fit in L2 and checkpoints are small"},
	{name: "ycsb-e", keys: 1_000_000, shards: 1, scanShare: 0.95, sampleEvery: 1,
		why: "95% scans of 1-100 keys, 5% fresh inserts: the only load on the cursor refill path and on node allocation via splits"},
	{name: "bank", keys: 1_000_000, shards: 4, bank: true, sampleEvery: 1,
		why: "2-account transfer transactions over 1M accounts in 4 shards: the fenced txn commit and the coordinated checkpoint"},
}

func workloadByName(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// initialBalance is every bank account's preloaded balance.
const initialBalance = 1000

// scanSentinels are extra keys at the top of the keyspace (1<<63 + i) in
// ycsb-e, so every scan starting at a preloaded key has maxScan keys to
// return.
const scanSentinels = maxScan

// preloadValue is what the loader stores under key k.
func (wl *workload) preloadValue(k uint64) uint64 {
	if wl.bank {
		return initialBalance
	}
	return value(k, 0)
}

// encodeKey writes k's 8-byte big-endian key into b and returns it.
func encodeKey(b []byte, k uint64) []byte {
	binary.BigEndian.PutUint64(b, k)
	return b
}

// kvPair is one scanned entry.
type kvPair struct{ k, v uint64 }

// store is what a request stream drives: the durable DB through the public
// incll API, or the transient MT+ tree. Each method is called by worker w
// only, with sp nil unless the op is traced.
type store interface {
	get(w int, k uint64, sp *spans) (uint64, bool)
	// put reports whether k was newly inserted.
	put(w int, k, v uint64, sp *spans) bool
	// scan appends up to n entries with keys ≥ start to out.
	scan(w int, start uint64, n int, sp *spans, out []kvPair) []kvPair
	// transfer moves up to amt from account a to b, retrying conflicts,
	// and records each read's latency in rd when rd is non-nil. ok is
	// false when an account is missing or the commit failed otherwise.
	transfer(w int, a, b uint64, amt int, sp *spans, rd *hist) (ok bool, conflicts int)
}

// dbWorker is one worker's handle and scratch key buffers, padded so two
// workers' buffers never share a cache line.
type dbWorker struct {
	h      incll.Handle
	ka, kb [8]byte
	_      [64]byte
}

// dbStore drives an incll.DB through its public API.
type dbStore struct {
	db *incll.DB
	ws []*dbWorker
}

func newDBStore(db *incll.DB, workers int) *dbStore {
	s := &dbStore{db: db}
	for w := 0; w < workers; w++ {
		s.ws = append(s.ws, &dbWorker{h: db.Handle(w)})
	}
	return s
}

func (s *dbStore) get(w int, k uint64, sp *spans) (uint64, bool) {
	x := s.ws[w]
	binary.BigEndian.PutUint64(x.ka[:], k)
	t := sp.begin()
	v, ok := x.h.Get(x.ka[:])
	sp.end(spanGet, t)
	return v, ok
}

func (s *dbStore) put(w int, k, v uint64, sp *spans) bool {
	x := s.ws[w]
	binary.BigEndian.PutUint64(x.ka[:], k)
	t := sp.begin()
	fresh := x.h.Put(x.ka[:], v)
	sp.end(spanPut, t)
	return fresh
}

// scan spans each cursor call; reading an entry's key and value counts
// with the seek or next that reached it.
func (s *dbStore) scan(w int, start uint64, n int, sp *spans, out []kvPair) []kvPair {
	x := s.ws[w]
	binary.BigEndian.PutUint64(x.ka[:], start)
	t := sp.begin()
	it := x.h.NewIter(incll.IterOptions{})
	sp.end(spanNewIter, t)
	t = sp.begin()
	ok := it.SeekGE(x.ka[:])
	if ok {
		out = append(out, kvPair{binary.BigEndian.Uint64(it.Key()), it.ValueUint64()})
	}
	sp.end(spanSeek, t)
	for ok && len(out) < n {
		t = sp.begin()
		if ok = it.Next(); ok {
			out = append(out, kvPair{binary.BigEndian.Uint64(it.Key()), it.ValueUint64()})
		}
		sp.end(spanNext, t)
	}
	t = sp.begin()
	it.Close()
	sp.end(spanIterClose, t)
	return out
}

func (s *dbStore) transfer(w int, a, b uint64, amt int, sp *spans, rd *hist) (bool, int) {
	x := s.ws[w]
	binary.BigEndian.PutUint64(x.ka[:], a)
	binary.BigEndian.PutUint64(x.kb[:], b)
	for conflicts := 0; ; conflicts++ {
		t := sp.begin()
		tx := s.db.BeginWorker(w)
		sp.end(spanTxnBegin, t)
		ba, okA := timedTxGet(tx, x.ka[:], sp, rd)
		bb, okB := timedTxGet(tx, x.kb[:], sp, rd)
		if !okA || !okB {
			tx.Abort()
			return false, conflicts
		}
		move := min(uint64(amt), ba)
		t = sp.begin()
		tx.Put(x.ka[:], ba-move)
		tx.Put(x.kb[:], bb+move)
		sp.end(spanTxnPut, t)
		t = sp.begin()
		err := tx.Commit()
		sp.end(spanTxnCommit, t)
		if err == nil {
			return true, conflicts
		}
		if !errors.Is(err, incll.ErrConflict) {
			return false, conflicts
		}
	}
}

func timedTxGet(tx *incll.Txn, k []byte, sp *spans, rd *hist) (uint64, bool) {
	if rd == nil {
		t := sp.begin()
		v, ok := tx.Get(k)
		sp.end(spanTxnGet, t)
		return v, ok
	}
	t0 := nanotime()
	v, ok := tx.Get(k)
	rd.add(nanotime() - t0)
	return v, ok
}

// mtWorker is one worker's MT+ handle, scratch key and scan sink.
type mtWorker struct {
	h   masstree.Handle
	k   [8]byte
	out []kvPair
	n   int
	// sink is visit bound once, so a scan allocates no closure.
	sink func([]byte, uint64) bool
	_    [64]byte
}

func (x *mtWorker) visit(k []byte, v uint64) bool {
	x.out = append(x.out, kvPair{binary.BigEndian.Uint64(k), v})
	return len(x.out) < x.n
}

// mtStore drives MT+ — transient Masstree with the pooled allocator and
// its epoch barrier, the paper's fairest non-durable baseline. Bank
// transfers run as two gets and two puts with no atomicity: the transient
// tree has no transactions.
type mtStore struct {
	tree    *masstree.Tree
	barrier *masstree.Barrier
	ws      []*mtWorker
}

func newMTStore(workers int) *mtStore {
	b := masstree.NewBarrier()
	s := &mtStore{tree: masstree.NewWithPool(masstree.NewPool(workers, b), b), barrier: b}
	for w := 0; w < workers; w++ {
		x := &mtWorker{h: s.tree.Handle(w)}
		x.sink = x.visit
		s.ws = append(s.ws, x)
	}
	return s
}

func (s *mtStore) get(w int, k uint64, _ *spans) (uint64, bool) {
	x := s.ws[w]
	binary.BigEndian.PutUint64(x.k[:], k)
	return x.h.Get(x.k[:])
}

func (s *mtStore) put(w int, k, v uint64, _ *spans) bool {
	x := s.ws[w]
	binary.BigEndian.PutUint64(x.k[:], k)
	return x.h.Put(x.k[:], v)
}

func (s *mtStore) scan(w int, start uint64, n int, _ *spans, out []kvPair) []kvPair {
	x := s.ws[w]
	binary.BigEndian.PutUint64(x.k[:], start)
	x.out, x.n = out, n
	x.h.Scan(x.k[:], n, x.sink)
	out, x.out = x.out, nil
	return out
}

func (s *mtStore) transfer(w int, a, b uint64, amt int, _ *spans, _ *hist) (bool, int) {
	ba, okA := s.get(w, a, nil)
	bb, okB := s.get(w, b, nil)
	if !okA || !okB {
		return false, 0
	}
	move := min(uint64(amt), ba)
	s.put(w, a, ba-move, nil)
	s.put(w, b, bb+move, nil)
	return true, 0
}
