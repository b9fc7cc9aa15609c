package incll

import (
	"testing"

	"incll/internal/core"
	"incll/internal/nvm"
)

// allocKeys is the population the allocation gates read from.
const allocKeys = 1000

// TestPointReadsDoNotAllocate gates the uint64 read paths at zero
// allocations per call with a prebuilt key, on a one-shard and a
// four-shard DB.
func TestPointReadsDoNotAllocate(t *testing.T) {
	for _, shards := range []int{1, 4} {
		db, _ := Open(Options{Shards: shards, Workers: 2, ArenaWords: 1 << 22, LogSegWords: 1 << 16})
		for i := uint64(0); i < allocKeys; i++ {
			db.Put(Key(i), i)
		}
		db.Checkpoint()
		k := Key(allocKeys / 2)
		h := db.Handle(1)
		dst := make([]byte, 0, 16)
		for _, c := range []struct {
			name string
			op   func()
		}{
			{"DB.Get", func() { db.Get(k) }},
			{"Handle.Get", func() { h.Get(k) }},
			{"Handle.AppendGet", func() { dst, _ = h.AppendGet(dst[:0], k) }},
		} {
			if n := testing.AllocsPerRun(200, c.op); n != 0 {
				t.Errorf("%d shards: %s allocates %.1f times per call, want 0", shards, c.name, n)
			}
		}
		db.Close()
	}
}

// TestOneShardScanAllocsMatchCore gates a one-shard DB's 50-key scan
// (NewIter, SeekGE, 49 Next, Close) at no more allocations than the same
// scan on a core.Store cursor over the same keys: the one-shard cluster
// hands out the shard's own cursor, with no merge wrapper.
func TestOneShardScanAllocsMatchCore(t *testing.T) {
	db, _ := Open(Options{ArenaWords: 1 << 22, LogSegWords: 1 << 16})
	defer db.Close()
	s, _ := core.Open(nvm.New(nvm.Config{Words: 1 << 22}), core.Config{Workers: 1, LogSegWords: 1 << 16, HeapWords: 1 << 21})
	for i := uint64(0); i < allocKeys; i++ {
		db.Put(Key(i), i)
		s.Put(Key(i), i)
	}
	db.Checkpoint()
	s.Advance()

	start := Key(allocKeys / 4)
	scan := func(open func(IterOptions) Iterator) func() {
		return func() {
			it := open(IterOptions{})
			ok := it.SeekGE(start)
			for i := 0; ok && i < 49; i++ {
				ok = it.Next()
			}
			if !ok {
				t.Fatal("scan ran off the key population")
			}
			it.Close()
		}
	}
	want := testing.AllocsPerRun(100, scan(s.NewIter))
	if got := testing.AllocsPerRun(100, scan(db.NewIter)); got > want {
		t.Fatalf("one-shard 50-key scan allocates %.1f times, core.Store cursor %.1f", got, want)
	}
	if got := testing.AllocsPerRun(100, scan(db.Handle(0).NewIter)); got > want {
		t.Fatalf("one-shard Handle 50-key scan allocates %.1f times, core.Store cursor %.1f", got, want)
	}
}
