package main

import (
	"math"
	"testing"
)

// The first ops for seed 1 are pinned: a change here changes every
// workload's inputs, and old and new results stop being comparable.
func TestFirstOpsArePinned(t *testing.T) {
	for _, wl := range workloads {
		var z *zipf
		if wl.zipf {
			z = newZipf(uint64(wl.keys), 0.99)
		}
		g := newGen(wl, z, 1, 0, workers)
		var got []op
		for i := 0; i < 3; i++ {
			got = append(got, g.next())
		}
		if want := pinned[wl.name]; len(want) != len(got) {
			t.Errorf("%s: no pinned ops", wl.name)
		} else {
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s op %d = %+v, want %+v", wl.name, i, got[i], want[i])
				}
			}
		}
	}
}

var pinned = map[string][]op{
	"ycsb-a": {
		{kind: opGet, key: 8257388618180221073},
		{kind: opUpdate, key: 8301595257970999384},
		{kind: opGet, key: 3708445531544200500},
	},
	"ycsb-b-zipf": {
		{kind: opGet, key: 3922170354347348838},
		{kind: opGet, key: 3265322948202001104},
		{kind: opGet, key: 3624893941185785795},
	},
	"ycsb-e": {
		{kind: opScan, key: 8257388618180221073, n: 87},
		{kind: opScan, key: 6436579515388938126, n: 94},
		{kind: opScan, key: 7062391394651705151, n: 56},
	},
	"bank": {
		{kind: opTransfer, key: 8257388618180221073, key2: 8307123497407670475, n: 92},
		{kind: opTransfer, key: 3708445531544200500, key2: 2242002356049064205, n: 11},
		{kind: opTransfer, key: 827731022304154435, key2: 6941442138728460181, n: 99},
	},
}

func TestOpMixShares(t *testing.T) {
	const n = 200_000
	for _, wl := range workloads {
		var z *zipf
		if wl.zipf {
			z = newZipf(uint64(wl.keys), 0.99)
		}
		g := newGen(wl, z, 7, 1, workers)
		var kinds [opTransfer + 1]int
		scanLen, minLen, maxLen := 0, maxScan, 0
		for i := 0; i < n; i++ {
			o := g.next()
			kinds[o.kind]++
			switch o.kind {
			case opScan:
				scanLen += o.n
				minLen, maxLen = min(minLen, o.n), max(maxLen, o.n)
			case opTransfer:
				if o.key == o.key2 || o.n < 1 || o.n > 100 {
					t.Fatalf("%s: bad transfer %+v", wl.name, o)
				}
			}
		}
		share := func(k uint8) float64 { return float64(kinds[k]) / n }
		near := func(what string, got, want float64) {
			if math.Abs(got-want) > 0.01 {
				t.Errorf("%s: %s share %.4f, want %.2f±0.01", wl.name, what, got, want)
			}
		}
		switch {
		case wl.bank:
			near("transfer", share(opTransfer), 1)
		case wl.scanShare > 0:
			near("scan", share(opScan), wl.scanShare)
			near("insert", share(opInsert), 1-wl.scanShare)
			if minLen != 1 || maxLen != maxScan {
				t.Errorf("%s: scan lengths span [%d, %d], want [1, %d]", wl.name, minLen, maxLen, maxScan)
			}
			near("mean scan length/100", float64(scanLen)/float64(kinds[opScan])/100, 0.505)
		default:
			near("get", share(opGet), wl.getShare)
			near("update", share(opUpdate), 1-wl.getShare)
		}
	}
}

func TestZipfHotKeysDominate(t *testing.T) {
	const keys, n = 1_000_000, 200_000
	g := newGen(&workload{keys: keys, getShare: 1, zipf: true}, newZipf(keys, 0.99), 3, 0, 1)
	hot := 0
	for i := 0; i < n; i++ {
		if g.pick() < keys/100 {
			hot++
		}
	}
	// YCSB's zipfian 0.99 over 1M items puts about two thirds of the
	// accesses on the hottest 1%.
	if s := float64(hot) / n; s < 0.6 || s > 0.75 {
		t.Errorf("hottest 1%% of keys drew %.3f of accesses, want 0.6-0.75", s)
	}
}

func TestScrambleIsInjectiveAndBelowSentinels(t *testing.T) {
	seen := make(map[uint64]bool, 1<<20)
	for i := uint64(0); i < 1<<20; i++ {
		k := scramble(i)
		if k >= 1<<63 || seen[k] {
			t.Fatalf("scramble(%d) = %#x: repeated or not below the sentinels", i, k)
		}
		seen[k] = true
	}
	// Neighbouring indices land far apart.
	if d := int64(scramble(1) - scramble(0)); d > -1<<40 && d < 1<<40 {
		t.Errorf("scramble(0), scramble(1) are only %d apart", d)
	}
}

func TestInsertKeysAreFreshAndDisjoint(t *testing.T) {
	wl := workloadByName("ycsb-e")
	seen := map[uint64]bool{}
	for w := 0; w < workers; w++ {
		g := newGen(wl, nil, 5, w, workers)
		for i := 0; i < 100_000; i++ {
			if o := g.next(); o.kind == opInsert {
				if seen[o.key] {
					t.Fatalf("insert key %#x repeated", o.key)
				}
				seen[o.key] = true
			}
		}
	}
	for i := 0; i < wl.keys; i++ {
		if seen[scramble(uint64(i))] {
			t.Fatalf("insert hit preloaded key %d", i)
		}
	}
}
