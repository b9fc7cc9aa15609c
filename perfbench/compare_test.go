package main

import "testing"

func TestComparableRefusesOtherMachines(t *testing.T) {
	base := stamp{Workload: "ycsb-a", NumCPU: 2, GOMAXPROCS: 2}
	if err := comparable(base, base); err != nil {
		t.Fatalf("same machine and workload refused: %v", err)
	}
	for _, other := range []stamp{
		{Workload: "ycsb-a", NumCPU: 1, GOMAXPROCS: 2},
		{Workload: "ycsb-a", NumCPU: 2, GOMAXPROCS: 1},
		{Workload: "bank", NumCPU: 2, GOMAXPROCS: 2},
		{Workload: "ycsb-a", NumCPU: 2, GOMAXPROCS: 2, Trace: true},
	} {
		if comparable(base, other) == nil {
			t.Errorf("compared %+v with %+v", base, other)
		}
	}
}
