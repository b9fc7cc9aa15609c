package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// compare prints the change of every metric between two result records of
// the same workload. It refuses records measured on different CPU counts
// or GOMAXPROCS: their numbers are not comparable.
func compare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare old.json new.json")
	}
	var recs [2]record
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &recs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	old, cur := recs[0].Stamp, recs[1].Stamp
	if err := comparable(old, cur); err != nil {
		return err
	}
	fmt.Printf("%s: %s (seed %d) -> %s (seed %d)\n", cur.Workload, old.Commit, old.Seed, cur.Commit, cur.Seed)
	names := make([]string, 0, len(recs[1].Result.Metrics))
	for n := range recs[1].Result.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		b, a := recs[0].Result.Metrics[n], recs[1].Result.Metrics[n]
		change := "n/a"
		if b.Value != 0 {
			change = fmt.Sprintf("%+.2f%%", 100*(a.Value-b.Value)/b.Value)
		}
		fmt.Printf("%-32s %14.4f %14.4f %9s %s\n", n, b.Value, a.Value, change, a.Unit)
	}
	return nil
}

// comparable reports why two stamps' results may not be compared.
func comparable(a, b stamp) error {
	switch {
	case a.NumCPU != b.NumCPU:
		return fmt.Errorf("refusing to compare: nproc %d vs %d", a.NumCPU, b.NumCPU)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Errorf("refusing to compare: GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.Workload != b.Workload || a.Trace != b.Trace:
		return fmt.Errorf("refusing to compare: %s (trace %v) vs %s (trace %v)", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	return nil
}
