// Command perfbench is the repository's benchmark: four closed-loop
// workloads driven through the public incll API by two worker goroutines,
// with the benchmark itself checkpointing every 64 ms so it can time the
// stop-the-world pause from outside.
//
//	perfbench --workload ycsb-a --seed 1 --seconds 10 --trace 0
//	perfbench compare old.json new.json
//
// --trace 0 is the untraced run and prints the end-to-end metrics; --trace
// 1 is the traced run and prints the per-layer metrics (spans around the
// calls the benchmark makes into each layer, probes calling the internal
// packages directly, the program's own counters, and the LOGGING and MT+
// baselines). Each run checks the answers it gets and ends with
// crash-and-recover checks; any violation makes it exit 1. The last line
// of standard output is the result as one JSON object; the full record,
// stamped with the machine and build, goes to --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// stamp identifies where and on what a result was measured.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
}

// record is the file a run writes: its stamp and its result.
type record struct {
	Stamp  stamp  `json:"stamp"`
	Result result `json:"result"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	name := flag.String("workload", "", "workload: ycsb-a, ycsb-b-zipf, ycsb-e or bank")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "measured seconds of the main stream")
	trace := flag.Int("trace", 0, "1 for the traced run (per-layer metrics)")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the result record and spans")
	flag.Parse()
	wl := workloadByName(*name)
	if wl == nil || *seconds <= 0 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	st := stamp{
		Workload:   wl.name,
		Seed:       *seed,
		Seconds:    *seconds,
		Trace:      *trace == 1,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
	fmt.Printf("# perfbench %s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		st.Workload, st.Seed, st.Seconds, *trace, st.NumCPU, st.GOMAXPROCS, st.GoVersion, st.Commit)

	r := newRunner(wl, *seed, time.Duration(*seconds*float64(time.Second)))
	defs := endToEnd
	var vals map[string]float64
	if st.Trace {
		defs = perLayer
		var err error
		spanPath := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.tsv", wl.name, *seed))
		if vals, err = r.traced(spanPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		fmt.Printf("# spans: %s\n", spanPath)
	} else {
		vals = r.e2e()
	}

	res := result{
		Correct:   r.violations == 0,
		Attempted: r.attempted,
		Failed:    r.violations,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	read, write := issueNames(wl)
	for _, d := range defs {
		v := vals[d.name]
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		if d.moves != "" {
			fmt.Printf("%-32s %14.4f %-12s -> %s\n", d.name, v, d.unit, d.moves)
			continue
		}
		label := d.name
		if rest, ok := strings.CutPrefix(d.name, "read_"); ok {
			label += " (" + read + "_" + rest + ")"
		} else if rest, ok := strings.CutPrefix(d.name, "write_"); ok {
			label += " (" + write + "_" + rest + ")"
		}
		fmt.Printf("%-32s %14.4f %s\n", label, v, d.unit)
	}
	if !st.Trace {
		for _, d := range informational {
			fmt.Printf("%-32s %14.4f %s (not gated)\n", d.name, vals[d.name], d.unit)
		}
	}
	fmt.Printf("%-32s %14.6g %s (%d failed of %d attempted)\n", "error_rate",
		float64(res.Failed)/float64(res.Attempted), "ratio", res.Failed, res.Attempted)

	path := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d.json", wl.name, *seed, *trace))
	if err := writeRecord(path, record{Stamp: st, Result: res}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func writeRecord(path string, rec record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
