package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
)

// Span names. spanOp is the benchmark's own op loop (generation, the
// calls, the checks); every other span wraps one call the benchmark makes
// into a layer's public functions and is a child of the spanOp with the
// same op id. spanCheckpoint is a root of its own, on the ticking
// goroutine.
const (
	spanOp uint8 = iota
	spanGet
	spanPut
	spanNewIter
	spanSeek
	spanNext
	spanIterClose
	spanTxnBegin
	spanTxnGet
	spanTxnPut
	spanTxnCommit
	spanCheckpoint
	numSpans
)

var spanNames = [numSpans]string{
	"bench.op", "incll.get", "incll.put", "incll.new_iter", "incll.seek", "incll.next",
	"incll.close", "txn.begin", "txn.get", "txn.put", "txn.commit", "epoch.checkpoint",
}

type span struct {
	op         uint32
	name       uint8
	start, end int64 // nanotime
}

// spans records one goroutine's spans in memory; they are written out
// after the run. A nil *spans records nothing, so untraced ops pay one
// nil check per call site.
type spans struct {
	op  uint32
	buf []span
}

func newSpans(capacity int) *spans { return &spans{buf: make([]span, 0, capacity)} }

// opSpanRoom is the most spans one op records: a 100-key scan, or a
// transfer retried a few times.
const opSpanRoom = 128

func (s *spans) room() bool { return cap(s.buf)-len(s.buf) >= opSpanRoom }

func (s *spans) startOp() {
	if s != nil {
		s.op++
	}
}

func (s *spans) begin() int64 {
	if s == nil {
		return 0
	}
	return nanotime()
}

func (s *spans) end(name uint8, start int64) {
	if s == nil || len(s.buf) == cap(s.buf) {
		return
	}
	s.buf = append(s.buf, span{op: s.op, name: name, start: start, end: nanotime()})
}

// spanStats aggregates spans by name. A span's self time is its duration
// minus the time its children cover; only spanOp has children here, and
// they do not overlap.
type spanStats struct {
	count, total [numSpans]int64
	opSelf       int64
}

// add aggregates r's spans.
func (st *spanStats) add(r *spans) {
	var child int64 // children's time of the op being read
	for _, s := range r.buf {
		d := s.end - s.start
		st.count[s.name]++
		st.total[s.name] += d
		switch s.name {
		case spanOp:
			// The root is recorded last, after all of its children.
			st.opSelf += d - child
			child = 0
		case spanCheckpoint:
		default:
			child += d
		}
	}
}

// meanNs is the mean duration of the named spans (0 when none).
func (st *spanStats) meanNs(name uint8) float64 {
	return ratio(float64(st.total[name]), float64(st.count[name]))
}

// opSelfNs is the op loop's mean self time: generation, checks and
// bookkeeping outside the calls into the program.
func (st *spanStats) opSelfNs() float64 {
	return ratio(float64(st.opSelf), float64(st.count[spanOp]))
}

// writeSpans writes every span as a tab-separated line: recorder (worker
// index, or "tick" for the checkpointing goroutine), op id, name, start
// and end in ns on the benchmark's monotonic clock.
func writeSpans(path string, recs []*spans) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "recorder\top\tname\tstart_ns\tend_ns")
	for i, r := range recs {
		who := fmt.Sprint(i)
		if i == len(recs)-1 {
			who = "tick"
		}
		for _, s := range r.buf {
			fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%d\n", who, s.op, spanNames[s.name], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
