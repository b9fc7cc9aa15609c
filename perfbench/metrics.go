package main

// metricDef describes one reported metric. BENCHMARK.json lists the same
// names, units and directions (benchmark_test.go checks that).
type metricDef struct {
	name, unit, better string
	// bound is how far (a share of the parent's median) an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// moves names, for a per-layer metric, the end-to-end metric and the
	// workload a change to that layer should move.
	moves string
}

// endToEnd is what a user of the store sees, measured untraced. read_* and
// write_* are the latency of the workload's own read and write: a get and
// an update on ycsb-a and ycsb-b-zipf, a scan and an insert on ycsb-e, and
// on bank one Txn.Get and one whole transfer (first Begin to the
// successful Commit, retries included). Bank's ops are committed
// transfers.
var endToEnd = []metricDef{
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "read_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "write_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "ckpt_pause_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "recovery_s", unit: "s", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "live_heap_mb", unit: "MiB", better: "lower", bound: 0.05},
}

// informational is printed by the untraced run but not gated: over ten
// seeds these tails spread by up to a fifth on this 2-CPU machine — the
// insert p99 on ycsb-e, the update p99 on ycsb-b-zipf, and bank's pause
// p90, where transaction segments force epoch boundaries at random offsets
// before each driven checkpoint — too close to any bound a gate could use.
var informational = []metricDef{
	{name: "read_p99_us", unit: "us"},
	{name: "write_p99_us", unit: "us"},
	{name: "ckpt_pause_p90_ms", unit: "ms"},
}

// issueNames maps read_*/write_* to the per-op-kind names they stand for
// on each workload, printed alongside for readers.
func issueNames(wl *workload) (read, write string) {
	switch {
	case wl.bank:
		return "txn_get", "txn"
	case wl.scanShare > 0:
		return "scan", "insert"
	default:
		return "get", "put"
	}
}

// perLayer is measured by the traced run on every workload. Where a
// workload issues no such call itself, the span comes from the façade
// probe on the same DB; where a layer does no such work, a ratio reads 0.
var perLayer = []metricDef{
	{name: "incll.get_ns", unit: "ns", better: "lower", moves: "read_p50_us on ycsb-b-zipf"},
	{name: "incll.put_ns", unit: "ns", better: "lower", moves: "write_p50_us on ycsb-a"},
	{name: "incll.new_iter_ns", unit: "ns", better: "lower", moves: "read_p50_us on ycsb-e"},
	{name: "incll.seek_ns", unit: "ns", better: "lower", moves: "read_p50_us on ycsb-e"},
	{name: "incll.next_ns", unit: "ns", better: "lower", moves: "read_p50_us on ycsb-e"},
	{name: "incll.facade_ns", unit: "ns", better: "lower", moves: "read_p50_us on ycsb-b-zipf"},
	{name: "core.get_ns", unit: "ns", better: "lower", moves: "read_p50_us on ycsb-a and ycsb-b-zipf"},
	{name: "core.put_ns", unit: "ns", better: "lower", moves: "write_p50_us on ycsb-a"},
	{name: "core.incll_val_per_put", unit: "count/put", better: "higher", moves: "write_p99_us on ycsb-a"},
	{name: "core.extlog_per_put", unit: "count/put", better: "lower", moves: "write_p99_us on ycsb-a"},
	{name: "core.incll_ratio", unit: "ratio", better: "higher", moves: "write_p99_us on ycsb-a; near 1 on ycsb-b-zipf"},
	{name: "core.incll_perm_per_insert", unit: "count/insert", better: "higher", moves: "write_p50_us on ycsb-e"},
	{name: "core.logging_ops_per_s", unit: "1/s", better: "higher", moves: "ops_per_s on ycsb-a (the LOGGING baseline)"},
	{name: "core.incll_over_logging", unit: "ratio", better: "higher", moves: "ops_per_s on ycsb-a"},
	{name: "epoch.ckpt_ms_mean", unit: "ms", better: "lower", moves: "ckpt_pause_p50_ms on ycsb-a"},
	{name: "epoch.ckpt_wall_share", unit: "ratio", better: "lower", moves: "ops_per_s on ycsb-a"},
	{name: "epoch.forced_ckpts", unit: "count", better: "lower", moves: "write_p99_us on bank"},
	{name: "epoch.enter_exit_ns", unit: "ns", better: "lower", moves: "read_p50_us on ycsb-b-zipf"},
	{name: "epoch.enter_exit_2w_ns", unit: "ns", better: "lower", moves: "read_p50_us on ycsb-b-zipf"},
	{name: "nvm.fences_per_op", unit: "count/op", better: "lower", moves: "write_p99_us on ycsb-a; write_p50_us on bank"},
	{name: "nvm.writebacks_per_op", unit: "count/op", better: "lower", moves: "write_p99_us on ycsb-a; write_p50_us on bank"},
	{name: "nvm.lines_per_ckpt", unit: "count", better: "lower", moves: "ckpt_pause_p50_ms on ycsb-a"},
	{name: "nvm.ckpt_ns_per_line", unit: "ns", better: "lower", moves: "ckpt_pause_p50_ms on ycsb-a"},
	{name: "nvm.write_amp", unit: "ratio", better: "lower", moves: "ckpt_pause_p50_ms on ycsb-a"},
	{name: "nvm.store_ns", unit: "ns", better: "lower", moves: "ops_per_s on ycsb-a"},
	{name: "nvm.store_first_ns", unit: "ns", better: "lower", moves: "ops_per_s on ycsb-a"},
	{name: "nvm.store_first_2w_ns", unit: "ns", better: "lower", moves: "ops_per_s on ycsb-a"},
	{name: "nvm.fence_line_ns", unit: "ns", better: "lower", moves: "ops_per_s on ycsb-a"},
	{name: "nvm.flushall_line_ns", unit: "ns", better: "lower", moves: "ckpt_pause_p50_ms on ycsb-a"},
	{name: "extlog.log_object_ns", unit: "ns", better: "lower", moves: "write_p99_us on ycsb-a"},
	{name: "alloc.node_ns", unit: "ns", better: "lower", moves: "write_p50_us and live_heap_mb on ycsb-e; none on ycsb-b-zipf"},
	{name: "alloc.limbo_depth", unit: "count", better: "lower", moves: "write_p50_us and live_heap_mb on ycsb-e; none on ycsb-b-zipf"},
	{name: "txn.get_ns", unit: "ns", better: "lower", moves: "write_p50_us and ops_per_s on bank"},
	{name: "txn.commit_ns", unit: "ns", better: "lower", moves: "write_p50_us and ops_per_s on bank"},
	{name: "txn.conflict_ratio", unit: "ratio", better: "lower", moves: "ops_per_s on bank"},
	{name: "shard.op_skew", unit: "ratio", better: "lower", moves: "ops_per_s on bank"},
	{name: "masstree.mtplus_ops_per_s", unit: "1/s", better: "higher", moves: "ops_per_s (the MT+ baseline)"},
	{name: "masstree.incll_over_mtplus", unit: "ratio", better: "higher", moves: "ops_per_s (the paper's headline ratio)"},
	{name: "masstree.incll_over_mtplus_1w", unit: "ratio", better: "higher", moves: "ops_per_s on ycsb-a"},
	{name: "runtime.alloc_bytes_per_op", unit: "B/op", better: "lower", moves: "ops_per_s and read_p99_us on ycsb-a and ycsb-b-zipf"},
	{name: "runtime.mallocs_per_op", unit: "count/op", better: "lower", moves: "ops_per_s and read_p99_us on ycsb-a and ycsb-b-zipf"},
	{name: "runtime.gc_cpu_fraction", unit: "ratio", better: "lower", moves: "ops_per_s and read_p99_us on ycsb-a and ycsb-b-zipf"},
	{name: "bench.gen_ns", unit: "ns", better: "lower", moves: "none: the benchmark's own cost per op"},
	{name: "trace.overhead", unit: "ratio", better: "lower", moves: "none: traced vs untraced ops_per_s"},
}
