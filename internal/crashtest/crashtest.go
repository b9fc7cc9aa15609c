// Package crashtest implements the paper's §5.2 validation methodology:
// run the durable Masstree under random workloads, crash it at arbitrary
// points with adversarially chosen subsets of dirty cache lines surviving,
// restart, and check that the recovered state matches the state at the
// last committed epoch boundary, exactly.
//
// Concurrent workers operate on disjoint key ranges so the reference model
// is well-defined without serializing the workload.
package crashtest

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"

	"incll/internal/core"
	"incll/internal/epoch"
	"incll/internal/nvm"
	"incll/internal/obs"
)

// Config parameterizes one crash-injection campaign.
type Config struct {
	// Keyspace is the number of distinct keys (split across workers).
	Keyspace uint64
	// Workers is the number of concurrent mutator goroutines.
	Workers int
	// Shards, when > 1, runs the campaign against a sharded cluster with
	// coordinated checkpoints instead of a single store; crashes then also
	// strike inside the two-phase global checkpoint.
	Shards int
	// OpsPerEpoch is the number of operations each worker runs per epoch.
	OpsPerEpoch int
	// EpochsPerRound is the number of committed epochs before each crash.
	EpochsPerRound int
	// Rounds is the number of crash/recover cycles.
	Rounds int
	// PersistFraction is the probability a dirty line survives each crash.
	PersistFraction float64
	// ArenaWords sizes the simulated NVM.
	ArenaWords uint64
	// ValueBytes, when > 0, makes every put store a random byte value of
	// up to this many bytes (exercising the value heap: inline values,
	// out-of-place blocks, class churn). 0 stores small uint64 values.
	ValueBytes int
}

func (c *Config) setDefaults() {
	if c.Keyspace == 0 {
		c.Keyspace = 4000
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.OpsPerEpoch <= 0 {
		c.OpsPerEpoch = 800
	}
	if c.EpochsPerRound <= 0 {
		c.EpochsPerRound = 2
	}
	if c.Rounds <= 0 {
		c.Rounds = 4
	}
	if c.PersistFraction == 0 {
		c.PersistFraction = 0.5
	}
	if c.ArenaWords == 0 {
		c.ArenaWords = 1 << 22
	}
}

// Run executes one campaign with the given seed. It returns an error
// describing the first divergence between the recovered store and the
// committed reference model, or nil if every crash recovered exactly.
//
// Every campaign records the protocol phase trace (checkpoint prepares
// and commits, recovery replays); on failure dumpTraceOnFailure leaves
// the dump where CI picks it up, so a red crash-matrix run ships the
// exact sequence of protocol events that led to the divergence.
func Run(cfg Config, seed int64) error {
	if cfg.Shards > 1 {
		return runShardedCampaign(cfg, seed)
	}
	cfg.setDefaults()
	trace := obs.NewTracer(obs.DefaultTraceEvents)
	return dumpTraceOnFailure("core", seed, trace.Dump, run(cfg, seed, trace))
}

// runShardedCampaign runs the sharded campaign at cfg.Shards (1 included:
// a one-shard cluster still commits through the coordinator record).
func runShardedCampaign(cfg Config, seed int64) error {
	cfg.setDefaults()
	trace := obs.NewTracer(obs.DefaultTraceEvents)
	return dumpTraceOnFailure("sharded", seed, trace.Dump, runSharded(cfg, seed, trace))
}

// dumpTraceOnFailure routes a failing campaign's phase trace where CI can
// attach it as an artifact: when INCLL_TRACE_DIR names a directory, the
// dump lands there as <kind>-trace-<seed>.txt and the returned error
// points at it. With the variable unset the error passes through alone.
func dumpTraceOnFailure(kind string, seed int64, dump func(io.Writer) error, err error) error {
	if err == nil {
		return nil
	}
	dir := os.Getenv("INCLL_TRACE_DIR")
	if dir == "" {
		return err
	}
	if mkErr := os.MkdirAll(dir, 0o755); mkErr != nil {
		return fmt.Errorf("%w (trace dump: %v)", err, mkErr)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-trace-%d.txt", kind, seed))
	f, cErr := os.Create(path)
	if cErr != nil {
		return fmt.Errorf("%w (trace dump: %v)", err, cErr)
	}
	defer f.Close()
	fmt.Fprintf(f, "# %s campaign seed %d: %v\n", kind, seed, err)
	if dErr := dump(f); dErr != nil {
		return fmt.Errorf("%w (trace dump: %v)", err, dErr)
	}
	return fmt.Errorf("%w (phase trace: %s)", err, path)
}

func run(cfg Config, seed int64, trace *obs.Tracer) error {
	arena := nvm.New(nvm.Config{Words: cfg.ArenaWords})
	coreCfg := core.Config{
		Workers:     cfg.Workers,
		LogSegWords: 1 << 16,
		HeapWords:   cfg.ArenaWords / 2,
		Trace:       trace,
	}
	s, st := core.Open(arena, coreCfg)
	if st != epoch.FreshStart {
		return fmt.Errorf("fresh arena opened with status %v", st)
	}

	committed := map[uint64]string{} // state at the last epoch boundary
	working := map[uint64]string{}   // state including the current epoch

	for round := 0; round < cfg.Rounds; round++ {
		// Committed epochs.
		for e := 0; e < cfg.EpochsPerRound; e++ {
			runEpoch(s, cfg, working, seed+int64(round*1000+e))
			s.Advance()
			committed = cloneModel(working)
		}
		// Doomed partial epoch, then crash.
		runEpoch(s, cfg, working, seed+int64(round*1000+999))
		arena.Crash(nvm.RandomPolicy(cfg.PersistFraction, seed+int64(round)))
		arena.ResetReservations()
		var status epoch.Status
		s, status = core.Open(arena, coreCfg)
		if status != epoch.CrashRecovered {
			return fmt.Errorf("round %d: reopen status %v, want crash-recovered", round, status)
		}
		working = cloneModel(committed)
		if err := verify(s, committed); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
	}
	// Final clean shutdown must also preserve everything.
	runEpoch(s, cfg, working, seed+424242)
	s.Shutdown()
	arena.Crash(nvm.PersistNone)
	arena.ResetReservations()
	s, st = core.Open(arena, coreCfg)
	if st != epoch.CleanRestart {
		return fmt.Errorf("clean shutdown reopened with status %v", st)
	}
	return verify(s, working)
}

// randValue draws one value: a small uint64's canonical encoding by
// default, or — in byte mode — a random payload of up to ValueBytes bytes.
func randValue(cfg Config, rng *rand.Rand) string {
	if cfg.ValueBytes <= 0 {
		return string(core.EncodeValue(rng.Uint64() % 1_000_000))
	}
	b := make([]byte, rng.Intn(cfg.ValueBytes+1))
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return string(b)
}

// runEpoch has each worker mutate its own key range, mirroring every
// mutation into the model.
func runEpoch(s *core.Store, cfg Config, model map[uint64]string, seed int64) {
	per := cfg.Keyspace / uint64(cfg.Workers)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		lo := uint64(w) * per
		wg.Add(1)
		go func(w int, lo uint64) {
			defer wg.Done()
			h := s.Handle(w)
			rng := rand.New(rand.NewSource(seed*31 + int64(w)))
			local := map[uint64]string{}
			deleted := map[uint64]bool{}
			for i := 0; i < cfg.OpsPerEpoch; i++ {
				k := lo + uint64(rng.Int63n(int64(per)))
				switch rng.Intn(6) {
				case 0:
					h.Delete(core.EncodeUint64(k))
					delete(local, k)
					deleted[k] = true
				case 1:
					h.Get(core.EncodeUint64(k))
				default:
					v := randValue(cfg, rng)
					h.PutBytes(core.EncodeUint64(k), []byte(v))
					local[k] = v
					delete(deleted, k)
				}
			}
			mu.Lock()
			for k, v := range local {
				model[k] = v
			}
			for k := range deleted {
				delete(model, k)
			}
			mu.Unlock()
		}(w, lo)
	}
	wg.Wait()
}

// verify checks the store against the model by point lookups and one full
// ordered scan, comparing exact bytes so torn values cannot hide behind
// the uint64 view.
func verify(s *core.Store, model map[uint64]string) error {
	for k, v := range model {
		got, ok := s.GetBytes(core.EncodeUint64(k))
		if !ok {
			return fmt.Errorf("committed key %d missing after recovery", k)
		}
		if string(got) != v {
			return fmt.Errorf("key %d = %x after recovery, committed value %x", k, got, v)
		}
	}
	it := s.NewIter(core.IterOptions{})
	defer it.Close()
	count := 0
	var prev uint64
	for ok := it.First(); ok; ok = it.Next() {
		k := deKey(it.Key())
		if count > 0 && k <= prev {
			return fmt.Errorf("cursor order violated at key %d", k)
		}
		prev = k
		count++
		want, ok := model[k]
		if !ok {
			return fmt.Errorf("cursor found uncommitted key %d after recovery", k)
		}
		if want != string(it.Value()) {
			return fmt.Errorf("cursor key %d = %x, committed %x", k, it.Value(), want)
		}
	}
	if count != len(model) {
		return fmt.Errorf("cursor found %d keys, model has %d", count, len(model))
	}
	// The reverse walk must agree exactly: same population, descending.
	rev := 0
	for ok := it.Last(); ok; ok = it.Prev() {
		k := deKey(it.Key())
		if rev > 0 && k >= prev {
			return fmt.Errorf("reverse cursor order violated at key %d", k)
		}
		prev = k
		rev++
		if want, ok := model[k]; !ok || want != string(it.Value()) {
			return fmt.Errorf("reverse cursor key %d = %x, committed %x", k, it.Value(), model[k])
		}
	}
	if rev != len(model) {
		return fmt.Errorf("reverse cursor found %d keys, model has %d", rev, len(model))
	}
	return nil
}

func cloneModel(m map[uint64]string) map[uint64]string {
	out := make(map[uint64]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func deKey(b []byte) uint64 {
	var k uint64
	for _, c := range b {
		k = k<<8 | uint64(c)
	}
	return k
}
