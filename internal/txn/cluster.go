package txn

import (
	"incll/internal/core"
	"incll/internal/shard"
)

// ForCluster assembles a Manager over a sharded cluster — its per-shard
// stores, the deterministic router, and the coordinated two-phase advance
// — and runs intent recovery, returning the number of transactions
// replayed. Rebuild after every Reopen.
func ForCluster(s *shard.Store) (*Manager, int) {
	return New(ClusterConfig(s))
}

// ClusterConfig builds the Manager Config for a sharded cluster without
// constructing the Manager — the shape a reshard cutover installs via
// Manager.Cutover.
func ClusterConfig(s *shard.Store) Config {
	stores := make([]*core.Store, s.NumShards())
	for i := range stores {
		stores[i] = s.ShardStore(i)
	}
	topo := s.Topology()
	return Config{
		Stores:      stores,
		TopoVersion: topo.Version,
		Route:       topo.Route,
		Advance:     s.Advance,
		NewIter: func(w int, o core.IterOptions) core.Cursor {
			return s.Handle(w).NewIter(o)
		},
	}
}
