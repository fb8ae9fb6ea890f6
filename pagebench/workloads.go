package main

import (
	"fmt"

	"cachegenie/internal/core"
)

// workload is one stack shape plus one traffic mix. Its fields are the
// stack's full configuration; every result file records them.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	// Stack.
	CacheNodes int    `json:"cache_nodes"`
	Replicas   int    `json:"replicas"`     // cluster ring R (ring only when CacheNodes > 1)
	TCP        bool   `json:"tcp"`          // loopback cacheproto servers behind pooled clients
	CacheBytes int64  `json:"cache_bytes"`  // total cache capacity, 0 = unbounded
	Strategy   string `json:"strategy"`     // "update-in-place" or "invalidate"
	Async      bool   `json:"async_invbus"` // trigger maintenance through the invalidation bus
	Durable    bool   `json:"durable_wal"`  // sqldb WAL in a temp dir, fsync per group commit

	// Traffic.
	Users    int     `json:"users"`
	ZipfA    float64 `json:"zipf_a"` // paper §5.1 sessions-per-user parameter; rank exponent 1/(a-1)
	WritePct int     `json:"write_pct"`
	Clients  int     `json:"clients"`
	// Pages is the number of measured page loads per trial; WarmupPages run
	// unrecorded before them. Both are fixed so that every build reaches
	// the same data size.
	Pages       int `json:"pages"`
	WarmupPages int `json:"warmup_pages"`
}

func (w workload) strategy() core.Strategy {
	if w.Strategy == "invalidate" {
		return core.Invalidate
	}
	return core.UpdateInPlace
}

// workloads are the benchmark's three page mixes; later changes refer to
// them by name. The package doc says why each exists.
var workloads = []workload{
	{
		Name:       "hot-read-tcp",
		Why:        "cached steady state on the real wire: core hit path, ring, pool, loopback TCP and server",
		CacheNodes: 2, Replicas: 2, TCP: true, Strategy: "update-in-place",
		Users: 2000, ZipfA: 2.0, WritePct: 5, Clients: 2,
		Pages: 12000, WarmupPages: 3000,
	},
	{
		Name:       "write-durable",
		Why:        "write path: sqldb locks, triggers, async invalidation bus and WAL group commit",
		CacheNodes: 1, Strategy: "update-in-place", Async: true, Durable: true,
		Users: 2000, ZipfA: 2.0, WritePct: 50, Clients: 2,
		Pages: 12000, WarmupPages: 2000,
	},
	{
		Name:       "small-cache",
		Why:        "working set far above cache size: core miss path, sqldb read path, kvcache eviction",
		CacheNodes: 1, CacheBytes: 400 << 10, Strategy: "invalidate",
		Users: 4000, ZipfA: 5, WritePct: 5, Clients: 2,
		Pages: 36000, WarmupPages: 12000,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want hot-read-tcp, write-durable or small-cache)", name)
}
