package gus

import (
	"context"
	"runtime"
	"testing"

	"github.com/sampling-algebra/gus/internal/tpch"
)

// TestFusedJoinAllocBudget is the allocation-budget guard for the keyed
// hot path: the full join-heavy pipeline (parse, plan, fused sampled
// scans, open-addressing hash join, batch-fed estimation) must stay within
// a fixed allocs-per-query budget, so a regression back toward per-row key
// materialization fails `go test ./...` — not just the benchmark run.
//
// The budget has ~4× headroom over the measured steady state (hundreds of
// allocations per query at this scale; the string-keyed implementation
// needed tens of thousands) to absorb Go-version and race-detector noise
// while still catching any per-row regression, which would blow past it by
// orders of magnitude.
func TestFusedJoinAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful with -short's tiny data")
	}
	db := Open()
	if err := db.AttachTPCHConfig(tpch.Config{Orders: 8000, Customers: 800, Parts: 200, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	const sql = `
SELECT SUM(l_discount*(1.0-l_tax))
FROM lineitem TABLESAMPLE (10 PERCENT), orders TABLESAMPLE (1000 ROWS)
WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0`
	query := func() {
		if _, err := db.Query(sql, WithWorkers(1), WithSeed(7)); err != nil {
			t.Fatal(err)
		}
	}
	query() // warm caches (snapshots, pools) before measuring
	const budget = 2500
	if n := testing.AllocsPerRun(5, query); n > budget {
		t.Fatalf("fused join path allocates %.0f times per query, budget %d — "+
			"per-row key materialization has crept back in", n, budget)
	}
}

// TestProgressiveAllocBudget is the allocation-budget guard for online
// aggregation: streaming to a 1% interval reads under half the data, so
// its heap bytes per stream must stay well within one one-shot Query's on
// the same data and statement — at most 3/4 of it (measured: about 0.42
// without and 0.53 under -race, whose sync.Pool drops cost pooled paths).
// A stream that stops releasing its wave batches (about 0.85) or regroups
// lineage it could sum directly (about 2.4) fails here, not only in the
// benchmark.
func TestProgressiveAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful with -short's tiny data")
	}
	db := Open()
	if err := db.AttachTPCHConfig(tpch.Config{Orders: 30000, Customers: 3000, Parts: 750, Seed: 31}); err != nil {
		t.Fatal(err)
	}
	const sql = `
SELECT SUM(l_extendedprice*(1.0-l_discount)) AS revenue
FROM lineitem TABLESAMPLE (90 PERCENT)
WHERE l_quantity < 45.0`
	var frac float64
	stream := func() {
		ups, err := drain(db.QueryProgressive(context.Background(), sql, WithSeed(7), WithTargetRelativeCI(0.01)))
		if err != nil {
			t.Fatal(err)
		}
		frac = ups[len(ups)-1].FractionScanned
	}
	oneShot := func() {
		if _, err := db.Query(sql, WithSeed(7)); err != nil {
			t.Fatal(err)
		}
	}
	streamBytes, oneShotBytes := bytesPerRun(5, stream), bytesPerRun(5, oneShot)
	if frac >= 0.75 {
		t.Fatalf("the 1%% target needed %.0f%% of the data; the budget assumes an early stop", 100*frac)
	}
	if 4*streamBytes > 3*oneShotBytes {
		t.Fatalf("a to-1%%-CI stream allocates %d bytes, one-shot Query %d — the budget is 3/4 of one-shot", streamBytes, oneShotBytes)
	}
}

// bytesPerRun reports the mean heap bytes allocated by run, after one
// warm-up call.
func bytesPerRun(runs int, run func()) uint64 {
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
