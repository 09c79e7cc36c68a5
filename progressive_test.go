package gus

// Tests for QueryProgressive: online aggregation must converge to exactly
// the one-shot answer (bit-identical at any worker count), stop early when
// asked to, and die promptly when its context does.

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"github.com/sampling-algebra/gus/internal/tpch"
)

func progressiveDB(t *testing.T, orders int) *DB {
	t.Helper()
	db := Open()
	if err := db.AttachTPCHConfig(tpch.Config{Orders: orders, Customers: orders/10 + 10, Parts: orders/40 + 10, Seed: 31}); err != nil {
		t.Fatal(err)
	}
	return db
}

// drain collects every update of a stream and the terminal error.
func drain(ch <-chan Update, wait func() error) ([]Update, error) {
	var ups []Update
	for u := range ch {
		ups = append(ups, u)
	}
	return ups, wait()
}

func requireSameUpdateValue(t *testing.T, label string, u UpdateValue, v Value) {
	t.Helper()
	if u.Name != v.Name || u.Kind != v.Kind {
		t.Fatalf("%s: identity %q/%q vs %q/%q", label, u.Name, u.Kind, v.Name, v.Kind)
	}
	checks := []struct {
		what string
		x, y float64
	}{
		{"Value", u.Value, v.Value},
		{"Estimate", u.Estimate, v.Estimate},
		{"StdErr", u.StdErr, v.StdErr},
		{"CILow", u.CILow, v.CILow},
		{"CIHigh", u.CIHigh, v.CIHigh},
	}
	for _, c := range checks {
		if c.x != c.y {
			t.Fatalf("%s: %s: progressive %.17g vs one-shot %.17g", label, c.what, c.x, c.y)
		}
	}
	if u.Approximate != v.Approximate {
		t.Fatalf("%s: Approximate %v vs %v", label, u.Approximate, v.Approximate)
	}
}

// TestProgressiveFinalBitIdentical is the core acceptance contract: for
// any (query, seed, workers), running the stream to completion yields
// estimates, standard errors and intervals bit-identical to Query.
func TestProgressiveFinalBitIdentical(t *testing.T) {
	db := progressiveDB(t, 4000)
	queries := map[string]string{
		"sum-bernoulli": `SELECT SUM(l_extendedprice*(1.0-l_discount)) AS rev
			FROM lineitem TABLESAMPLE (30 PERCENT) WHERE l_extendedprice > 500.0`,
		"count-system": `SELECT COUNT(*) FROM lineitem TABLESAMPLE SYSTEM (20)`,
		"avg":          `SELECT AVG(l_extendedprice) FROM lineitem TABLESAMPLE (50 PERCENT)`,
		"quantiles": `SELECT QUANTILE(SUM(l_discount*(1.0-l_tax)), 0.05) AS lo,
			QUANTILE(SUM(l_discount*(1.0-l_tax)), 0.95) AS hi
			FROM lineitem TABLESAMPLE (40 PERCENT)`,
		"unsampled-filter": `SELECT SUM(l_tax) FROM lineitem WHERE l_discount > 0.02`,
	}
	for name, sql := range queries {
		for _, seed := range []uint64{1, 9} {
			for _, workers := range []int{1, 4} {
				opts := []Option{WithSeed(seed), WithWorkers(workers), WithWaveRows(1000)}
				want, err := db.Query(sql, opts...)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				ch, wait := db.QueryProgressive(context.Background(), sql, opts...)
				ups, err := drain(ch, wait)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(ups) < 2 {
					t.Fatalf("%s: only %d updates; waves did not engage", name, len(ups))
				}
				last := ups[len(ups)-1]
				if !last.Final || !last.Done || last.Reason != "complete" {
					t.Fatalf("%s: last update not a completed scan: %+v", name, last)
				}
				if last.FractionScanned != 1 {
					t.Fatalf("%s: final fraction %v", name, last.FractionScanned)
				}
				if len(last.Values) != len(want.Values) {
					t.Fatalf("%s: %d values vs %d", name, len(last.Values), len(want.Values))
				}
				for i := range want.Values {
					requireSameUpdateValue(t, name, last.Values[i], want.Values[i])
				}
				if last.SampleRows != want.SampleRows {
					t.Fatalf("%s: sample rows %d vs %d", name, last.SampleRows, want.SampleRows)
				}
				// Fractions must be strictly increasing and CIs well-formed.
				for i, u := range ups {
					if i > 0 && u.FractionScanned <= ups[i-1].FractionScanned {
						t.Fatalf("%s: fraction not increasing at wave %d", name, i)
					}
					for _, v := range u.Values {
						if !math.IsNaN(v.CILow) && v.CILow > v.CIHigh {
							t.Fatalf("%s: inverted CI at wave %d", name, i)
						}
					}
				}
			}
		}
	}
}

// TestProgressiveJoinFallback: shapes the wave executor cannot split still
// answer — as a single Final update identical to Query.
func TestProgressiveJoinFallback(t *testing.T) {
	db := progressiveDB(t, 1500)
	sql := `SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (20 PERCENT),
		orders TABLESAMPLE (400 ROWS) WHERE l_orderkey = o_orderkey`
	want, err := db.Query(sql, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	ch, wait := db.QueryProgressive(context.Background(), sql, WithSeed(3))
	ups, err := drain(ch, wait)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 1 {
		t.Fatalf("expected a single fallback update, got %d", len(ups))
	}
	u := ups[0]
	if !u.Final || !u.Done || u.FractionScanned != 1 {
		t.Fatalf("fallback update not final: %+v", u)
	}
	requireSameUpdateValue(t, "join-fallback", u.Values[0], want.Values[0])
}

// TestProgressiveTargetCI: with a 1% relative-CI target on a TPC-H Q1
// revenue aggregate, the stream must stop after a strict subset of the
// data while actually delivering the target accuracy.
func TestProgressiveTargetCI(t *testing.T) {
	db := progressiveDB(t, 30000)
	sql := `SELECT SUM(l_extendedprice*(1.0-l_discount)) AS revenue
		FROM lineitem TABLESAMPLE (90 PERCENT) WHERE l_quantity < 45.0`
	ch, wait := db.QueryProgressive(context.Background(), sql,
		WithSeed(7), WithTargetRelativeCI(0.01), WithWaveRows(8192))
	ups, err := drain(ch, wait)
	if err != nil {
		t.Fatal(err)
	}
	last := ups[len(ups)-1]
	if last.Reason != "target-ci" || !last.Done {
		t.Fatalf("stream did not stop on target: %+v", last)
	}
	if last.FractionScanned >= 1 {
		t.Fatalf("no early stop: scanned fraction %v", last.FractionScanned)
	}
	v := last.Values[0]
	half := (v.CIHigh - v.CILow) / 2
	if half > 0.01*math.Abs(v.Estimate) {
		t.Fatalf("half-width %v exceeds 1%% of estimate %v", half, v.Estimate)
	}
	// The early answer must be close to the truth (fixed seed: this is a
	// deterministic regression, not a flaky statistical assertion).
	exact, err := db.Exact(sql)
	if err != nil {
		t.Fatal(err)
	}
	truth := exact.Values[0].Value
	if rel := math.Abs(v.Estimate-truth) / truth; rel > 0.02 {
		t.Fatalf("early estimate off by %.2f%% (est %v, truth %v)", 100*rel, v.Estimate, truth)
	}
}

// TestProgressiveMaxFraction: the scan must stop at the I/O budget.
func TestProgressiveMaxFraction(t *testing.T) {
	db := progressiveDB(t, 8000)
	sql := `SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (50 PERCENT)`
	ch, wait := db.QueryProgressive(context.Background(), sql,
		WithSeed(1), WithMaxFraction(0.3), WithWaveRows(2048))
	ups, err := drain(ch, wait)
	if err != nil {
		t.Fatal(err)
	}
	last := ups[len(ups)-1]
	if last.Reason != "max-fraction" {
		t.Fatalf("reason %q", last.Reason)
	}
	if last.FractionScanned < 0.3 || last.FractionScanned >= 1 {
		t.Fatalf("fraction %v outside [0.3, 1)", last.FractionScanned)
	}
}

// TestProgressiveDeadline: an already-expired deadline stops the stream at
// the first wave boundary.
func TestProgressiveDeadline(t *testing.T) {
	db := progressiveDB(t, 8000)
	sql := `SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (50 PERCENT)`
	ch, wait := db.QueryProgressive(context.Background(), sql,
		WithSeed(1), WithDeadline(time.Nanosecond), WithWaveRows(2048))
	ups, err := drain(ch, wait)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 1 {
		t.Fatalf("expected exactly one update, got %d", len(ups))
	}
	if ups[0].Reason != "deadline" {
		t.Fatalf("reason %q", ups[0].Reason)
	}
}

// TestProgressiveCancel: canceling the context ends the stream within a
// wave and surfaces the cancellation through wait.
func TestProgressiveCancel(t *testing.T) {
	db := progressiveDB(t, 8000)
	sql := `SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (50 PERCENT)`
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, wait := db.QueryProgressive(ctx, sql, WithSeed(1), WithWaveRows(1024))
	var got int
	for u := range ch {
		got++
		if got == 1 {
			cancel()
		}
		_ = u
	}
	err := wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("wait() = %v, want context.Canceled", err)
	}
	if got > 3 {
		t.Fatalf("stream kept flowing after cancel: %d updates", got)
	}
}

// TestProgressiveGroupByUnsupported: GROUP BY streams fail fast with a
// clear error instead of silently degrading.
func TestProgressiveGroupByUnsupported(t *testing.T) {
	db := progressiveDB(t, 1500)
	ch, wait := db.QueryProgressive(context.Background(),
		`SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (50 PERCENT) GROUP BY l_linenumber`)
	ups, err := drain(ch, wait)
	if err == nil || len(ups) != 0 {
		t.Fatalf("expected GROUP BY rejection, got %d updates, err %v", len(ups), err)
	}
}

// TestQueryContextCancel: a one-shot query honors its context between
// partition waves.
func TestQueryContextCancel(t *testing.T) {
	db := progressiveDB(t, 4000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.QueryContext(ctx,
		`SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (50 PERCENT)`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryContext = %v, want context.Canceled", err)
	}
}

// TestProgressiveAbandonThenWait: breaking out of the channel early and
// calling wait stops the scan cleanly (nil error) and leaves the DB fully
// usable — the regression for the abandoned-stream deadlock.
func TestProgressiveAbandonThenWait(t *testing.T) {
	db := progressiveDB(t, 8000)
	sql := `SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (50 PERCENT)`
	ch, wait := db.QueryProgressive(context.Background(), sql, WithSeed(1), WithWaveRows(1024))
	<-ch // take one update, then abandon the channel without draining
	if err := wait(); err != nil {
		t.Fatalf("wait after abandoning the channel: %v", err)
	}
	tb, err := db.CreateTable("probe", Column{Name: "v", Type: Float})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(1.5); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT SUM(v) FROM probe`); err != nil {
		t.Fatal(err)
	}
}

// TestProgressiveStreamDoesNotBlockWriters: a live stream holds no
// catalog lock, so writes proceed mid-stream (and the stream keeps
// answering from its snapshot).
func TestProgressiveStreamDoesNotBlockWriters(t *testing.T) {
	db := progressiveDB(t, 8000)
	sql := `SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE (50 PERCENT)`
	ch, wait := db.QueryProgressive(context.Background(), sql, WithSeed(1), WithWaveRows(1024))
	if _, ok := <-ch; !ok {
		t.Fatal("stream ended before first update")
	}
	wrote := make(chan error, 1)
	go func() {
		_, err := db.CreateTable("w", Column{Name: "v", Type: Float})
		wrote <- err
	}()
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("catalog write blocked behind a live progressive stream")
	}
	if _, err := drain(ch, wait); err != nil {
		t.Fatal(err)
	}
}

// TestProgressiveReliabilityParity: a stream run to completion grades its
// interval exactly like the traced one-shot query — same reliability
// letter, same variance RSE — for SUM and AVG under Bernoulli, SYSTEM
// (grouped block lineage) and REPEATABLE sampling.
func TestProgressiveReliabilityParity(t *testing.T) {
	db := progressiveDB(t, 3000)
	var queries []string
	for _, from := range []string{
		"lineitem TABLESAMPLE (30 PERCENT)",
		"lineitem TABLESAMPLE SYSTEM (25)",
		"lineitem TABLESAMPLE (30 PERCENT) REPEATABLE (9)",
	} {
		queries = append(queries,
			"SELECT SUM(l_extendedprice*(1.0-l_discount)) AS rev FROM "+from+" WHERE l_quantity < 40.0",
			"SELECT AVG(l_extendedprice) AS avg_price FROM "+from+" WHERE l_quantity < 40.0")
	}
	for _, sql := range queries {
		for seed := uint64(1); seed <= 5; seed++ {
			opts := []Option{WithSeed(seed), WithWaveRows(1500)}
			want, err := db.Query(sql, append(opts, WithTrace(&Trace{}))...)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			ups, err := drain(db.QueryProgressive(context.Background(), sql, opts...))
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			last := ups[len(ups)-1]
			if !last.Final || len(ups) < 2 {
				t.Fatalf("%s: stream did not run in waves to completion (%d updates)", sql, len(ups))
			}
			for i, v := range want.Values {
				u := last.Values[i]
				if v.Reliability == "" || u.Reliability != v.Reliability {
					t.Fatalf("%s seed %d: reliability %q, one-shot %q", sql, seed, u.Reliability, v.Reliability)
				}
				if d := math.Abs(u.VarianceRSE - v.VarianceRSE); d > 1e-12*math.Abs(v.VarianceRSE) {
					t.Fatalf("%s seed %d: variance RSE %.17g, one-shot %.17g", sql, seed, u.VarianceRSE, v.VarianceRSE)
				}
			}
		}
	}
}
