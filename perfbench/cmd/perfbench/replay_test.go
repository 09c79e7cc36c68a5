package main

import (
	"context"
	"path/filepath"
	"testing"
	"time"
)

// testOrders keeps the generated TPC-H tiny: a few thousand lineitem rows.
const testOrders = 400

func tinyRunner(t *testing.T, name string) (*runner, string) {
	t.Helper()
	w, err := newWorkload(name, 5, testOrders)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	e, err := setup(w, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.close(dir) })
	r := &runner{w: w, e: e}
	if err := r.computeExact(); err != nil {
		t.Fatal(err)
	}
	return r, dir
}

// TestReplayMatchesGus runs each workload's first ops (served-rw's
// inserts included), then the traced run: every replayed read must
// reproduce gus's answer bit for bit and every layer must get samples.
func TestReplayMatchesGus(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{adhoc, progressive, servedRW} {
		t.Run(name, func(t *testing.T) {
			r, dir := tinyRunner(t, name)
			for i := 0; i < 32; i++ {
				o := r.w.op(i)
				res, err := r.exec(ctx, o)
				if err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				if o.kind != insertRow {
					if err := check(res); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
				}
			}
			if name == servedRW && r.inserted.Load() == 0 {
				t.Fatal("served-rw issued no inserts")
			}
			l, err := r.traceRun(ctx, dir, filepath.Join(dir, "spans.json"))
			if err != nil {
				t.Fatal(err)
			}
			if l.failed != 0 {
				t.Fatalf("%d of %d replays failed: %v", l.failed, l.attempted, l.errs)
			}
			for layer, xs := range map[string][]float64{
				"gus.self": l.gusSelf, "parse_plan": l.parsePlan, "analyze": l.analyze,
				"execute": l.execute, "estimate": l.estimate, "wave": l.wave,
				"online.self": l.onlineSelf, "segment.open": l.segOpen,
				"synopsis.build": l.synBuild, "relation.snapshot": l.snapshot,
			} {
				if len(xs) == 0 {
					t.Errorf("layer %s got no samples", layer)
				}
			}
		})
	}
}

// TestReplayDetectsDifference: a replay with another seed must not pass
// as equal, or the bit-identity check would prove nothing.
func TestReplayDetectsDifference(t *testing.T) {
	ctx := context.Background()
	r, dir := tinyRunner(t, adhoc)
	if err := r.e.saveSegments(dir); err != nil {
		t.Fatal(err)
	}
	rp, err := newReplayer(r, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	defer rp.close()
	o := r.w.op(0)
	want, err := r.exec(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	sql := r.w.stmts[o.stmt]
	same, _, err := rp.replayOneShot(sql, o.seed, o.idx)
	if err != nil {
		t.Fatal(err)
	}
	if !identical(same, want) {
		t.Fatal("replay with the same seed differs from gus")
	}
	other, _, err := rp.replayOneShot(sql, o.seed+1, o.idx)
	if err != nil {
		t.Fatal(err)
	}
	if identical(other, want) {
		t.Fatal("replay with another seed reported identical to gus")
	}
}

// TestOpSequenceIsDeterministic: ops are a pure function of (seed, index)
// and the served-rw cycle holds 3+3+1 reads and one insert.
func TestOpSequenceIsDeterministic(t *testing.T) {
	a, _ := newWorkload(servedRW, 9, testOrders)
	b, _ := newWorkload(servedRW, 9, testOrders)
	c, _ := newWorkload(servedRW, 10, testOrders)
	differs := false
	inserts := 0
	for i := 0; i < 64; i++ {
		if a.op(i) != b.op(i) {
			t.Fatalf("op %d differs between two workloads with the same seed", i)
		}
		if a.op(i) != c.op(i) {
			differs = true
		}
		if a.op(i).kind == insertRow {
			inserts++
		}
	}
	if !differs {
		t.Error("seeds 9 and 10 produced the same op sequence")
	}
	if inserts != 8 {
		t.Errorf("%d inserts in 8 cycles, want 8", inserts)
	}
}

// TestWindowTiny drives the 2-client closed loop briefly on each workload
// (run it with -race): no op may fail, every part of the window must see
// ops, and the serial re-run must reproduce the timed answers.
func TestWindowTiny(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{adhoc, progressive, servedRW} {
		t.Run(name, func(t *testing.T) {
			r, _ := tinyRunner(t, name)
			d := 500 * time.Millisecond
			win := r.runWindow(ctx, d, 0)
			if win.failed != 0 {
				t.Fatalf("%d of %d ops failed: %v", win.failed, win.ops, win.errs)
			}
			if name == servedRW && len(win.writes) == 0 {
				t.Error("served-rw window issued no inserts")
			}
			for i, part := range split(win.reads, d.Seconds()/subWindows) {
				if len(part) == 0 {
					t.Errorf("part %d of the window has no reads", i)
				}
			}
			if win.intervals == 0 || win.covered > win.intervals {
				t.Errorf("coverage %d/%d", win.covered, win.intervals)
			}
			checked, mismatched, errs := r.recheck(ctx, win.kept)
			if checked == 0 || mismatched != 0 {
				t.Errorf("recheck: %d checked, %d differed: %v", checked, mismatched, errs)
			}
		})
	}
}

// TestDealtIsBalanced: every round of n ops holds each statement once.
func TestDealtIsBalanced(t *testing.T) {
	const n = 16
	for round := 0; round < 4; round++ {
		seen := make([]bool, n)
		for k := round * n; k < (round+1)*n; k++ {
			s := dealt(7, k, n)
			if seen[s] {
				t.Fatalf("round %d deals statement %d twice", round, s)
			}
			seen[s] = true
		}
	}
	if dealt(7, 0, n) == dealt(7, n, n) && dealt(7, 1, n) == dealt(7, n+1, n) && dealt(7, 2, n) == dealt(7, n+2, n) {
		t.Error("rounds repeat the same order")
	}
}

// TestSetupProbesOtherDBs: set-up probes probeDBs DBs of its own and
// leaves the kept DB's lineitem as generated.
func TestSetupProbesOtherDBs(t *testing.T) {
	r, _ := tinyRunner(t, adhoc)
	if len(r.e.probe) != probeDBs {
		t.Fatalf("%d probed DBs, want %d", len(r.e.probe), probeDBs)
	}
	for i, groups := range r.e.probe {
		if len(groups) != probeGroups || percentile(groups, 0) <= 0 {
			t.Fatalf("DB %d: %d groups, fastest %v ms", i, len(groups), percentile(groups, 0))
		}
	}
	res, err := r.e.db.Exact("SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity > 999")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Values[0].Estimate; n != 0 {
		t.Errorf("kept DB holds %v probe rows", n)
	}
}
