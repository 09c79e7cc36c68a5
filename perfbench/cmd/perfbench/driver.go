package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sampling-algebra/gus"
)

// clients is the closed loop's width: one per core of the reference
// host, each sending its next op only when the previous one returned.
const clients = 2

// runner executes a workload's ops against one DB.
type runner struct {
	w     *workload
	e     *env
	exact []result // exact answer per statement; computed at set-up
	// inserted counts rows appended to lineitem through Table.Insert, so
	// the replay catalog can mirror them.
	inserted atomic.Int64
}

// exec runs one op and returns the read's answer (zero for inserts).
func (r *runner) exec(ctx context.Context, o op, opts ...gus.Option) (result, error) {
	opts = append(opts, gus.WithSeed(o.seed))
	switch o.kind {
	case insertRow:
		if err := r.e.lineitem.Insert(insertValues...); err != nil {
			return result{}, err
		}
		r.inserted.Add(1)
		return result{}, nil
	case readStream:
		opts = append(opts, gus.WithTargetRelativeCI(targetRelCI))
		ch, wait := r.e.db.QueryProgressive(ctx, r.w.stmts[o.stmt], opts...)
		var last gus.Update
		for u := range ch {
			last = u
		}
		if err := wait(); err != nil {
			return result{}, err
		}
		if !last.Done {
			return result{}, fmt.Errorf("stream closed without a final update")
		}
		return fromUpdate(last), nil
	default:
		res, err := r.e.db.QueryContext(ctx, r.w.stmts[o.stmt], opts...)
		if err != nil {
			return result{}, err
		}
		return fromResult(res), nil
	}
}

// computeExact runs every distinct statement once through db.Exact.
func (r *runner) computeExact() error {
	r.exact = make([]result, len(r.w.stmts))
	for i, sql := range r.w.stmts {
		res, err := r.e.db.Exact(sql)
		if err != nil {
			return fmt.Errorf("exact %q: %w", sql, err)
		}
		r.exact[i] = fromResult(res)
	}
	return nil
}

// warmUpOps is the start of the op range the warm-up draws from; the
// timed window starts at op 0 and never reaches it.
const warmUpOps = 1 << 40

// warmUpFor is how long the closed loop runs untimed before the window,
// so snapshots, compiled kernels, cached plans and the heap have settled.
func warmUpFor(d time.Duration) time.Duration {
	return min(max(d/10, time.Second), 3*time.Second)
}

// recheckEvery selects the fixed subset of ops (index a multiple of it)
// whose timed answers are kept and re-run serially after the window.
const (
	recheckEvery = 16
	recheckMax   = 48
)

// timed is one op's start, in seconds since the window opened, and its
// latency in milliseconds (+Inf for a failed op).
type timed struct {
	at, ms float64
}

// clientLog is one client's record of the window; merged after.
type clientLog struct {
	reads, writes  []timed
	failed         int
	covered, total int
	kept           map[int]result // answers of recheck ops, by op index
	errs           []string
}

// window is the closed loop's outcome.
type window struct {
	ops, failed        int
	reads, writes      []timed
	covered, intervals int
	elapsed            float64 // seconds
	kept               map[int]result
	errs               []string

	allocBytes, gcCPU, totalCPU, heapPeak float64
	plans                                 [2]gus.PlanCacheStats
	deltas                                map[string]float64
}

// runWindow drives the closed loop for d from op first on, then lets
// in-flight ops finish.
func (r *runner) runWindow(ctx context.Context, d time.Duration, first int) *window {
	var next atomic.Int64
	logs := make([]clientLog, clients)
	runtime.GC()
	w := &window{kept: map[int]result{}}
	w.plans[0] = r.e.db.PlanCacheStats()
	before := r.e.db.MetricsSnapshot()
	rt0 := readRuntime()

	// Peak live heap: sampled every 10ms while the window runs.
	stop := make(chan struct{})
	var samplerDone sync.WaitGroup
	samplerDone.Add(1)
	peak := rt0.heapBytes
	go func() {
		defer samplerDone.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				peak = math.Max(peak, readRuntime().heapBytes)
			}
		}
	}()

	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(l *clientLog) {
			defer wg.Done()
			l.kept = map[int]result{}
			for time.Now().Before(deadline) {
				o := r.w.op(first + int(next.Add(1)-1))
				t0 := time.Now()
				at := t0.Sub(start).Seconds()
				res, err := r.exec(ctx, o)
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				if err == nil && o.kind != insertRow {
					err = check(res)
				}
				if err != nil {
					l.failed++
					ms = math.Inf(1)
					if len(l.errs) < 5 {
						l.errs = append(l.errs, fmt.Sprintf("op %d (%s): %v", o.idx, opLabel(r.w, o), err))
					}
				}
				if o.kind == insertRow {
					l.writes = append(l.writes, timed{at, ms})
					continue
				}
				l.reads = append(l.reads, timed{at, ms})
				if err != nil {
					continue
				}
				c, t := coverage(res, r.exact[o.stmt])
				l.covered += c
				l.total += t
				if o.idx%recheckEvery == 0 && o.idx/recheckEvery < recheckMax {
					l.kept[o.idx] = res
				}
			}
		}(&logs[c])
	}
	wg.Wait()
	w.elapsed = time.Since(start).Seconds()
	close(stop)
	samplerDone.Wait()

	rt1 := readRuntime()
	w.plans[1] = r.e.db.PlanCacheStats()
	w.deltas = metricDeltas(before, r.e.db.MetricsSnapshot())
	w.allocBytes = rt1.allocBytes - rt0.allocBytes
	w.gcCPU = rt1.gcCPU - rt0.gcCPU
	w.totalCPU = rt1.totalCPU - rt0.totalCPU
	w.heapPeak = math.Max(peak, rt1.heapBytes)
	for i := range logs {
		l := &logs[i]
		w.reads = append(w.reads, l.reads...)
		w.writes = append(w.writes, l.writes...)
		w.failed += l.failed
		w.covered += l.covered
		w.intervals += l.total
		w.errs = append(w.errs, l.errs...)
		for k, v := range l.kept {
			w.kept[k] = v
		}
	}
	w.ops = len(w.reads) + len(w.writes)
	return w
}

// recheck re-runs the kept ops one at a time and counts those whose
// answer differs in any bit from the timed run's.
func (r *runner) recheck(ctx context.Context, kept map[int]result) (checked, mismatched int, errs []string) {
	for i := 0; i < recheckMax*recheckEvery; i += recheckEvery {
		want, ok := kept[i]
		if !ok {
			continue
		}
		o := r.w.op(i)
		checked++
		got, err := r.exec(ctx, o)
		if err != nil || !identical(got, want) {
			mismatched++
			if len(errs) < 5 {
				errs = append(errs, fmt.Sprintf("recheck op %d (%s): serial answer differs from timed answer (err %v)", i, opLabel(r.w, o), err))
			}
		}
	}
	return checked, mismatched, errs
}

// insertProbe appends (probeWarmGroups+probeGroups)×insertGroup rows to
// db's lineitem through Table.Insert with no concurrent reader and returns the mean
// latency of one insert in each of the last probeGroups groups, in
// milliseconds. An uncontended insert takes well under a microsecond, so
// timing each one alone would mostly measure the clock. The first groups
// after a collection run slower while the allocator refills its caches,
// so they go untimed.
func insertProbe(db *gus.DB) ([]float64, error) {
	t, err := db.Table("lineitem")
	if err != nil {
		return nil, err
	}
	runtime.GC()
	groups := make([]float64, probeWarmGroups+probeGroups)
	for g := range groups {
		t0 := time.Now()
		for i := 0; i < insertGroup; i++ {
			if err := t.Insert(insertValues...); err != nil {
				return nil, err
			}
		}
		groups[g] = float64(time.Since(t0).Nanoseconds()) / 1e6 / insertGroup
	}
	return groups[probeWarmGroups:], nil
}

// Insert probe shape: probeDBs DBs made for it, each given probeGroups
// timed groups of insertGroup inserts. The figures are medians over DBs.
const (
	probeDBs        = 5
	probeWarmGroups = 256
	probeGroups     = 1024
	insertGroup     = 64
)

func opLabel(w *workload, o op) string {
	if o.kind == insertRow {
		return "insert"
	}
	return w.stmts[o.stmt]
}
