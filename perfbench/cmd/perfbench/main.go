// Command perfbench is the repository's benchmark: it drives the public
// gus API with a closed loop of 2 clients on one of three workloads,
// checks every answer, and prints the end-to-end metrics (--trace 0) or
// the per-layer metrics from a single-client replay through each layer's
// public functions (--trace 1). The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it first:
//
//	bash perfbench/run.sh --workload adhoc --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// outDir holds everything a run leaves behind: its scratch data (removed
// at exit) and the span files of traced runs.
const outDir = ".bench_build/perfbench-out"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: adhoc, progressive or served-rw")
	seed := flag.Uint64("seed", 1, "workload seed: fixes the generated data and the op sequence")
	seconds := flag.Int("seconds", 30, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced replay")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	w, err := newWorkload(*name, *seed, tpchOrders)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	rep, err := bench(w, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// out collects the metrics of one run and prints each with its base.
type out struct {
	metrics map[string]metric
	missing []string
}

func (o *out) add(name, unit string, v float64, base string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		o.missing = append(o.missing, name)
		fmt.Printf("%-32s unavailable (%s)\n", name, base)
		return
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Printf("%-32s %.6g %s  (%s)\n", name, v, unit, base)
}

// mark reports a layer metric whose replay disagreed with gus.
func (o *out) mark(name string) {
	o.missing = append(o.missing, name)
	fmt.Printf("%-32s MISMATCH: replay answer differs from gus; not reported\n", name)
}

func bench(w *workload, d time.Duration, traced bool) (*report, error) {
	ctx := context.Background()
	workDir := filepath.Join(outDir, fmt.Sprintf("run-%s-%d-%d", w.name, w.seed, os.Getpid()))
	fmt.Printf("host nproc=%d gomaxprocs=%d go=%s rev=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), revision())
	fmt.Printf("workload %s seed %d: closed loop, %d clients, %v window, trace=%v\n", w.name, w.seed, clients, d, traced)

	e, err := setup(w, workDir)
	if err != nil {
		os.RemoveAll(workDir)
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer e.close(workDir)
	r := &runner{w: w, e: e}
	if err := r.computeExact(); err != nil {
		return nil, err
	}
	warm := r.runWindow(ctx, warmUpFor(d), warmUpOps)
	win := r.runWindow(ctx, d, 0)
	checked, mismatched, recheckErrs := r.recheck(ctx, win.kept)
	rep := &report{Attempted: warm.ops + win.ops + checked, Failed: warm.failed + win.failed + mismatched}
	errs := append(append(warm.errs, win.errs...), recheckErrs...)
	fmt.Printf("checks: %d ops in %.3g s warm-up, %d failed; %d ops in window, %d failed; %d re-run serially, %d differed\n",
		warm.ops, warm.elapsed, warm.failed, win.ops, win.failed, checked, mismatched)

	var l *layers
	if traced {
		spans := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, w.seed))
		if l, err = r.traceRun(ctx, workDir, spans); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		rep.Attempted += l.attempted
		rep.Failed += l.failed
		errs = append(errs, l.errs...)
		fmt.Printf("traced run: %d reads replayed, %d failed; spans in %s\n", l.attempted, l.failed, spans)
	}
	for _, msg := range errs {
		fmt.Println("FAIL", msg)
	}

	o := &out{metrics: map[string]metric{}}
	if traced {
		layerMetrics(o, win, l, e.probe)
	} else {
		endToEnd(o, w, e, win, d, e.probe)
	}
	rep.Metrics = o.metrics
	rep.Correct = rep.Failed == 0 && len(o.missing) == 0
	return rep, nil
}

// subWindows is how many equal parts the timed window is cut into by op
// start time. Latency and throughput are computed per part and reported
// as the median over parts, so a burst of outside load on the host that
// hits one part does not move the run's figures.
const subWindows = 5

// split buckets ops by start time into subWindows parts of secs seconds;
// the clamp keeps an op started right at the deadline in the last part.
func split(ops []timed, secs float64) [][]float64 {
	parts := make([][]float64, subWindows)
	for _, t := range ops {
		i := min(int(t.at/secs), subWindows-1)
		parts[i] = append(parts[i], t.ms)
	}
	return parts
}

func endToEnd(o *out, w *workload, e *env, win *window, d time.Duration, probe [][]float64) {
	o.add("setup_s", "s", median(e.setup), fmt.Sprintf("median of %d set-ups", len(e.setup)))
	if w.name == servedRW {
		fmt.Printf("  set-up parts: OpenDir median %.4g s, CreateSynopsis median %.4g s\n", median(e.segOpen), median(e.synBuild))
	}
	kind := "reads"
	if w.name == progressive {
		kind = "streams to a 1% CI"
	}
	secs := d.Seconds() / subWindows
	reads := split(win.reads, secs)
	// perPart is the median over parts of f; the parts' own values are
	// printed as the figure's spread within the run.
	perPart := func(name string, parts [][]float64, f func([]float64) float64) float64 {
		vals := make([]float64, len(parts))
		for i, p := range parts {
			vals[i] = f(p)
		}
		fmt.Printf("  %s: %.4g\n", name, vals)
		return median(vals)
	}
	p50 := func(xs []float64) float64 { return percentile(xs, 0.5) }
	p95 := func(xs []float64) float64 { return percentile(xs, 0.95) }
	qps := func(xs []float64) float64 { return float64(len(xs)-countInf(xs)) / secs }
	parts := fmt.Sprintf("median over %d parts of %.3g s; %d %s in all", subWindows, secs, len(win.reads), kind)
	o.add("read_p50_ms", "ms", perPart("read_p50_ms per part", reads, p50), parts)
	o.add("read_p95_ms", "ms", perPart("read_p95_ms per part", reads, p95), parts)
	o.add("read_qps", "1/s", perPart("read_qps per part", reads, qps), parts+", counting completed reads by start time")
	if w.name == servedRW {
		// One insert per 8 ops is too few for a p95 per part: these take
		// the whole window.
		writes := make([]float64, len(win.writes))
		for i, t := range win.writes {
			writes[i] = t.ms
		}
		base := fmt.Sprintf("whole window; n=%d inserts under the read load", len(writes))
		o.add("write_p50_ms", "ms", p50(writes), base)
		o.add("write_p95_ms", "ms", p95(writes), base)
	} else {
		base := fmt.Sprintf("median over %d DBs made for the probe, each given %d timed groups of %d uncontended inserts, mean per insert; this workload writes nothing", len(probe), probeGroups, insertGroup)
		o.add("write_p50_ms", "ms", perPart("write_p50_ms per DB", probe, p50), base)
		o.add("write_p95_ms", "ms", perPart("write_p95_ms per DB", probe, p95), base)
	}
	cov := ratio{float64(win.covered), float64(win.intervals)}
	o.add("ci_coverage", "ratio", cov.value(), fmt.Sprintf("%d of %d returned intervals contain the exact answer", win.covered, win.intervals))
	o.add("alloc_kb_per_op", "KB", win.allocBytes/1024/float64(win.ops), fmt.Sprintf("%.0f bytes / %d ops", win.allocBytes, win.ops))
}

func layerMetrics(o *out, win *window, l *layers, probe [][]float64) {
	d := win.deltas
	hits := float64(win.plans[1].Hits - win.plans[0].Hits)
	misses := float64(win.plans[1].Misses - win.plans[0].Misses)
	pc := ratio{hits, hits + misses}
	o.add("gus.plan_cache_hit_ratio", "ratio", pc.value(), "plan-cache hits / lookups in the window: "+pc.String())

	queries := d["gus_queries_total{ok}"]
	perRead := func(name, counter string) {
		r := ratio{d[counter], queries}
		o.add(name, "count", r.value(), counter+" / completed queries: "+r.String())
	}
	perRead("engine.rows_scanned_per_read", "gus_rows_scanned_total")
	perRead("engine.sample_rows_per_read", "gus_sample_rows_total")
	perRead("engine.partitions_skipped_per_read", "gus_partitions_skipped_total")
	if stops, _ := family(d, "gus_progressive_stop_total"); len(stops) > 0 {
		fmt.Printf("  progressive stop reasons: %v\n", stops)
	}
	missReasons, misses := family(d, "gus_synopsis_misses_total")
	syn := ratio{d["gus_synopsis_hits_total"], d["gus_synopsis_hits_total"] + misses}
	o.add("synopsis.hit_ratio", "ratio", syn.value(), "synopsis hits / sampled scans: "+syn.String())
	if len(missReasons) > 0 {
		fmt.Printf("  synopsis misses by reason: %v\n", missReasons)
	}
	gc := ratio{win.gcCPU, win.totalCPU}
	o.add("runtime.gc_cpu_fraction", "ratio", gc.value(), "GC CPU s / total CPU s in the window: "+gc.String())
	o.add("runtime.heap_peak_mb", "MB", win.heapPeak/(1<<20), "peak live heap objects, sampled every 10ms")

	layer := func(name, unit string, xs []float64, scale float64, base string) {
		if l.mismatched[name] {
			o.mark(name)
			return
		}
		o.add(name, unit, median(xs)*scale, fmt.Sprintf("median of %d; %s", len(xs), base))
	}
	layer("gus.self_ms", "ms", l.gusSelf, 1, "untraced gus latency minus replayed layers: plan cache, synopsis rewrite, pruning, grouping, metrics")
	layer("sqlparse.parse_plan_us", "us", l.parsePlan, 1000, "Parse + PlanTemplate + Bind")
	layer("plan.analyze_us", "us", l.analyze, 1000, "plan.Analyze")
	layer("engine.execute_ms", "ms", l.execute, 1, "Engine.ExecuteBatch per one-shot read")
	layer("estimator.estimate_ms", "ms", l.estimate, 1, "EstimateBatch/RatioBatch per one-shot read")
	layer("engine.wave_ms", "ms", l.wave, 1, "PrepareWaves + ExecuteWave over the waves each 1%-CI stream read")
	layer("online.self_ms", "ms", l.onlineSelf, 1, "online.Executor.Run minus its replayed waves")
	layer("online.fraction_scanned", "ratio", l.fraction, 1, "final FractionScanned per stream")
	layer("online.waves_per_read", "count", l.updates, 1, "updates per stream")
	layer("synopsis.build_ms", "ms", l.synBuild, 1, "synopsis.Build of a 2% lineitem synopsis")
	layer("segment.open_ms", "ms", l.segOpen, 1, "segment.Open of every table file")
	layer("relation.snapshot_ms", "ms", l.snapshot, 1, "Relation.Snapshot of segment-backed lineitem after an append")
	var groups []float64
	for _, db := range probe {
		groups = append(groups, db...)
	}
	layer("relation.insert_us", "us", groups, 1000, fmt.Sprintf("groups of %d Table.Insert calls with no concurrent reader on %d DBs made for the probe, mean per insert", insertGroup, len(probe)))
	slow := ratio{l.tracedMS, l.untracedMS}
	if l.mismatched["obs.traced_slowdown"] {
		o.mark("obs.traced_slowdown")
		o.mark("obs.traced_alloc_kb_per_op")
		return
	}
	o.add("obs.traced_slowdown", "x", slow.value(), fmt.Sprintf("traced / untraced ms over %d reads: %s", l.traced, slow))
	o.add("obs.traced_alloc_kb_per_op", "KB", l.tracedAlloc/1024/float64(l.traced), fmt.Sprintf("heap bytes per traced read over %d reads", l.traced))
}

func countInf(xs []float64) int {
	n := 0
	for _, x := range xs {
		if math.IsInf(x, 1) {
			n++
		}
	}
	return n
}

// revision is the VCS revision the binary was built from, when the build
// could see one.
func revision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
