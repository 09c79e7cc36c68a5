package main

import (
	"context"
	"fmt"

	"github.com/sampling-algebra/gus"
	"github.com/sampling-algebra/gus/internal/segment"
	"github.com/sampling-algebra/gus/internal/synopsis"
)

// replayReads is how many of a workload's reads the traced run replays,
// and streamProbes how many single-table reads of a one-shot workload it
// also replays as 1%-CI streams, so the online layer is measured on every
// workload's data.
var replayReads = map[string]int{adhoc: 64, progressive: 24, servedRW: 64}

const streamProbes = 8

// layers accumulates the traced run's per-layer samples (ms unless noted).
type layers struct {
	attempted, failed int // replayed reads, and those with any failure
	problems          int
	errs              []string
	// mismatched names layer metrics whose replay answer differed from
	// gus's; they are marked, not reported.
	mismatched map[string]bool

	gusSelf                     []float64
	parsePlan, analyze          []float64
	execute, estimate           []float64
	wave, onlineSelf            []float64
	fraction, updates           []float64
	tracedMS, untracedMS        float64
	tracedAlloc                 float64
	traced                      int
	segOpen, synBuild, snapshot []float64
}

func (l *layers) fail(layerNames []string, format string, args ...any) {
	l.problems++
	for _, n := range layerNames {
		l.mismatched[n] = true
	}
	if len(l.errs) < 5 {
		l.errs = append(l.errs, fmt.Sprintf(format, args...))
	}
}

var (
	oneShotLayers = []string{"gus.self_ms", "sqlparse.parse_plan_us", "plan.analyze_us", "engine.execute_ms", "estimator.estimate_ms"}
	streamLayers  = []string{"gus.self_ms", "sqlparse.parse_plan_us", "plan.analyze_us", "engine.wave_ms", "online.self_ms", "online.fraction_scanned", "online.waves_per_read"}
)

// traceRun replays reads single-client through each layer, runs the
// layer probes, and writes the spans to spansPath.
func (r *runner) traceRun(ctx context.Context, workDir, spansPath string) (*layers, error) {
	if err := r.e.saveSegments(workDir); err != nil {
		return nil, err
	}
	tr := newTracer()
	rp, err := newReplayer(r, tr)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	l := &layers{mismatched: map[string]bool{}}
	streams := 0
	for i, n := 0, 0; n < replayReads[r.w.name]; i++ {
		o := r.w.op(i)
		if o.kind == insertRow {
			continue
		}
		n++
		l.attempted++
		before := l.problems
		probe := o.kind == readOneShot && streams < streamProbes
		streamed, err := rp.replayOp(ctx, o, probe, l)
		if err != nil {
			l.fail(nil, "replay op %d (%s): %v", o.idx, opLabel(r.w, o), err)
		}
		if l.problems > before {
			l.failed++
		}
		if streamed && probe {
			streams++
		}
	}
	if err := rp.probes(l); err != nil {
		return nil, err
	}
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}
	return l, nil
}

// replayOp times op o through gus — untraced, then traced and untraced
// again in alternating order — and replays it through the layers. A
// one-shot read with probe set is also replayed as a stream when its plan
// can stream; streamed reports whether a stream was replayed.
func (rp *replayer) replayOp(ctx context.Context, o op, probe bool, l *layers) (streamed bool, err error) {
	first, err := rp.callGus(ctx, o)
	if err != nil {
		return false, err
	}
	var traced, untraced gusCall
	for k := 0; k < 2; k++ {
		if (k+o.idx)%2 == 0 {
			traced, err = rp.callGus(ctx, o, gus.WithTrace(&gus.Trace{}))
		} else {
			untraced, err = rp.callGus(ctx, o)
		}
		if err != nil {
			return false, err
		}
	}
	if !identical(traced.res, first.res) || !identical(untraced.res, first.res) {
		l.fail([]string{"obs.traced_slowdown", "obs.traced_alloc_kb_per_op"}, "op %d: traced answer differs from untraced", o.idx)
	} else {
		l.tracedMS += traced.ms
		l.untracedMS += untraced.ms
		l.tracedAlloc += traced.alloc
		l.traced++
	}

	oneShotWant := first
	if o.kind == readStream {
		// One-shot reference: what the same read costs without streaming.
		if oneShotWant, err = rp.callGus(ctx, op{idx: o.idx, kind: readOneShot, stmt: o.stmt, seed: o.seed}); err != nil {
			return false, err
		}
	}

	sql := rp.r.w.stmts[o.stmt]
	rep, t, err := rp.replayOneShot(sql, o.seed, o.idx)
	if err != nil {
		return false, err
	}
	if !identical(rep, oneShotWant.res) {
		l.fail(oneShotLayers, "op %d: one-shot replay differs from gus", o.idx)
	} else {
		l.parsePlan = append(l.parsePlan, t.pl.parse+t.pl.tmpl+t.pl.bind)
		l.analyze = append(l.analyze, t.analyze)
		l.execute = append(l.execute, t.execute)
		l.estimate = append(l.estimate, t.estimate)
		if o.kind == readOneShot {
			self := first.ms - t.pl.bind - t.analyze - t.execute - t.estimate
			if first.miss {
				self -= t.pl.parse + t.pl.tmpl
			}
			l.gusSelf = append(l.gusSelf, self)
		}
	}
	if o.kind == readOneShot && !probe {
		return false, nil
	}
	srep, st, ok, err := rp.replayStream(ctx, sql, o.seed, o.idx)
	if err != nil || (!ok && o.kind == readOneShot) {
		return false, err
	}
	streamWant := first
	if ok && o.kind == readOneShot {
		if streamWant, err = rp.callGus(ctx, op{idx: o.idx, kind: readStream, stmt: o.stmt, seed: o.seed}); err != nil {
			return true, err
		}
	}
	if !ok || !identical(srep, streamWant.res) {
		l.fail(streamLayers, "op %d: stream replay differs from gus (streamable %v)", o.idx, ok)
		return true, nil
	}
	l.parsePlan = append(l.parsePlan, st.pl.parse+st.pl.tmpl+st.pl.bind)
	l.analyze = append(l.analyze, st.analyze)
	l.wave = append(l.wave, st.prepare+st.waves)
	l.onlineSelf = append(l.onlineSelf, st.onlineSelf)
	l.fraction = append(l.fraction, st.fraction)
	l.updates = append(l.updates, float64(st.updates))
	if o.kind == readStream {
		self := first.ms - st.pl.bind - st.analyze - st.prepare - st.run
		if first.miss {
			self -= st.pl.parse + st.pl.tmpl
		}
		l.gusSelf = append(l.gusSelf, self)
	}
	return true, nil
}

// Probe repetitions: each probe's number is the median over them.
const (
	segOpenReps  = 5
	synBuildReps = 3
	snapshotReps = 5
)

// probes times the layers a workload's reads do not reach through direct
// calls on its data: a cold segment open, a lineitem synopsis build and
// a columnar snapshot rebuild right after an append.
func (rp *replayer) probes(l *layers) error {
	tr := rp.tr
	for rep := 0; rep < segOpenReps; rep++ {
		s := tr.begin("segment.open", -1, -1)
		var opened []*segment.Table
		var err error
		for _, path := range rp.files {
			var t *segment.Table
			if t, err = segment.Open("probe", path); err != nil {
				break
			}
			opened = append(opened, t)
		}
		l.segOpen = append(l.segOpen, tr.end(s))
		for _, t := range opened {
			t.Close()
		}
		if err != nil {
			return err
		}
	}
	li := rp.cat["lineitem"]
	for rep := 0; rep < synBuildReps; rep++ {
		s := tr.begin("synopsis.build", -1, -1)
		_, err := synopsis.Build(li, synopsis.Spec{Name: "probe", Rate: synopsisSpec.Rate}, 0)
		l.synBuild = append(l.synBuild, tr.end(s))
		if err != nil {
			return err
		}
	}
	for rep := 0; rep < snapshotReps; rep++ {
		if err := li.Append(mirroredRow()); err != nil {
			return err
		}
		s := tr.begin("relation.snapshot", -1, -1)
		li.Snapshot()
		l.snapshot = append(l.snapshot, tr.end(s))
	}
	return nil
}
