package main

// The traced run: single-client replays of workload reads through the
// public functions of each layer, with spans kept in memory around every
// call. A replay reproduces what gus does between those calls (synopsis
// rewrite, column pruning, GROUP BY partitioning, aggregate wiring) as
// untimed glue, so its answer must match gus bit for bit; that glue's cost
// in gus stays in gus.self_ms.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/sampling-algebra/gus"
	"github.com/sampling-algebra/gus/internal/batch"
	"github.com/sampling-algebra/gus/internal/core"
	"github.com/sampling-algebra/gus/internal/engine"
	"github.com/sampling-algebra/gus/internal/estimator"
	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/online"
	"github.com/sampling-algebra/gus/internal/plan"
	"github.com/sampling-algebra/gus/internal/relation"
	"github.com/sampling-algebra/gus/internal/sampling"
	"github.com/sampling-algebra/gus/internal/segment"
	"github.com/sampling-algebra/gus/internal/sqlparse"
	"github.com/sampling-algebra/gus/internal/stats"
	"github.com/sampling-algebra/gus/internal/synopsis"
)

// span is one timed call: name, interval (ns since the tracer started)
// and the span that caused it (-1 for a root). Op is the replayed op's
// index, -1 for layer probes.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

// end closes span id and returns its duration in milliseconds.
func (t *tracer) end(id int) float64 {
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	return t.ms(id)
}

func (t *tracer) ms(id int) float64 { return float64(t.spans[id].End-t.spans[id].Start) / 1e6 }

// selfMS is a span's duration minus its children's durations. Children
// may be replays timed after the parent returned (a stream's waves), so
// the subtraction is by duration, not by covered interval.
func (t *tracer) selfMS(id int) float64 {
	self := t.ms(id)
	for i := id + 1; i < len(t.spans); i++ {
		if t.spans[i].Parent == id {
			self -= t.ms(i)
		}
	}
	return self
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// catalog resolves table names for the replay planner.
type catalog map[string]*relation.Relation

func (c catalog) Table(name string) (*relation.Relation, bool) {
	rel, ok := c[name]
	return rel, ok
}

// replayer holds the replay catalog: the workload's tables opened from
// segment files, with the rows the workload inserted mirrored onto
// lineitem, and (served-rw) the same synopsis the DB serves from.
type replayer struct {
	r       *runner
	tr      *tracer
	cat     catalog
	segs    []*segment.Table
	files   []string
	syn     *synopsis.Synopsis
	workers int
}

func mirroredRow() relation.Tuple {
	return relation.Tuple{relation.Int(0), relation.Int(1), relation.Int(0), relation.Float(insertQuantity), relation.Float(1), relation.Float(0), relation.Float(0)}
}

func newReplayer(r *runner, tr *tracer) (*replayer, error) {
	rp := &replayer{r: r, tr: tr, cat: catalog{}, workers: runtime.GOMAXPROCS(0)}
	entries, err := os.ReadDir(r.e.dataDir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), segment.Ext) {
			continue
		}
		path := filepath.Join(r.e.dataDir, e.Name())
		t, err := segment.Open(strings.TrimSuffix(e.Name(), segment.Ext), path)
		if err != nil {
			rp.close()
			return nil, err
		}
		rp.segs = append(rp.segs, t)
		rp.files = append(rp.files, path)
		rp.cat[t.Rel.Name()] = t.Rel
	}
	li, ok := rp.cat["lineitem"]
	if !ok {
		rp.close()
		return nil, fmt.Errorf("no lineitem segment in %s", r.e.dataDir)
	}
	for i := int64(0); i < r.inserted.Load(); i++ {
		if err := li.Append(mirroredRow()); err != nil {
			rp.close()
			return nil, err
		}
	}
	if r.w.name == servedRW {
		// Coordinated sampling makes membership a function of the row's
		// lineage id, so a build over the mirrored table equals the DB's
		// maintained synopsis.
		rp.syn, err = synopsis.Build(li, synopsis.Spec{Name: synopsisSpec.Name, Rate: synopsisSpec.Rate, Seed: synopsisSpec.Seed}, 0)
		if err != nil {
			rp.close()
			return nil, err
		}
	}
	return rp, nil
}

func (rp *replayer) close() {
	for _, t := range rp.segs {
		t.Close()
	}
	rp.segs = nil
}

// planned is one replayed statement after the sqlparse layer and glue.
type planned struct {
	p                 *sqlparse.Planned
	root              plan.Node
	parse, tmpl, bind float64 // ms
}

func (rp *replayer) plan(sql string, seed uint64, parent, opIdx int) (*planned, error) {
	tr := rp.tr
	s := tr.begin("sqlparse.parse", parent, opIdx)
	q, err := sqlparse.Parse(sql)
	pl := &planned{parse: tr.end(s)}
	if err != nil {
		return nil, err
	}
	s = tr.begin("sqlparse.plan_template", parent, opIdx)
	tmpl, err := sqlparse.PlanTemplate(q, rp.cat)
	pl.tmpl = tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("sqlparse.bind", parent, opIdx)
	pl.p, err = tmpl.Bind(nil, sqlparse.PlannerOptions{SystemBlockSize: 32, Seed: seed})
	pl.bind = tr.end(s)
	if err != nil {
		return nil, err
	}
	pl.root = pruneColumns(pl.p, rp.rewriteSynopsis(pl.p.Root))
	return pl, nil
}

// oneShot is a one-shot replay's layer times in milliseconds.
type oneShot struct {
	pl                         *planned
	analyze, execute, estimate float64
}

// replayOneShot runs a statement the way db.Query does.
func (rp *replayer) replayOneShot(sql string, seed uint64, opIdx int) (result, *oneShot, error) {
	tr := rp.tr
	root := tr.begin("replay.oneshot", -1, opIdx)
	defer tr.end(root)
	pl, err := rp.plan(sql, seed, root, opIdx)
	if err != nil {
		return result{}, nil, err
	}
	t := &oneShot{pl: pl}
	s := tr.begin("plan.analyze", root, opIdx)
	an, err := plan.Analyze(pl.root)
	t.analyze = tr.end(s)
	if err != nil {
		return result{}, nil, err
	}
	eng := engine.New(engine.Config{Workers: rp.workers})
	s = tr.begin("engine.execute", root, opIdx)
	b, err := eng.ExecuteBatch(pl.root, seed)
	t.execute = tr.end(s)
	if err != nil {
		return result{}, nil, err
	}
	defer b.Release()
	out := result{sampleRows: b.Len()}
	parts := []*batch.Batch{b}
	keys := []string{""}
	if pl.p.GroupBy != "" {
		if keys, parts, err = groupBatch(b, pl.p.GroupBy); err != nil {
			return result{}, nil, err
		}
	}
	eopts := estimator.Options{Seed: seed + 0x5b0c, Workers: rp.workers, DistinctLineage: distinctLineage(pl.root)}
	for i, part := range parts {
		g := resultGroup{key: keys[i]}
		for _, agg := range pl.p.Aggregates {
			s = tr.begin("estimator.estimate", root, opIdx)
			v, err := estimateAgg(an.G, part, agg, eopts)
			t.estimate += tr.end(s)
			if err != nil {
				return result{}, nil, err
			}
			g.vals = append(g.vals, v)
		}
		out.groups = append(out.groups, g)
	}
	return out, t, nil
}

// stream is a progressive replay's layer times (ms) and shape.
type stream struct {
	pl                    *planned
	analyze, prepare, run float64
	waves, onlineSelf     float64
	fraction              float64
	updates               int
}

// replayStream runs a statement the way db.QueryProgressive does with a
// 1% target, then re-executes the waves the stream read to time them.
// ok is false when the plan cannot stream (gus falls back to one-shot).
func (rp *replayer) replayStream(ctx context.Context, sql string, seed uint64, opIdx int) (res result, t *stream, ok bool, err error) {
	tr := rp.tr
	root := tr.begin("replay.stream", -1, opIdx)
	defer tr.end(root)
	pl, err := rp.plan(sql, seed, root, opIdx)
	if err != nil || pl.p.GroupBy != "" {
		return result{}, nil, false, err
	}
	t = &stream{pl: pl}
	s := tr.begin("plan.analyze", root, opIdx)
	an, err := plan.Analyze(pl.root)
	t.analyze = tr.end(s)
	if err != nil {
		return result{}, nil, false, err
	}
	eng := engine.New(engine.Config{Workers: rp.workers, Context: ctx})
	s = tr.begin("engine.prepare_waves", root, opIdx)
	waves, err := eng.PrepareWaves(pl.root, seed)
	t.prepare = tr.end(s)
	if err != nil || waves == nil {
		return result{}, nil, false, err
	}
	items, err := streamItems(pl.p.Aggregates)
	if err != nil {
		return result{}, nil, false, err
	}
	ex := &online.Executor{G: an.G, Waves: waves, Items: items, Cfg: online.Config{TargetRelCI: targetRelCI, Level: 0.95, Method: estimator.Normal}}
	var scanned []int
	var last online.Update
	run := tr.begin("online.run", root, opIdx)
	err = ex.Run(ctx, func(u online.Update) bool {
		scanned = append(scanned, u.RowsScanned)
		last = u
		return true
	})
	t.run = tr.end(run)
	if err != nil {
		return result{}, nil, false, err
	}
	if !last.Done {
		return result{}, nil, false, fmt.Errorf("stream replay ended without a final update")
	}
	pLo := 0
	for _, rows := range scanned {
		pHi := pLo
		for pHi < waves.Partitions() && waves.RowsThrough(pHi) < rows {
			pHi++
		}
		s := tr.begin("engine.execute_wave", run, opIdx)
		_, err := waves.ExecuteWave(pLo, pHi)
		t.waves += tr.end(s)
		if err != nil {
			return result{}, nil, false, err
		}
		pLo = pHi
	}
	t.onlineSelf = tr.selfMS(run)
	t.fraction, t.updates = last.FractionScanned, len(scanned)
	return fromOnline(last), t, true, nil
}

// rewriteSynopsis serves Sample(Scan(T)) from the replay synopsis where
// it subsumes the sampling method, exactly as gus's planner does.
func (rp *replayer) rewriteSynopsis(n plan.Node) plan.Node {
	if rp.syn == nil {
		return n
	}
	switch t := n.(type) {
	case *plan.Sample:
		if scan, ok := t.Input.(*plan.Scan); ok && scan.Synopsis == "" && scan.Rel.Name() == rp.syn.Table {
			alias := scan.Rel.Name()
			if scan.Alias != "" {
				alias = scan.Alias
			}
			d := rp.syn.Subsumes(t.Method, alias, scan.Rel.Len())
			g, err := core.Bernoulli(alias, rp.syn.MinRate)
			if !d.OK || err != nil {
				return t
			}
			return &plan.Sample{
				Input:  &plan.GUS{Input: &plan.Scan{Rel: rp.syn.Rel, Alias: alias, Synopsis: rp.syn.Name, FullRows: scan.Rel.Len()}, G: g},
				Method: &sampling.Residual{Rel: alias, P: d.P, Q: rp.syn.MinRate, Hash: rp.syn.HashSeed, Nested: d.Nested},
			}
		}
		return &plan.Sample{Input: rp.rewriteSynopsis(t.Input), Method: t.Method}
	case *plan.GUS:
		return &plan.GUS{Input: rp.rewriteSynopsis(t.Input), G: t.G}
	case *plan.Select:
		return &plan.Select{Input: rp.rewriteSynopsis(t.Input), Pred: t.Pred}
	case *plan.Project:
		return &plan.Project{Input: rp.rewriteSynopsis(t.Input), Names: t.Names, Exprs: t.Exprs}
	case *plan.Join:
		return &plan.Join{Left: rp.rewriteSynopsis(t.Left), Right: rp.rewriteSynopsis(t.Right), LeftCol: t.LeftCol, RightCol: t.RightCol}
	default:
		// Scans, and node kinds these workloads never plan; a rewrite
		// missed below one would fail the bit-identity check.
		return n
	}
}

// pruneColumns narrows every scan to the columns the query reads, as
// gus does before execution (pruning never changes sampled rows).
func pruneColumns(p *sqlparse.Planned, root plan.Node) plan.Node {
	need := map[string]bool{}
	add := func(cols []string) {
		for _, c := range cols {
			need[c] = true
		}
	}
	for _, a := range p.Aggregates {
		if a.Arg != nil {
			add(expr.Columns(a.Arg))
		}
	}
	if p.GroupBy != "" {
		need[p.GroupBy] = true
	}
	plan.Walk(root, func(n plan.Node) {
		switch t := n.(type) {
		case *plan.Select:
			add(expr.Columns(t.Pred))
		case *plan.Join:
			add([]string{t.LeftCol, t.RightCol})
		case *plan.Theta:
			add(expr.Columns(t.Pred))
		case *plan.Project:
			for _, e := range t.Exprs {
				add(expr.Columns(e))
			}
		}
	})
	return plan.WrapScans(root, func(s *plan.Scan) plan.Node {
		sch := s.Rel.Schema()
		var kept []string
		for _, c := range sch.Columns() {
			if need[c.Name] {
				kept = append(kept, c.Name)
			}
		}
		if len(kept) == sch.Len() {
			return s
		}
		if len(kept) == 0 {
			kept = []string{sch.Col(0).Name}
		}
		return &plan.Scan{Rel: s.Rel, Alias: s.Alias, Synopsis: s.Synopsis, FullRows: s.FullRows, Cols: kept}
	})
}

// distinctLineage mirrors gus: each base tuple appears at most once per
// lineage slot unless SYSTEM sampling or a set operation is present.
func distinctLineage(root plan.Node) bool {
	ok := true
	plan.Walk(root, func(n plan.Node) {
		switch t := n.(type) {
		case *plan.Sample:
			if _, block := t.Method.(*sampling.Block); block {
				ok = false
			}
		case *plan.Union, *plan.Intersect:
			ok = false
		}
	})
	return ok
}

// groupBatch splits a sample into GROUP BY buckets ordered by the
// grouping column's value, each bucket's rows in sample order.
func groupBatch(b *batch.Batch, col string) ([]string, []*batch.Batch, error) {
	idx, ok := b.Schema.Index(col)
	if !ok {
		return nil, nil, fmt.Errorf("unknown GROUP BY column %q", col)
	}
	first := map[string]int{}
	sels := map[string][]int32{}
	var keys []string
	for i := 0; i < b.Len(); i++ {
		k := b.ValueAt(i, idx).AsString()
		if _, seen := first[k]; !seen {
			first[k] = i
			keys = append(keys, k)
		}
		sels[k] = append(sels[k], int32(i))
	}
	sort.SliceStable(keys, func(a, c int) bool {
		va, vc := b.ValueAt(first[keys[a]], idx), b.ValueAt(first[keys[c]], idx)
		cmp, err := va.Compare(vc)
		if err != nil {
			return keys[a] < keys[c]
		}
		return cmp < 0
	})
	parts := make([]*batch.Batch, len(keys))
	for i, k := range keys {
		parts[i] = b.Gather(sels[k])
	}
	return keys, parts, nil
}

// estimateAgg prices one SUM, COUNT or AVG item at 95% with a normal
// interval, as gus does for these workloads' statements.
func estimateAgg(g *core.Params, b *batch.Batch, agg sqlparse.Aggregate, eopts estimator.Options) (estimate, error) {
	switch agg.Kind {
	case sqlparse.AggSum, sqlparse.AggCount:
		f := agg.Arg
		if f == nil || agg.Kind == sqlparse.AggCount {
			f = expr.Int(1)
		}
		er, err := estimator.EstimateBatch(g, b, f, eopts)
		if err != nil {
			return estimate{}, err
		}
		lo, hi := er.CI(0.95, estimator.Normal)
		return estimate{er.Estimate, er.StdDev(), lo, hi}, nil
	case sqlparse.AggAvg:
		rr, err := estimator.RatioBatch(g, b, agg.Arg, expr.Int(1), eopts)
		if err != nil {
			return estimate{}, err
		}
		sd := rr.StdDev()
		h := stats.NormalHalfWidth(0.95, sd)
		return estimate{rr.Estimate, sd, rr.Estimate - h, rr.Estimate + h}, nil
	}
	return estimate{}, fmt.Errorf("unsupported aggregate %v", agg.Kind)
}

// streamItems translates SELECT aggregates into online items.
func streamItems(aggs []sqlparse.Aggregate) ([]online.Item, error) {
	items := make([]online.Item, 0, len(aggs))
	for _, agg := range aggs {
		it := online.Item{Name: agg.Alias, Kind: agg.Kind.String()}
		switch agg.Kind {
		case sqlparse.AggSum, sqlparse.AggCount:
			it.F = agg.Arg
			if it.F == nil || agg.Kind == sqlparse.AggCount {
				it.F = expr.Int(1)
			}
		case sqlparse.AggAvg:
			it.F, it.Ratio, it.Den = agg.Arg, true, expr.Int(1)
		default:
			return nil, fmt.Errorf("unsupported aggregate %v", agg.Kind)
		}
		items = append(items, it)
	}
	return items, nil
}

// gusCall is one timed call through the public gus API.
type gusCall struct {
	res   result
	ms    float64
	miss  bool    // the plan cache missed
	alloc float64 // heap bytes allocated
}

func (rp *replayer) callGus(ctx context.Context, o op, opts ...gus.Option) (gusCall, error) {
	db := rp.r.e.db
	before := db.PlanCacheStats().Misses
	a0 := readRuntime().allocBytes
	t0 := time.Now()
	res, err := rp.r.exec(ctx, o, opts...)
	c := gusCall{res: res, ms: float64(time.Since(t0).Nanoseconds()) / 1e6}
	c.alloc = readRuntime().allocBytes - a0
	c.miss = db.PlanCacheStats().Misses > before
	return c, err
}
