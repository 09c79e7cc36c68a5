// Online aggregation's view of the moment state (moments.go): an Accum
// is a momentState fed one wave at a time. Rows regroup into the same
// fixed-size spans the one-shot path partitions the sample into; a
// completed span's shard merges into the per-mask groups exactly as the
// one-shot merge does, so Finalize is bit-identical to one-shot
// Estimate/EstimateBatch over the same sample with the same span size.
//
// Between waves, Moments() reads the running sums plus the incomplete
// span's contribution. With distinct lineage that reading is exact; with
// grouped lineage the running sums are adjusted group by group and may
// differ from a fresh recompute in the last bits, which is why Finalize
// recomputes them.
package estimator

import (
	"fmt"

	"github.com/sampling-algebra/gus/internal/core"
	"github.com/sampling-algebra/gus/internal/hashtab"
	"github.com/sampling-algebra/gus/internal/lineage"
)

// Accum incrementally accumulates the §6.3 Y_S moments over sample rows
// delivered in chunks of any size. In bilinear mode it carries two value
// streams f and g — the numerator and denominator of a ratio — and keeps
// Y_S(f,f), Y_S(g,g) and the cross moments Y_S(f,g) from one grouping.
type Accum struct {
	st    *momentState
	final bool

	// Grouped mode only: the incomplete span's rows and, per mask, their
	// shard, extended as rows arrive and merged when the span completes.
	tailF, tailG []float64
	tailLin      [][]lineage.TupleID
	tails        []tailShard

	// view caches the current reading until the next Add.
	view *reading
}

// tailShard is the incomplete span's shard for one mask.
type tailShard struct {
	hashShard
	g hashtab.Grouper
	// base holds each shard group's merged group (-1: none yet), resolved
	// once per shard group; merged groups change only when the span does.
	base []int32
}

// reading is the moment state as of the last Add: live, or exact once
// finalized.
type reading struct {
	totF, totG float64
	sums       []groupSums // per mask
	groups     int         // full-mask groups
}

// NewAccum returns an accumulator for samples with n lineage slots.
// bilinear selects two-stream mode (f and g); partitionSize ≤ 0 selects
// ops.DefaultPartitionSize and must match the Options.PartitionSize of
// any one-shot run it is compared against.
func NewAccum(n int, bilinear bool, partitionSize int) *Accum {
	return NewAccumWith(n, bilinear, Options{PartitionSize: partitionSize})
}

// NewAccumWith is NewAccum reading the span size and the DistinctLineage
// hint from opts, the way the one-shot estimator does.
func NewAccumWith(n int, bilinear bool, opts Options) *Accum {
	a := &Accum{st: newMomentState(n, bilinear, opts)}
	if !a.st.distinct {
		a.tailLin = make([][]lineage.TupleID, n)
		a.tails = make([]tailShard, len(a.st.masks))
		for m := 1; m < len(a.tails); m++ {
			a.st.masks[m].stream(n)
			a.tails[m].g.Reset(a.st.partSize)
		}
	}
	return a
}

// Rows reports how many sample rows have been added.
func (a *Accum) Rows() int { return a.st.rows }

// Add appends one chunk of sample rows: per-row aggregate values fs (and
// gs in bilinear mode; nil otherwise) with per-slot lineage columns lin.
// Rows must arrive in sample order. The accumulator keeps no reference to
// the arguments.
func (a *Accum) Add(fs, gs []float64, lin [][]lineage.TupleID) error {
	if a.final {
		return fmt.Errorf("estimator: Add after Finalize")
	}
	if a.st.bilinear != (gs != nil) {
		return fmt.Errorf("estimator: bilinear accumulator mismatch (gs nil: %v)", gs == nil)
	}
	if gs != nil && len(gs) != len(fs) {
		return fmt.Errorf("estimator: %d g-values for %d f-values", len(gs), len(fs))
	}
	if len(lin) != a.st.n {
		return fmt.Errorf("estimator: %d lineage columns for %d slots", len(lin), a.st.n)
	}
	for s, l := range lin {
		if len(l) != len(fs) {
			return fmt.Errorf("estimator: lineage slot %d has %d rows, want %d", s, len(l), len(fs))
		}
	}
	a.view = nil
	st := a.st
	for lo := 0; lo < len(fs); {
		hi := lo + min(st.partSize-st.spanRows, len(fs)-lo)
		var g []float64
		if gs != nil {
			g = gs[lo:hi]
		}
		if st.distinct {
			st.addDistinct(fs[lo:hi], g)
		} else {
			a.extendTail(fs[lo:hi], g, lin, lo, hi)
		}
		if st.spanRows == st.partSize {
			a.mergeTail()
			st.closeSpan()
		}
		lo = hi
	}
	return nil
}

// extendTail appends rows [lo, hi) of a chunk (values fs, gs) to the
// incomplete span and its shards.
func (a *Accum) extendTail(fs, gs []float64, lin [][]lineage.TupleID, lo, hi int) {
	from := len(a.tailF)
	a.tailF = append(a.tailF, fs...)
	a.tailG = append(a.tailG, gs...)
	for s := range lin {
		a.tailLin[s] = append(a.tailLin[s], lin[s][lo:hi]...)
	}
	a.st.addSpanTotals(fs, gs)
	src := colLins(a.tailLin)
	for m := 1; m < len(a.tails); m++ {
		t := &a.tails[m]
		t.extend(&t.g, src, a.st.masks[m].slots, a.tailF, a.tailG, from, len(a.tailF))
	}
}

// mergeTail merges the incomplete span's shards into the groups and
// empties it.
func (a *Accum) mergeTail() {
	if a.st.distinct {
		return
	}
	src := colLins(a.tailLin)
	for m := 1; m < len(a.tails); m++ {
		t := &a.tails[m]
		a.st.masks[m].merge(&t.hashShard, src)
		t.reset()
		t.g.Reset(a.st.partSize)
		t.base = t.base[:0]
	}
	a.tailF, a.tailG = a.tailF[:0], a.tailG[:0]
	for s := range a.tailLin {
		a.tailLin[s] = a.tailLin[s][:0]
	}
}

// live returns the mask's running sums with the incomplete span's shard
// applied, and how many of its groups are not merged yet.
func (t *tailShard) live(ms *maskState, src linSource) (groupSums, int) {
	for j := len(t.base); j < len(t.rows); j++ {
		t.base = append(t.base, ms.find(t.hashes[j], src, int(t.rows[j])))
	}
	s, fresh := ms.run, 0
	for j, b := range t.base {
		f0, g0 := ms.totals(b)
		g1 := g0
		if ms.bilinear {
			g1 += t.gsum[j]
		}
		s.move(f0, f0+t.fsum[j], g0, g1)
		if b < 0 {
			fresh++
		}
	}
	return s, fresh
}

// reading returns the current reading, computing it at most once per Add.
func (a *Accum) reading() *reading {
	if a.view != nil {
		return a.view
	}
	st := a.st
	r := &reading{totF: a.Total(), totG: a.TotalG()}
	if st.distinct {
		r.sums, r.groups = []groupSums{{}, st.run}, st.rows
	} else {
		r.sums = make([]groupSums, len(st.masks))
		src := colLins(a.tailLin)
		for m := 1; m < len(st.masks); m++ {
			var fresh int
			r.sums[m], fresh = a.tails[m].live(st.masks[m], src)
			r.groups = len(st.masks[m].fTot) + fresh
		}
	}
	a.view = r
	return r
}

// Total returns the live Σf.
func (a *Accum) Total() float64 { return a.st.totF + a.st.spanF }

// TotalG returns the live Σg (bilinear mode).
func (a *Accum) TotalG() float64 { return a.st.totG + a.st.spanG }

// Moments returns the Y_S moments of everything added so far — Y_S(f,f),
// or the cross moments Y_S(f,g) in bilinear mode: a live snapshot (see
// the file comment), or the exact moments once finalized.
func (a *Accum) Moments() []float64 {
	p := pairFF
	if a.st.bilinear {
		p = pairFG
	}
	r := a.reading()
	return momentVector(p, r.totF, r.totG, r.sums)
}

// RatioMoments returns a bilinear accumulator's Y_S(f,f), Y_S(g,g) and
// Y_S(f,g) — the numerator, denominator and cross moments of the ratio
// f/g — read like Moments.
func (a *Accum) RatioMoments() (yNN, yDD, yND []float64) {
	r := a.reading()
	return momentVector(pairFF, r.totF, r.totG, r.sums),
		momentVector(pairGG, r.totF, r.totG, r.sums),
		momentVector(pairFG, r.totF, r.totG, r.sums)
}

// TopDiagnostics returns the full-mask group statistics (group count,
// Σt², Σt⁴ over the f totals) of everything added so far — the streaming
// counterpart of the one-shot diagnostics, read from the same state as
// Moments and exact once finalized.
func (a *Accum) TopDiagnostics() (groups int, sum2, sum4 float64) {
	r := a.reading()
	s := r.sums[len(r.sums)-1]
	return r.groups, s.ff, s.f4
}

// Finalize closes the incomplete span and returns the exact moments (as
// Moments would after it): bit-identical to the one-shot estimator's with
// Workers > 0 over the whole sample. The accumulator is sealed afterwards.
func (a *Accum) Finalize() []float64 {
	if !a.final {
		a.mergeTail()
		a.st.closeSpan()
		a.view = &reading{totF: a.st.totF, totG: a.st.totG, sums: a.st.exactSums(), groups: a.st.topGroups()}
		a.st.release()
		a.final = true
	}
	return a.Moments()
}

// EstimateFromMoments assembles a Result from an accumulator snapshot
// under GUS g: the Theorem-1 estimate from the live Σf and the variance
// from the (live or finalized) Y_S moments. With g the query's top GUS,
// total = Accum.Total() and y = Accum.Finalize() over the full sample,
// the Result is bit-identical to Estimate/EstimateBatch without §7
// sub-sampling; with prefix-adjusted parameters and live snapshots it
// prices a partially scanned sample.
func EstimateFromMoments(g *core.Params, total float64, y []float64, sampleRows int) (*Result, error) {
	if g.A() == 0 {
		return nil, fmt.Errorf("estimator: null GUS (a=0) cannot be estimated")
	}
	res := &Result{
		Estimate:     g.Estimate(total),
		SampleRows:   sampleRows,
		VarianceRows: sampleRows,
		Y:            y,
	}
	if err := res.price(g, g); err != nil {
		return nil, err
	}
	return res, nil
}

// RatioFromMoments assembles a delta-method RatioResult from accumulator
// snapshots of the numerator (totN, yNN), denominator (totD, yDD) and
// their bilinear cross moments (yND) — the streaming counterpart of
// Ratio/RatioBatch, bit-identical to them at Finalize.
func RatioFromMoments(g *core.Params, totN, totD float64, yNN, yDD, yND []float64, sampleRows int) (*RatioResult, error) {
	nRes, err := EstimateFromMoments(g, totN, yNN, sampleRows)
	if err != nil {
		return nil, err
	}
	dRes, err := EstimateFromMoments(g, totD, yDD, sampleRows)
	if err != nil {
		return nil, err
	}
	return deltaRatio(g, nRes, dRes, yND)
}
