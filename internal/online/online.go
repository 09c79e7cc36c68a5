// Package online is the progressive (online-aggregation) executor: it
// drives a prepared engine.WaveExec one partition wave at a time, folds
// each wave's sample rows into an incremental Theorem-1 moment state
// (estimator.Accum), and after every wave emits an Update carrying the
// current estimate, variance and confidence interval together with how
// much of the data has been scanned.
//
// Statistical model: after scanning the first q fraction of the driver
// relation, the rows seen are exactly the query's sample restricted to
// that prefix. Treating the prefix as a uniform q-sample of the relation
// (the standard online-aggregation assumption that physical order is
// uncorrelated with the aggregate — Hellerstein et al.'s random-order
// requirement), the prefix sample is governed by the query's top GUS
// compacted with a Bernoulli(q) quasi-operator on the driver (Prop. 8),
// so Theorem 1 prices every intermediate answer with a sound variance
// under that assumption. At q = 1 the prefix model drops away entirely
// and the final Update is BIT-IDENTICAL to the one-shot query: same
// estimate, same variance, same interval.
//
// Early stopping: Config carries a target relative CI half-width, a
// deadline and a maximum scan fraction; the wave loop stops at whichever
// fires first, mirroring the accuracy-budget regime of Kang et al.'s
// approximate aggregation with expensive predicates.
package online

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/sampling-algebra/gus/internal/batch"
	"github.com/sampling-algebra/gus/internal/core"
	"github.com/sampling-algebra/gus/internal/engine"
	"github.com/sampling-algebra/gus/internal/estimator"
	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/obs"
	"github.com/sampling-algebra/gus/internal/relation"
	"github.com/sampling-algebra/gus/internal/stats"
)

// Stop reasons reported on the last Update of a stream.
const (
	ReasonComplete    = "complete"     // every partition scanned
	ReasonTargetCI    = "target-ci"    // relative CI half-width target met
	ReasonMaxFraction = "max-fraction" // scan-fraction budget exhausted
	ReasonDeadline    = "deadline"     // wall-clock deadline passed
)

// Item is one SELECT-list aggregate estimated progressively.
type Item struct {
	// Name and Kind label the output (Kind already rendered, e.g.
	// "SUM" or "QUANTILE(SUM,0.05)").
	Name, Kind string
	// F is the aggregate argument (Int(1) for COUNT).
	F expr.Expr
	// Ratio selects the delta-method ratio F/Den (AVG = F/1).
	Ratio bool
	Den   expr.Expr
	// HasQuantile asks for the Quantile-quantile of the estimator
	// distribution as the item's Value.
	HasQuantile bool
	Quantile    float64
}

// Config tunes a progressive run. The zero value scans everything in
// default-sized waves with 95% normal intervals.
type Config struct {
	// WaveRows is the input rows per wave, rounded up to whole engine
	// partitions (≤ 0 selects 8192).
	WaveRows int
	// TargetRelCI stops the scan once EVERY item's CI half-width is at
	// most this fraction of its estimate's magnitude (0 disables).
	TargetRelCI float64
	// Deadline stops the scan at the first wave boundary after this much
	// wall-clock time (0 disables).
	Deadline time.Duration
	// MaxFraction stops the scan once at least this fraction of the
	// driver relation has been read (≤ 0 or ≥ 1 disables).
	MaxFraction float64
	// Level is the two-sided confidence level (0 selects 0.95).
	Level float64
	// Method selects normal or Chebyshev intervals.
	Method estimator.CIMethod
	// PartitionSize overrides the estimator accumulator span size
	// (0 selects the default; must match any run compared bit-for-bit).
	PartitionSize int
}

func (c Config) level() float64 {
	if c.Level == 0 {
		return 0.95
	}
	return c.Level
}

func (c Config) waveRows() int {
	if c.WaveRows <= 0 {
		return 8192
	}
	return c.WaveRows
}

// ValueUpdate is one SELECT item's state after a wave.
type ValueUpdate struct {
	Name, Kind string
	// Value is what the query returns (the estimate, or the requested
	// quantile of the estimator distribution for QUANTILE items).
	Value float64
	// Estimate, StdErr and Variance describe the Theorem-1 estimator
	// under the prefix model (exact Theorem 1 at completion).
	Estimate, StdErr, Variance float64
	// CILow and CIHigh bound the aggregate at the configured level.
	CILow, CIHigh float64
	// Approximate marks delta-method (AVG) items.
	Approximate bool
	// RelHalfWidth is the CI half-width over |Estimate| — the quantity
	// TargetRelCI tests. +Inf while the estimate is zero or undefined.
	RelHalfWidth float64
	// Reliability grades how trustworthy the CI itself is this wave
	// (A–D, from the variance-of-variance diagnostics); VarianceRSE is
	// the underlying relative standard error of the variance estimate.
	Reliability string
	VarianceRSE float64
}

// Update is one progressive refinement. The top-level estimator fields
// mirror Values[0] for the common single-aggregate query.
type Update struct {
	// Wave counts emitted updates, from 0.
	Wave int
	// FractionScanned is the fraction of the driver relation read so far.
	FractionScanned float64
	// RowsScanned is the same in input rows; SampleRows counts the rows
	// the sampled plan has produced so far.
	RowsScanned int
	SampleRows  int
	// Final marks the complete scan: estimates are now bit-identical to
	// the one-shot query. Done marks the last update of the stream (set
	// together with Reason, which names the stop condition).
	Final  bool
	Done   bool
	Reason string

	Estimate, StdErr, CILow, CIHigh float64
	Values                          []ValueUpdate
}

// Executor drives one progressive query.
type Executor struct {
	// G is the query's top GUS (plan.Analyze).
	G *core.Params
	// Waves is the prepared wave execution of the plan.
	Waves *engine.WaveExec
	// Items are the SELECT aggregates.
	Items []Item
	Cfg   Config
	// Trace, when non-nil, receives one WavePoint per emitted update
	// (fraction scanned, running estimate, CI width, wave latency). Nil
	// costs one pointer test per wave.
	Trace *obs.Trace
}

// itemState carries one item's per-stream state: the aggregate kernels,
// compiled ONCE against the waves' fixed output schema, the accumulator —
// bilinear for a delta-method ratio, carrying numerator and denominator
// through one lineage grouping — and per-row value buffers reused across
// waves.
type itemState struct {
	f, den *expr.VecCompiled
	acc    *estimator.Accum
	fs, ds []float64
}

// Run executes waves until a stop condition fires, ctx is canceled, or
// emit returns false (consumer gone). Every wave ends with exactly one
// emit; the last update carries Done and its Reason. The returned error
// is nil for every clean stop, including early ones.
func (x *Executor) Run(ctx context.Context, emit func(Update) bool) error {
	if len(x.Items) == 0 {
		return fmt.Errorf("online: no aggregates to estimate")
	}
	outSchema, err := x.Waves.OutSchema()
	if err != nil {
		return err
	}
	// The one-shot query over the same plan groups lineage under the same
	// rule, so the final update stays bit-identical to it.
	aopts := estimator.Options{PartitionSize: x.Cfg.PartitionSize, DistinctLineage: x.Waves.DistinctLineage()}
	states := make([]itemState, len(x.Items))
	for i, it := range x.Items {
		if states[i].f, err = compileF(it.F, outSchema); err != nil {
			return err
		}
		if it.Ratio {
			if states[i].den, err = compileF(it.Den, outSchema); err != nil {
				return err
			}
		}
		states[i].acc = estimator.NewAccumWith(x.G.N(), it.Ratio, aopts)
	}
	start := time.Now() //gus:nondet-ok deadline early-stop is wall-clock by design; estimates stay wave-deterministic
	w := x.Waves
	nParts := w.Partitions()
	if nParts == 0 {
		// Empty driver: a single, trivially final update.
		u, err := x.snapshot(states, 0, 1, 0, true)
		if err != nil {
			return err
		}
		u.Done, u.Reason = true, ReasonComplete
		emit(u)
		return nil
	}
	partRows := w.RowsThrough(1)
	waveParts := (x.Cfg.waveRows() + partRows - 1) / partRows
	if waveParts < 1 {
		waveParts = 1
	}
	wave := 0
	for pLo := 0; pLo < nParts; {
		if err := ctx.Err(); err != nil {
			return err
		}
		waveStart := time.Now() //gus:nondet-ok wave latency is observability, not part of the estimate
		pHi := pLo + waveParts
		if pHi > nParts {
			pHi = nParts
		}
		b, err := w.ExecuteWave(pLo, pHi)
		if err != nil {
			return err
		}
		err = feedWave(states, b)
		// The accumulators keep no reference to the batch.
		b.Release()
		if err != nil {
			return err
		}
		scanned := w.RowsThrough(pHi)
		frac := float64(scanned) / float64(w.InputRows())
		final := pHi == nParts
		u, err := x.snapshot(states, wave, frac, scanned, final)
		if err != nil {
			return err
		}
		switch {
		case final:
			u.Done, u.Reason = true, ReasonComplete
		case x.Cfg.TargetRelCI > 0 && targetMet(u.Values, x.Cfg.TargetRelCI):
			u.Done, u.Reason = true, ReasonTargetCI
		case x.Cfg.MaxFraction > 0 && x.Cfg.MaxFraction < 1 && frac >= x.Cfg.MaxFraction:
			u.Done, u.Reason = true, ReasonMaxFraction
		//gus:nondet-ok deadline early-stop is wall-clock by design; each emitted wave is still deterministic
		case x.Cfg.Deadline > 0 && time.Since(start) >= x.Cfg.Deadline:
			u.Done, u.Reason = true, ReasonDeadline
		}
		//gus:nondet-ok wave latency is observability, not part of the estimate
		x.Trace.AddWave(u.Wave, u.FractionScanned, u.Estimate, u.CIHigh-u.CILow, time.Since(waveStart))
		if !emit(u) || u.Done {
			return nil
		}
		pLo = pHi
		wave++
	}
	return nil
}

// feedWave evaluates every item's precompiled kernels over the wave batch
// and folds the values into its accumulator. Per-row values are computed
// by the same vectorized kernels as the one-shot batch estimator, so
// folding every wave reproduces its floats exactly.
func feedWave(states []itemState, b *batch.Batch) error {
	if b.Len() == 0 {
		return nil
	}
	for i := range states {
		st := &states[i]
		var err error
		if st.fs, err = evalF(b, st.f, st.fs); err != nil {
			return err
		}
		var ds []float64
		if st.den != nil {
			if st.ds, err = evalF(b, st.den, st.ds); err != nil {
				return err
			}
			ds = st.ds
		}
		if err := st.acc.Add(st.fs, ds, b.Lin); err != nil {
			return err
		}
	}
	return nil
}

// compileF compiles an aggregate argument against the stream's wave
// schema.
func compileF(f expr.Expr, schema *relation.Schema) (*expr.VecCompiled, error) {
	c, err := expr.CompileVec(f, schema)
	if err != nil {
		return nil, fmt.Errorf("online: aggregate: %w", err)
	}
	return c, nil
}

// evalF computes the per-row aggregate values over a batch into buf's
// storage — the same kernel evaluation and float conversions as
// estimator.EstimateBatch.
func evalF(b *batch.Batch, c *expr.VecCompiled, buf []float64) ([]float64, error) {
	v, err := c.EvalAll(b.Cols, b.Len())
	if err != nil {
		return nil, fmt.Errorf("online: aggregate: %w", err)
	}
	if cap(buf) < b.Len() {
		buf = make([]float64, b.Len())
	}
	fs := buf[:b.Len()]
	if err := v.FloatsInto(fs); err != nil {
		return nil, fmt.Errorf("online: aggregate: %w", err)
	}
	return fs, nil
}

// snapshot prices every item under the wave's prefix-adjusted GUS and
// assembles the Update.
func (x *Executor) snapshot(states []itemState, wave int, frac float64, scanned int, final bool) (Update, error) {
	gw := x.G
	if !final {
		var err error
		if gw, err = prefixGUS(x.G, x.Waves.Alias(), frac); err != nil {
			return Update{}, err
		}
	}
	u := Update{
		Wave:            wave,
		FractionScanned: frac,
		RowsScanned:     scanned,
		SampleRows:      states[0].acc.Rows(),
		Final:           final,
	}
	for i, it := range x.Items {
		vu, err := x.itemUpdate(&states[i], it, gw, final)
		if err != nil {
			return Update{}, err
		}
		u.Values = append(u.Values, vu)
	}
	u.Estimate = u.Values[0].Estimate
	u.StdErr = u.Values[0].StdErr
	u.CILow, u.CIHigh = u.Values[0].CILow, u.Values[0].CIHigh
	return u, nil
}

func (x *Executor) itemUpdate(st *itemState, it Item, gw *core.Params, final bool) (ValueUpdate, error) {
	vu := ValueUpdate{Name: it.Name, Kind: it.Kind, Approximate: it.Ratio}
	var est, sd float64
	clamped := false
	if final {
		st.acc.Finalize()
	}
	if it.Ratio {
		yNN, yDD, yND := st.acc.RatioMoments()
		rr, err := estimator.RatioFromMoments(gw, st.acc.Total(), st.acc.TotalG(), yNN, yDD, yND, st.acc.Rows())
		if err != nil {
			if !final {
				// An early prefix may not have met the denominator yet;
				// report "no estimate yet" instead of killing the stream.
				return undefined(vu), nil
			}
			return vu, err
		}
		est, sd = rr.Estimate, rr.StdDev()
		clamped = rr.Clamped
	} else {
		res, err := estimator.EstimateFromMoments(gw, st.acc.Total(), st.acc.Moments(), st.acc.Rows())
		if err != nil {
			return vu, err
		}
		est, sd = res.Estimate, res.StdDev()
		clamped = res.Clamped
	}
	// Grade this wave's CI from the group statistics the accumulator keeps
	// current; they never feed back into the estimate above.
	if d := estimator.DiagnoseAccum(st.acc, it.Ratio, clamped); d != nil {
		vu.Reliability, vu.VarianceRSE = d.Grade, d.VarianceRSE
	}
	vu.Estimate, vu.StdErr, vu.Variance = est, sd, sd*sd
	var half float64
	switch x.Cfg.Method {
	case estimator.Chebyshev:
		half = stats.ChebyshevHalfWidth(x.Cfg.level(), sd)
	default:
		half = stats.NormalHalfWidth(x.Cfg.level(), sd)
	}
	vu.CILow, vu.CIHigh = est-half, est+half
	vu.Value = est
	if it.HasQuantile {
		switch x.Cfg.Method {
		case estimator.Chebyshev:
			vu.Value = est + stats.CantelliQuantile(it.Quantile)*sd
		default:
			vu.Value = est + stats.NormalQuantile(it.Quantile)*sd
		}
	}
	vu.RelHalfWidth = math.Inf(1)
	if est != 0 && !math.IsNaN(est) {
		vu.RelHalfWidth = half / math.Abs(est)
	}
	return vu, nil
}

// undefined marks an item that has no estimate yet (early empty prefix).
func undefined(vu ValueUpdate) ValueUpdate {
	nan := math.NaN()
	vu.Value, vu.Estimate, vu.StdErr, vu.Variance = nan, nan, nan, nan
	vu.CILow, vu.CIHigh = nan, nan
	vu.RelHalfWidth = math.Inf(1)
	return vu
}

// targetMet reports whether every item's relative CI half-width is within
// eps (NaN/Inf widths never pass).
func targetMet(vs []ValueUpdate, eps float64) bool {
	for _, v := range vs {
		if !(v.RelHalfWidth <= eps) {
			return false
		}
	}
	return true
}

// prefixGUS compacts the query's top GUS with a Bernoulli(q) model of the
// scanned prefix of the driver relation (identity on any other relation):
// the parameters Theorem 1 needs to price the prefix sample. q = 1 (or
// more) returns g itself so the completed scan uses the query's exact
// parameters, untouched by float round-trips.
func prefixGUS(g *core.Params, rel string, q float64) (*core.Params, error) {
	if q >= 1 {
		return g, nil
	}
	if !(q > 0) {
		return nil, fmt.Errorf("online: scan fraction %v outside (0,1]", q)
	}
	pb, err := core.Bernoulli(rel, q)
	if err != nil {
		return nil, err
	}
	ext, err := pb.Extend(g.Schema())
	if err != nil {
		return nil, err
	}
	return core.Compact(g, ext)
}
