// Package estimator implements the SBox (§6): the statistical component
// that turns (top GUS parameters, sample tuples with lineage, per-tuple
// aggregate values) into an unbiased estimate, a variance estimate and
// confidence intervals.
//
// The three SBox tasks of §6 map to:
//
//  1. the top GUS coefficients — produced by plan.Analyze and passed in;
//  2. estimating the data moments y_S from the sample (§6.3), optionally
//     from a lineage-hash sub-sample of the sample (§7);
//  3. the final estimate, variance and confidence intervals (§6.4).
package estimator

import (
	"fmt"
	"math"

	"github.com/sampling-algebra/gus/internal/core"
	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/obs"
	"github.com/sampling-algebra/gus/internal/ops"
	"github.com/sampling-algebra/gus/internal/sampling"
	"github.com/sampling-algebra/gus/internal/stats"
)

// CIMethod selects how confidence intervals are derived from (μ̂, σ̂).
type CIMethod int

const (
	// Normal uses the optimistic normal approximation (§6.4): a 95% CI is
	// μ̂ ± 1.96σ̂.
	Normal CIMethod = iota
	// Chebyshev uses the distribution-free Chebyshev bound (§6.4): a 95%
	// CI is μ̂ ± 4.47σ̂ — "correct for any distribution, at the expense of a
	// factor of 2 in width".
	Chebyshev
)

// String names the method.
func (m CIMethod) String() string {
	switch m {
	case Normal:
		return "normal"
	case Chebyshev:
		return "chebyshev"
	default:
		return fmt.Sprintf("CIMethod(%d)", int(m))
	}
}

// Options tunes the SBox.
type Options struct {
	// MaxVarianceRows, when positive, activates §7 sub-sampling: if the
	// sample holds more rows than this, the y_S moments are estimated from
	// a lineage-hash Bernoulli sub-sample targeting about this many rows
	// (the paper suggests ~10000 suffices). The estimate itself always
	// uses the full sample.
	MaxVarianceRows int
	// Seed drives the sub-sampling pseudo-random function.
	Seed uint64
	// Workers, when positive, accumulates the Theorem-1 sums (Σf and the
	// Y_S group moments) in partition-sharded accumulators merged in
	// partition order. Results are bit-identical for every positive value
	// — the shards are per-partition, not per-worker, and partitioning
	// depends only on the data. Zero keeps the serial single-pass path.
	Workers int
	// PartitionSize overrides the accumulator morsel size (default
	// ops.DefaultPartitionSize). Comparable runs must share it.
	PartitionSize int
	// Trace, when non-nil, records an "estimate" span per SBox run (wall
	// time and the number of sample tuples fed in). Tracing never touches
	// the estimate math — results are bit-identical either way.
	Trace *obs.Trace
	// DistinctLineage asserts every sample row's lineage projection is
	// unique on each slot — true for any single-relation sample, where a
	// base tuple ID appears at most once (unions/intersections can break
	// this; joins have multiple slots and are unaffected by the hint).
	// For single-slot samples the Y_{S} group moment then reduces to a
	// direct Σ f_i² over singleton groups — the identical accumulation
	// sequence in row order, so results are bit-identical — skipping the
	// per-row hash grouping entirely. Ignored for multi-slot samples.
	DistinctLineage bool
	// Diagnostics, when true, additionally reports the reliability of
	// the variance estimate itself (Result.Diag) from a separate
	// read-only pass over the sample. Like tracing, it never perturbs
	// the estimate — results are bit-identical either way — but it is
	// gated because the extra pass costs allocations on the hot path.
	Diagnostics bool
}

// Result carries the SBox outputs.
type Result struct {
	// Estimate is the unbiased Theorem 1 estimator X = Σf / a.
	Estimate float64
	// Variance is the estimated σ²(X), clamped at zero.
	Variance float64
	// RawVariance is the unclamped estimate; small negatives are ordinary
	// sampling noise around a near-zero true variance.
	RawVariance float64
	// Clamped reports whether RawVariance was negative.
	Clamped bool
	// SampleRows is the number of sample tuples fed to the estimate.
	SampleRows int
	// VarianceRows is the number of tuples the y_S estimation used
	// (smaller than SampleRows when §7 sub-sampling was active).
	VarianceRows int
	// Subsampled reports whether §7 sub-sampling was used.
	Subsampled bool
	// Y holds the raw sample moments Y_S (dense, index = lineage.Set).
	Y []float64
	// YHat holds the unbiased estimates Ŷ_S of the data moments y_S.
	YHat []float64
	// Diag reports variance-estimate reliability (nil unless
	// Options.Diagnostics was set).
	Diag *Diagnostics
}

// StdDev returns σ̂.
func (r *Result) StdDev() float64 { return math.Sqrt(r.Variance) }

// CI returns a two-sided confidence interval at the given level.
func (r *Result) CI(level float64, method CIMethod) (lo, hi float64) {
	var half float64
	switch method {
	case Chebyshev:
		half = stats.ChebyshevHalfWidth(level, r.StdDev())
	default:
		half = stats.NormalHalfWidth(level, r.StdDev())
	}
	return r.Estimate - half, r.Estimate + half
}

// Quantile returns the q-quantile of the estimator distribution under the
// normal approximation — the QUANTILE(SUM(...), q) of the paper's §1 view.
func (r *Result) Quantile(q float64) float64 {
	return r.Estimate + stats.NormalQuantile(q)*r.StdDev()
}

// QuantileWith returns the q-quantile under the given interval method, so
// QUANTILE answers stay consistent with the query's interval choice:
// Normal uses the normal approximation, Chebyshev the distribution-free
// one-sided Cantelli bound (valid for any distribution, wider).
func (r *Result) QuantileWith(q float64, method CIMethod) float64 {
	switch method {
	case Chebyshev:
		return r.Estimate + stats.CantelliQuantile(q)*r.StdDev()
	default:
		return r.Quantile(q)
	}
}

// Estimate runs the SBox over executed sample rows. g must be the plan's
// top GUS (from plan.Analyze); rows' lineage schema must match g's — which
// plan.Execute guarantees for the same plan.
func Estimate(g *core.Params, rows *ops.Rows, f expr.Expr, opts Options) (*Result, error) {
	fs, _, err := sumF(rows, f, opts)
	if err != nil {
		return nil, err
	}
	if !rows.LSch.Equal(g.Schema()) {
		return nil, fmt.Errorf("estimator: sample lineage schema %v does not match GUS schema %v",
			rows.LSch.Names(), g.Schema().Names())
	}
	lins := make([]lineage.Vector, rows.Len())
	for i, row := range rows.Data {
		lins[i] = row.Lin
	}
	return FromLineage(g, lins, fs, opts)
}

// FromLineage is the core SBox entry point: it needs only the lineage and
// the aggregate value of each sample tuple (§6.2's minimal interface).
func FromLineage(g *core.Params, lins []lineage.Vector, fs []float64, opts Options) (*Result, error) {
	if len(lins) != len(fs) {
		return nil, fmt.Errorf("estimator: %d lineage vectors for %d aggregate values", len(lins), len(fs))
	}
	n := g.N()
	for i, l := range lins {
		if len(l) != n {
			return nil, fmt.Errorf("estimator: lineage vector %d has %d slots, GUS schema has %d", i, len(l), n)
		}
	}
	return fromSource(g, vecLins(lins), fs, opts)
}

// linSource abstracts how sample lineage is stored — row-major
// []lineage.Vector or the columnar batch layout — so the Theorem-1
// accumulators run identically (same keys, same accumulation order, hence
// bit-identical floats) over both.
type linSource interface {
	// projectKey returns row i's grouping key for the slots of s, equal to
	// lineage.Vector.ProjectKey on the equivalent row-major vector.
	projectKey(i int, s lineage.Set) string
	// id returns row i's tuple ID in the given lineage slot.
	id(i, slot int) lineage.TupleID
}

// vecLins adapts row-major lineage vectors.
type vecLins []lineage.Vector

func (v vecLins) projectKey(i int, s lineage.Set) string { return v[i].ProjectKey(s) }
func (v vecLins) id(i, slot int) lineage.TupleID         { return v[i][slot] }

// colLins adapts columnar per-slot lineage columns (batch.Batch.Lin).
type colLins [][]lineage.TupleID

func (c colLins) projectKey(i int, s lineage.Set) string {
	buf := make([]byte, 0, 8*s.Len())
	for slot := 0; slot < len(c); slot++ {
		if s.Has(slot) {
			buf = lineage.AppendID(buf, c[slot][i])
		}
	}
	return string(buf)
}

func (c colLins) id(i, slot int) lineage.TupleID { return c[slot][i] }

// fromSource is the storage-agnostic SBox core behind FromLineage and
// EstimateBatch.
func fromSource(g *core.Params, src linSource, fs []float64, opts Options) (*Result, error) {
	if g.A() == 0 {
		return nil, fmt.Errorf("estimator: null GUS (a=0) cannot be estimated")
	}

	res := &Result{
		Estimate:   g.Estimate(totalOf(fs, opts)),
		SampleRows: len(fs),
	}

	// §7: optionally estimate the y_S moments from a sub-sample.
	varG, varSrc, varFs, sub, err := maybeSubsample(g, src, fs, opts)
	if err != nil {
		return nil, err
	}
	res.Subsampled = sub
	res.VarianceRows = len(varFs)

	n := varG.Schema().Len()
	var groups int
	var s2, s4 float64
	if opts.Workers <= 0 {
		res.Y = momentsSerial(n, varSrc, varFs, nil)
		if opts.Diagnostics {
			groups, s2, s4 = diagnoseSource(n, varSrc, varFs)
		}
	} else {
		res.Y, groups, s2, s4 = shardedMoments(n, varSrc, varFs, opts)
	}
	if err := res.price(g, varG); err != nil {
		return nil, err
	}
	if opts.Diagnostics {
		res.Diag = newDiagnostics(groups, s2, s4, false, sub, res.Clamped)
	}
	return res, nil
}

// price completes res from its raw moments res.Y: the §6.3 unbiased Ŷ_S
// under varG, the GUS that generated the rows the moments came from, and
// the Theorem-1 variance under g, clamped at zero.
func (res *Result) price(g, varG *core.Params) error {
	yhat, err := UnbiasedY(varG, res.Y)
	if err != nil {
		return err
	}
	res.YHat = yhat
	raw, err := g.Variance(yhat)
	if err != nil {
		return err
	}
	res.RawVariance = raw
	res.Variance = raw
	if raw < 0 {
		res.Variance = 0
		res.Clamped = true
	}
	return nil
}

// maybeSubsample applies §7 lineage-hash sub-sampling when the sample
// exceeds opts.MaxVarianceRows, returning the GUS that governs the rows
// used for moment estimation (Prop. 8 compaction of g with the
// sub-sampler's multi-dimensional Bernoulli).
func maybeSubsample(g *core.Params, src linSource, fs []float64, opts Options) (*core.Params, linSource, []float64, bool, error) {
	if opts.MaxVarianceRows <= 0 || len(fs) <= opts.MaxVarianceRows {
		return g, src, fs, false, nil
	}
	n := g.N()
	// Uniform per-dimension rate whose product is the target row fraction.
	frac := float64(opts.MaxVarianceRows) / float64(len(fs))
	rate := math.Pow(frac, 1/float64(n))
	//gus:stringmap-ok once-per-query sampling-method spec keyed by relation name, not per-row state
	probs := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		probs[g.Schema().Name(i)] = rate
	}
	m, err := sampling.NewLineageHash(opts.Seed, probs)
	if err != nil {
		return nil, nil, nil, false, err
	}
	// The method's relation order is sorted; map slots of g's schema.
	keep := func(i int) bool {
		for slot := 0; slot < n; slot++ {
			if !m.Keeps(g.Schema().Name(slot), src.id(i, slot)) {
				return false
			}
		}
		return true
	}
	var subLins []lineage.Vector
	var subFs []float64
	for i := range fs {
		if keep(i) {
			l := lineage.NewVector(n)
			for slot := 0; slot < n; slot++ {
				l[slot] = src.id(i, slot)
			}
			subLins = append(subLins, l)
			subFs = append(subFs, fs[i])
		}
	}
	mp, err := m.Params(nil)
	if err != nil {
		return nil, nil, nil, false, err
	}
	aligned, err := mp.Align(g.Schema())
	if err != nil {
		return nil, nil, nil, false, err
	}
	gSub, err := core.Compact(g, aligned)
	if err != nil {
		return nil, nil, nil, false, err
	}
	return gSub, vecLins(subLins), subFs, true, nil
}

// Moments computes the raw sample moments Y_S for every S ⊆ {1:n}:
// group the sample by the projection of lineage onto S, sum f within each
// group, and sum the squares of the group totals (§6.3's GROUP BY queries).
// Y_∅ degenerates to (Σf)². Group squares accumulate in first-seen order,
// so repeated calls return bit-identical floats.
func Moments(n int, lins []lineage.Vector, fs []float64) []float64 {
	return momentsSerial(n, vecLins(lins), fs, nil)
}

// UnbiasedY turns raw sample moments Y_S into unbiased estimates Ŷ_S of
// the population moments y_S by the §6.3 recursion (largest S first):
//
//	Ŷ_S = (1/b_S)·[ Y_S − Σ_{V ⊆ Sᶜ, V≠∅} κ_{S,S∪V}·Ŷ_{S∪V} ]
//
// gVar must be the GUS that generated the rows the Y_S were computed from.
func UnbiasedY(gVar *core.Params, y []float64) ([]float64, error) {
	n := gVar.N()
	size := 1 << uint(n)
	if len(y) != size {
		return nil, fmt.Errorf("estimator: %d moments for a %d-relation GUS", len(y), n)
	}
	full := lineage.Full(n)
	yhat := make([]float64, size)
	// Process masks by decreasing population count.
	order := make([]lineage.Set, 0, size)
	for k := n; k >= 0; k-- {
		for m := 0; m < size; m++ {
			if lineage.Set(m).Len() == k {
				order = append(order, lineage.Set(m))
			}
		}
	}
	for _, s := range order {
		bs := gVar.B(s)
		if bs == 0 {
			return nil, fmt.Errorf("estimator: b_%s = 0; this sampling method cannot estimate y_%s (degenerate design, e.g. WOR of a single tuple)",
				gVar.Schema().SetString(s), gVar.Schema().SetString(s))
		}
		acc := y[s]
		comp := full.Diff(s)
		comp.Subsets(func(v lineage.Set) {
			if v.IsEmpty() {
				return
			}
			acc -= gVar.Kappa(s, s|v) * yhat[s|v]
		})
		yhat[s] = acc / bs
	}
	return yhat, nil
}

// PopulationMoments computes the exact data moments y_S over the FULL
// (unsampled) result of a query — ground truth for experiments. rows must
// come from executing the sampling-free plan.
func PopulationMoments(rows *ops.Rows, f expr.Expr) ([]float64, error) {
	fs, _, err := ops.SumF(rows, f)
	if err != nil {
		return nil, err
	}
	lins := make([]lineage.Vector, rows.Len())
	for i, row := range rows.Data {
		lins[i] = row.Lin
	}
	return Moments(rows.LSch.Len(), lins, fs), nil
}

// ExactAnalysis computes the true aggregate value and the true estimator
// variance for a sampling design g over a population: the oracle that
// experiments compare the SBox against.
func ExactAnalysis(g *core.Params, population *ops.Rows, f expr.Expr) (truth, variance float64, err error) {
	if !population.LSch.SameRelations(g.Schema()) {
		return 0, 0, fmt.Errorf("estimator: population lineage %v does not match GUS schema %v",
			population.LSch.Names(), g.Schema().Names())
	}
	aligned := g
	if !population.LSch.Equal(g.Schema()) {
		if aligned, err = g.Align(population.LSch); err != nil {
			return 0, 0, err
		}
	}
	ys, err := PopulationMoments(population, f)
	if err != nil {
		return 0, 0, err
	}
	_, total, err := ops.SumF(population, f)
	if err != nil {
		return 0, 0, err
	}
	v, err := aligned.Variance(ys)
	if err != nil {
		return 0, 0, err
	}
	return total, v, nil
}
