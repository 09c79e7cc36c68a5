package estimator

import (
	"errors"
	"fmt"
	"math"

	"github.com/sampling-algebra/gus/internal/core"
	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/ops"
)

// BilinearMoments computes the cross moments Y_S(f,g) for every S:
// group the sample by the projection of lineage onto S and sum the
// products of the per-group f- and g-totals:
//
//	Y_S(f,g) = Σ_groups (Σ f)(Σ g).
//
// With f = g this reduces to Moments. The same §6.3 recursion (UnbiasedY)
// unbiases them — it is linear in the moments, so it applies verbatim —
// yielding Ŷ_S(f,g), from which Theorem 1's sum gives Cov(X_f, X_g):
// the covariance of two SUM estimators over the SAME GUS sample. This is
// the engine behind the delta-method AVG of §9.
func BilinearMoments(n int, lins []lineage.Vector, fs, gs []float64) ([]float64, error) {
	if len(lins) != len(fs) || len(fs) != len(gs) {
		return nil, fmt.Errorf("estimator: bilinear moments need equal-length inputs (%d,%d,%d)", len(lins), len(fs), len(gs))
	}
	return momentsSerial(n, vecLins(lins), fs, gs), nil
}

// Covariance estimates Cov(X_f, X_g) for the two SUM estimators computed
// from the same GUS sample. By the polarization of Theorem 1, the same
// c_S/a² combination applied to unbiased bilinear moments is an unbiased
// covariance estimate:
//
//	Côv = Σ_S (c_S/a²)·Ŷ_S(f,g) − Ŷ_∅(f,g).
func Covariance(g *core.Params, lins []lineage.Vector, fs, gs []float64) (float64, error) {
	if len(lins) != len(fs) {
		return 0, fmt.Errorf("estimator: %d lineage vectors for %d aggregate values", len(lins), len(fs))
	}
	if g.A() == 0 {
		return 0, fmt.Errorf("estimator: null GUS (a=0) has no covariance")
	}
	y, err := BilinearMoments(g.N(), lins, fs, gs)
	if err != nil {
		return 0, err
	}
	yhat, err := UnbiasedY(g, y)
	if err != nil {
		return 0, err
	}
	return g.Variance(yhat) // Theorem 1's combination is the same
}

// RatioResult is a delta-method estimate of a ratio of two SUM aggregates.
type RatioResult struct {
	// Estimate is num̂/den̂ (equivalently Σf/Σg — the a-scaling cancels).
	Estimate float64
	// Variance is the first-order delta-method variance (clamped at 0).
	Variance float64
	// Clamped reports whether the raw delta-method variance was negative.
	Clamped bool
	// Num and Den are the component SUM results.
	Num, Den *Result
	// Cov is the estimated covariance of the two SUM estimators.
	Cov float64
	// Diag reports variance-estimate reliability (nil unless
	// Options.Diagnostics was set): the weaker of the component SUM
	// diagnostics, always marked Approximate.
	Diag *Diagnostics
}

// StdDev returns the delta-method standard deviation.
func (r *RatioResult) StdDev() float64 { return math.Sqrt(r.Variance) }

// Ratio estimates num/den where both are SUM aggregates over the same GUS
// sample, with the delta-method variance the paper's §9 sketches:
//
//	Var(N/D) ≈ Var(N)/D² − 2·N·Cov(N,D)/D³ + N²·Var(D)/D⁴
//
// AVG(f) is Ratio(f, 1). The result is approximate (first-order Taylor),
// unlike the exact SUM analysis.
func Ratio(g *core.Params, rows *ops.Rows, num, den expr.Expr, opts Options) (*RatioResult, error) {
	if !rows.LSch.Equal(g.Schema()) {
		return nil, fmt.Errorf("estimator: sample lineage schema %v does not match GUS schema %v",
			rows.LSch.Names(), g.Schema().Names())
	}
	nfs, _, err := sumF(rows, num, opts)
	if err != nil {
		return nil, err
	}
	dfs, _, err := sumF(rows, den, opts)
	if err != nil {
		return nil, err
	}
	lins := make([]lineage.Vector, rows.Len())
	for i, row := range rows.Data {
		lins[i] = row.Lin
	}
	return ratioSrc(g, vecLins(lins), nfs, dfs, opts)
}

// ratioSrc is the storage-agnostic core behind Ratio and RatioBatch.
func ratioSrc(g *core.Params, src linSource, nfs, dfs []float64, opts Options) (*RatioResult, error) {
	nRes, err := fromSource(g, src, nfs, opts)
	if err != nil {
		return nil, err
	}
	dRes, err := fromSource(g, src, dfs, opts)
	if err != nil {
		return nil, err
	}
	return deltaRatio(g, nRes, dRes, bilinearFor(g.N(), src, nfs, dfs, opts))
}

var errZeroDenominator = errors.New("estimator: ratio with (estimated) zero denominator")

// deltaRatio combines the component SUM results and their cross moments
// Y_S(num,den) into the delta-method ratio.
func deltaRatio(g *core.Params, nRes, dRes *Result, yND []float64) (*RatioResult, error) {
	if dRes.Estimate == 0 {
		return nil, errZeroDenominator
	}
	yhat, err := UnbiasedY(g, yND)
	if err != nil {
		return nil, err
	}
	cov, err := g.Variance(yhat)
	if err != nil {
		return nil, err
	}
	n, d := nRes.Estimate, dRes.Estimate
	raw := nRes.RawVariance/(d*d) - 2*n*cov/(d*d*d) + n*n*dRes.RawVariance/(d*d*d*d)
	v := raw
	if v < 0 {
		v = 0
	}
	return &RatioResult{
		Estimate: n / d,
		Variance: v,
		Clamped:  raw < 0,
		Num:      nRes,
		Den:      dRes,
		Cov:      cov,
		Diag:     mergeRatioDiag(nRes.Diag, dRes.Diag, raw < 0),
	}, nil
}
