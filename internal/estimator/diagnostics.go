// Variance diagnostics: how reliable is the variance estimate itself?
//
// Theorem 1's V̂ is unbiased but is still a sample statistic, dominated by
// the full-mask moment Y_full = Σ_groups t², where t are the per-lineage-
// group aggregate totals. Treating the group totals as approximately iid,
// the sampling variance of Σt² over G groups is ≈ G·(m₄ − m₂²) with
// m_k the k-th raw moment of the t's, giving a relative standard error
//
//	RSE(V̂) ≈ sqrt((m₄/m₂² − 1) / G)
//
// — the classic variance-of-variance result driven by the kurtosis-like
// ratio m₄/m₂². Skewed data inflates m₄/m₂² and small effective samples
// shrink G, which is exactly when reported CIs silently degrade; the RSE
// plus structural flags (delta-method ratio, §7 sub-sampling, clamped
// negative variance) fold into a letter grade an operator can read.
//
// The group statistics are read from the moment state the variance came
// from (the full mask's group totals); they never feed back into the
// estimate, and a bit-identity test enforces it.
package estimator

import "math"

// Diagnostics reports the reliability of a Result's variance estimate
// (and hence of the confidence interval derived from it).
type Diagnostics struct {
	// Groups is the number of distinct full-lineage groups the variance
	// moments were computed over — the effective term count G.
	Groups int
	// Kurtosis is m₄/m₂² of the per-group aggregate totals (3 for a
	// normal distribution, larger under heavy tails; 0 when degenerate).
	Kurtosis float64
	// VarianceRSE is the estimated relative standard error of the
	// variance estimate itself.
	VarianceRSE float64
	// Approximate marks a first-order delta-method variance (AVG/ratio).
	Approximate bool
	// Subsampled marks §7 variance sub-sampling (moments from a subset).
	Subsampled bool
	// Clamped marks a negative raw variance clamped to zero.
	Clamped bool
	// Grade is the CI-reliability letter: A (trustworthy) through D
	// (do not trust the error bar).
	Grade string
}

// newDiagnostics derives Kurtosis, VarianceRSE and the grade from the
// full-mask group statistics.
func newDiagnostics(groups int, sum2, sum4 float64, approximate, subsampled, clamped bool) *Diagnostics {
	d := &Diagnostics{
		Groups:      groups,
		Approximate: approximate,
		Subsampled:  subsampled,
		Clamped:     clamped,
	}
	if groups > 0 && sum2 > 0 {
		g := float64(groups)
		m2 := sum2 / g
		m4 := sum4 / g
		d.Kurtosis = m4 / (m2 * m2)
		d.VarianceRSE = math.Sqrt(math.Max(d.Kurtosis-1, 0) / g)
	}
	d.Grade = gradeDiag(groups, d.VarianceRSE, approximate, clamped)
	return d
}

// gradeDiag maps the diagnostics to a letter grade. Thresholds: an RSE of
// 0.10 means one standard error moves the estimated σ by ~5% (CI widths
// scale with √V̂), which is operationally negligible — grade A; 0.25 and
// 0.50 mark the points where the reported interval's width is itself
// uncertain by ~12% and ~25% — grades B and C; beyond that the error bar
// is decorative — D. Structural demotions: fewer than 30 effective terms
// (the normal-approximation rule of thumb) costs a notch, a first-order
// delta-method variance caps at B, and a clamped negative variance is an
// automatic D (the point estimate of σ² was not even non-negative).
func gradeDiag(groups int, rse float64, approximate, clamped bool) string {
	if clamped || groups < 2 {
		return "D"
	}
	g := 0
	switch {
	case rse <= 0.10:
		g = 0
	case rse <= 0.25:
		g = 1
	case rse <= 0.50:
		g = 2
	default:
		g = 3
	}
	if groups < 30 {
		g++
	}
	if approximate && g < 1 {
		g = 1
	}
	if g > 3 {
		g = 3
	}
	return grades[g]
}

// grades are the reliability letters, best first.
var grades = []string{"A", "B", "C", "D"}

// DiagnoseAccum grades a streaming accumulator's current variance
// reliability — the per-wave counterpart of Options.Diagnostics, read
// from the group statistics the accumulator keeps current. A bilinear
// (ratio) accumulator is graded like the one-shot ratio: the weaker of
// its numerator and denominator.
func DiagnoseAccum(a *Accum, approximate, clamped bool) *Diagnostics {
	r := a.reading()
	top := r.sums[len(r.sums)-1]
	d := newDiagnostics(r.groups, top.ff, top.f4, approximate, false, clamped)
	if a.st.bilinear {
		d = mergeRatioDiag(d, newDiagnostics(r.groups, top.gg, top.g4, approximate, false, clamped), clamped)
	}
	return d
}

// diagnoseSource computes the full-mask group statistics (group count,
// Σt², Σt⁴) of a sample from a moment state built for the purpose.
func diagnoseSource(n int, src linSource, fs []float64) (groups int, sum2, sum4 float64) {
	_, groups, sum2, sum4 = shardedMoments(n, src, fs, Options{Workers: 1})
	return groups, sum2, sum4
}

// mergeRatioDiag folds the component SUM diagnostics of a delta-method
// ratio into one: the weaker (higher-RSE) component dominates, the result
// is marked Approximate (first-order Taylor variance), and the grade is
// recomputed under that cap.
func mergeRatioDiag(nd, dd *Diagnostics, clamped bool) *Diagnostics {
	if nd == nil || dd == nil {
		return nil
	}
	w := nd
	if dd.VarianceRSE > nd.VarianceRSE {
		w = dd
	}
	d := &Diagnostics{
		Groups:      w.Groups,
		Kurtosis:    w.Kurtosis,
		VarianceRSE: w.VarianceRSE,
		Approximate: true,
		Subsampled:  nd.Subsampled || dd.Subsampled,
		Clamped:     clamped,
	}
	d.Grade = gradeDiag(d.Groups, d.VarianceRSE, true, clamped)
	return d
}
