package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{7, 1, 10, 3, 2, 9, 4, 8, 6, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.5, 5}, {0.95, 10}, {1, 10},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 7 {
		t.Error("percentile sorted its input in place")
	}
	// A failed op (+Inf) misses every latency limit: it pushes the tail up.
	withFail := append([]float64{math.Inf(1)}, xs[:9]...)
	if got := percentile(withFail, 0.95); !math.IsInf(got, 1) {
		t.Errorf("p95 with one failure in 10 = %v, want +Inf", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of empty sample = %v, want NaN", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of empty sample is not NaN")
	}
}

func TestRatio(t *testing.T) {
	r := ratio{3, 4}
	if r.value() != 0.75 || r.String() != "0.75 (3 / 4)" {
		t.Errorf("ratio = %v %q", r.value(), r.String())
	}
	if (ratio{0, 0}).value() != 0 {
		t.Error("empty base should give 0")
	}
}

func answer(vals ...estimate) result {
	return result{sampleRows: 10, groups: []resultGroup{{vals: vals}}}
}

func TestIdenticalIsBitwise(t *testing.T) {
	a := answer(estimate{1, 0.1, 0.8, 1.2})
	if !identical(a, answer(estimate{1, 0.1, 0.8, 1.2})) {
		t.Fatal("equal answers reported different")
	}
	next := math.Nextafter(1.2, 2)
	for name, b := range map[string]result{
		"one ulp":     answer(estimate{1, 0.1, 0.8, next}),
		"sample size": {sampleRows: 11, groups: a.groups},
		"group key":   {sampleRows: 10, groups: []resultGroup{{key: "1", vals: a.groups[0].vals}}},
		"extra value": answer(estimate{1, 0.1, 0.8, 1.2}, estimate{1, 0.1, 0.8, 1.2}),
	} {
		if identical(a, b) {
			t.Errorf("%s: different answers reported identical", name)
		}
	}
	nan := answer(estimate{math.NaN(), 0, 0, 0})
	if !identical(nan, nan) {
		t.Error("NaN answer differs from itself; comparison must be by bits")
	}
}

func TestCheck(t *testing.T) {
	if err := check(answer(estimate{1, 0.1, 0.8, 1.2})); err != nil {
		t.Errorf("valid answer rejected: %v", err)
	}
	for name, r := range map[string]result{
		"outside interval": answer(estimate{2, 0.1, 0.8, 1.2}),
		"non-finite":       answer(estimate{math.Inf(1), 0, math.Inf(-1), math.Inf(1)}),
		"NaN":              answer(estimate{math.NaN(), 0, 0, 1}),
		"empty":            {},
	} {
		if check(r) == nil {
			t.Errorf("%s: invalid answer accepted", name)
		}
	}
}

func TestCoverage(t *testing.T) {
	exact := result{groups: []resultGroup{
		{key: "1", vals: []estimate{{est: 10}, {est: 5}}},
		{key: "2", vals: []estimate{{est: 20}, {est: 7}}},
	}}
	got := result{groups: []resultGroup{
		{key: "1", vals: []estimate{{lo: 9, hi: 11}, {lo: 6, hi: 8}}},  // 10 in, 5 out
		{key: "2", vals: []estimate{{lo: 20, hi: 20}, {lo: 6, hi: 8}}}, // both in
		{key: "3", vals: []estimate{{lo: 0, hi: 1}}},                   // no exact group
	}}
	covered, total := coverage(got, exact)
	if covered != 3 || total != 5 {
		t.Errorf("coverage = %d/%d, want 3/5", covered, total)
	}
}
