package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"strings"

	"github.com/sampling-algebra/gus"
	"github.com/sampling-algebra/gus/internal/online"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// rule on a sorted copy: the smallest value with at least q·n values at or
// below it. Failed operations are recorded as +Inf, so they sort last and
// count as missing any latency limit. NaN for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the middle value of xs (the mean of the two middle values for
// an even count). NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a measured share together with its base, so every reported
// ratio can say what it was computed from.
type ratio struct {
	num, den float64
}

// value is num/den, or 0 when the base is empty (no events to divide).
func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return r.num / r.den
}

func (r ratio) String() string {
	return fmt.Sprintf("%.6g (%g / %g)", r.value(), r.num, r.den)
}

// result is one read's answer in a form that compares bit for bit: every
// group (a single "" group for non-GROUP BY reads) and, per SELECT item,
// the estimate, standard error and interval.
type result struct {
	sampleRows int
	groups     []resultGroup
}

type resultGroup struct {
	key  string
	vals []estimate
}

type estimate struct {
	est, se, lo, hi float64
}

func fromResult(r *gus.Result) result {
	out := result{sampleRows: r.SampleRows}
	if len(r.Groups) == 0 {
		g := resultGroup{}
		for _, v := range r.Values {
			g.vals = append(g.vals, estimate{v.Estimate, v.StdErr, v.CILow, v.CIHigh})
		}
		out.groups = []resultGroup{g}
		return out
	}
	for _, grp := range r.Groups {
		g := resultGroup{key: grp.Key}
		for _, v := range grp.Values {
			g.vals = append(g.vals, estimate{v.Estimate, v.StdErr, v.CILow, v.CIHigh})
		}
		out.groups = append(out.groups, g)
	}
	return out
}

func fromUpdate(u gus.Update) result {
	g := resultGroup{}
	for _, v := range u.Values {
		g.vals = append(g.vals, estimate{v.Estimate, v.StdErr, v.CILow, v.CIHigh})
	}
	return result{sampleRows: u.SampleRows, groups: []resultGroup{g}}
}

func fromOnline(u online.Update) result {
	g := resultGroup{}
	for _, v := range u.Values {
		g.vals = append(g.vals, estimate{v.Estimate, v.StdErr, v.CILow, v.CIHigh})
	}
	return result{sampleRows: u.SampleRows, groups: []resultGroup{g}}
}

// identical reports whether two answers agree bit for bit: same sample
// size, same groups in the same order, and the same float64 bit patterns
// for every estimate, standard error and interval end.
func identical(a, b result) bool {
	if a.sampleRows != b.sampleRows || len(a.groups) != len(b.groups) {
		return false
	}
	for i := range a.groups {
		ga, gb := a.groups[i], b.groups[i]
		if ga.key != gb.key || len(ga.vals) != len(gb.vals) {
			return false
		}
		for j := range ga.vals {
			va, vb := ga.vals[j], gb.vals[j]
			if math.Float64bits(va.est) != math.Float64bits(vb.est) ||
				math.Float64bits(va.se) != math.Float64bits(vb.se) ||
				math.Float64bits(va.lo) != math.Float64bits(vb.lo) ||
				math.Float64bits(va.hi) != math.Float64bits(vb.hi) {
				return false
			}
		}
	}
	return true
}

// check verifies the output contract every read must meet: at least one
// value, each estimate and interval end finite, and the estimate inside
// its own interval.
func check(r result) error {
	n := 0
	for _, g := range r.groups {
		for _, v := range g.vals {
			n++
			for _, x := range []float64{v.est, v.lo, v.hi} {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return fmt.Errorf("group %q: non-finite value in %+v", g.key, v)
				}
			}
			if !(v.lo <= v.est && v.est <= v.hi) {
				return fmt.Errorf("group %q: estimate %v outside its interval [%v, %v]", g.key, v.est, v.lo, v.hi)
			}
		}
	}
	if n == 0 {
		return fmt.Errorf("no values returned")
	}
	return nil
}

// coverage counts the returned intervals (one per value per group) and
// how many of them contain the exact answer. Groups the sample missed are
// not returned and so not counted; a returned group the exact answer
// lacks counts as not covered.
func coverage(r, exact result) (covered, total int) {
	byKey := make(map[string][]estimate, len(exact.groups))
	for _, g := range exact.groups {
		byKey[g.key] = g.vals
	}
	for _, g := range r.groups {
		ex := byKey[g.key]
		for j, v := range g.vals {
			total++
			if j < len(ex) && v.lo <= ex[j].est && ex[j].est <= v.hi {
				covered++
			}
		}
	}
	return covered, total
}

// runtimeCounters reads the runtime/metrics values the benchmark reports
// as deltas or peaks over a window.
type runtimeCounters struct {
	allocBytes float64 // cumulative heap bytes allocated
	gcCPU      float64 // cumulative GC CPU seconds
	totalCPU   float64 // cumulative CPU seconds available to the process
	heapBytes  float64 // live heap object bytes right now
}

var runtimeSampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeSampleNames))
	for i, n := range runtimeSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeCounters{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2), heapBytes: val(3)}
}

// metricDeltas subtracts two MetricsSnapshot readings per (name, label),
// keeping only counters that moved.
func metricDeltas(before, after []gus.MetricSample) map[string]float64 {
	base := make(map[string]float64, len(before))
	for _, m := range before {
		base[metricKey(m)] = m.Value
	}
	out := map[string]float64{}
	for _, m := range after {
		if d := m.Value - base[metricKey(m)]; d != 0 {
			out[metricKey(m)] = d
		}
	}
	return out
}

func metricKey(m gus.MetricSample) string {
	if m.Label == "" {
		return m.Name
	}
	return m.Name + "{" + m.Label + "}"
}

// family returns the deltas of one labelled counter family as
// "label=value" strings in label order, and their total.
func family(d map[string]float64, name string) (labels []string, total float64) {
	prefix := name + "{"
	var keys []string
	for k := range d {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		labels = append(labels, fmt.Sprintf("%s=%g", strings.TrimSuffix(k[len(prefix):], "}"), d[k]))
		total += d[k]
	}
	return labels, total
}
