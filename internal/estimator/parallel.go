// One-shot accumulation of the Theorem-1 sums. The SBox evaluates f over
// the sample (Σf and the per-row values) and then the Y_S group-by-
// lineage moments (§6.3) or their bilinear generalization. With Workers >
// 0 each pass splits the rows into fixed-size partitions (ops.Partitions)
// worked on the pool and combined in partition order; the moments come
// from the shared moment state (moments.go) fed every partition as one
// wave. Partition boundaries and merge order depend only on the data and
// the partition size, so every positive Workers value produces
// bit-identical floats. Workers ≤ 0 keeps the serial string-keyed
// momentsSerial, which doubles as the tests' reference oracle.
package estimator

import (
	"fmt"

	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/ops"
)

// partitionSize resolves the accumulator morsel size.
func (o Options) partitionSize() int {
	if o.PartitionSize > 0 {
		return o.PartitionSize
	}
	return ops.DefaultPartitionSize
}

// sumF evaluates the aggregate argument per row, serially (Workers = 0,
// the legacy single-pass ops.SumF) or partition-parallel. The per-row
// values are identical either way; only the association order of the
// total differs, and the partitioned total is fixed for any worker count.
func sumF(in *ops.Rows, f expr.Expr, opts Options) ([]float64, float64, error) {
	if opts.Workers <= 0 {
		return ops.SumF(in, f)
	}
	c, err := expr.Compile(f, in.Cols)
	if err != nil {
		return nil, 0, fmt.Errorf("estimator: aggregate: %w", err)
	}
	n := in.Len()
	fs := make([]float64, n)
	spans := ops.Partitions(n, opts.partitionSize())
	partials := make([]float64, len(spans))
	//gus:ctx-ok pure CPU shard over a materialized sample, below cancellation granularity
	err = ops.ForEachPart(opts.Workers, len(spans), func(p int) error {
		var acc float64
		for i := spans[p].Lo; i < spans[p].Hi; i++ {
			v, err := c(in.Data[i].Vals)
			if err != nil {
				return fmt.Errorf("estimator: aggregate: %w", err)
			}
			fv, err := v.AsFloat()
			if err != nil {
				return fmt.Errorf("estimator: aggregate: %w", err)
			}
			fs[i] = fv
			acc += fv
		}
		partials[p] = acc
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	var total float64
	for _, t := range partials {
		total += t
	}
	return fs, total, nil
}

// totalOf sums per-row values with the same partition structure the other
// accumulators use, so the Σf entering the estimate is worker-count
// independent.
func totalOf(fs []float64, opts Options) float64 {
	if opts.Workers <= 0 {
		var t float64
		for _, v := range fs {
			t += v
		}
		return t
	}
	spans := ops.Partitions(len(fs), opts.partitionSize())
	partials := make([]float64, len(spans))
	//gus:ctx-ok pure CPU shard over a materialized sample, below cancellation granularity
	_ = ops.ForEachPart(opts.Workers, len(spans), func(p int) error {
		var acc float64
		for i := spans[p].Lo; i < spans[p].Hi; i++ {
			acc += fs[i]
		}
		partials[p] = acc
		return nil
	})
	var t float64
	for _, p := range partials {
		t += p
	}
	return t
}

// momentsSharded computes the §6.3 Y_S moments — the bilinear cross
// moments Y_S(f,g) with gs non-nil (see BilinearMoments) — as the moment
// state fed every partition at once. The caller releases the state.
func momentsSharded(n int, src linSource, fs, gs []float64, opts Options) *momentState {
	st := newMomentState(n, gs != nil, opts)
	st.foldSpans(src, fs, gs, opts)
	return st
}

// momentsSerial is the Workers ≤ 0 path and the reference oracle: one
// pass per mask grouping rows by their string-encoded lineage
// projection, with group totals accumulated and combined in first-seen
// order.
func momentsSerial(n int, src linSource, fs, gs []float64) []float64 {
	out := make([]float64, 1<<uint(n))
	var totF, totG float64
	for i, v := range fs {
		totF += v
		if gs != nil {
			totG += gs[i]
		}
	}
	if gs != nil {
		out[0] = totF * totG
	} else {
		out[0] = totF * totF
	}
	for m := 1; m < len(out); m++ {
		set := lineage.Set(m)
		//gus:stringmap-ok reference oracle for the hash-grouped moment state; keys are composite lineage projections
		idx := make(map[string]int, len(fs))
		var fTot, gTot []float64
		for i, f := range fs {
			k := src.projectKey(i, set)
			j, ok := idx[k]
			if !ok {
				j = len(fTot)
				idx[k] = j
				fTot = append(fTot, 0)
				gTot = append(gTot, 0)
			}
			fTot[j] += f
			if gs != nil {
				gTot[j] += gs[i]
			}
		}
		var acc float64
		for j, f := range fTot {
			if gs != nil {
				acc += f * gTot[j]
			} else {
				acc += f * f
			}
		}
		out[m] = acc
	}
	return out
}

// bilinearFor computes the bilinear moments Y_S(f,g) serially or sharded.
func bilinearFor(n int, src linSource, fs, gs []float64, opts Options) []float64 {
	if opts.Workers <= 0 {
		return momentsSerial(n, src, fs, gs)
	}
	st := momentsSharded(n, src, fs, gs, opts)
	defer st.release()
	return momentVector(pairFG, st.totF, st.totG, st.exactSums())
}

// shardedMoments returns the sharded Y_S(f,f) and the full-mask group
// statistics (group count, Σt², Σt⁴) the reliability diagnostics read.
func shardedMoments(n int, src linSource, fs []float64, opts Options) (y []float64, groups int, sum2, sum4 float64) {
	st := momentsSharded(n, src, fs, nil, opts)
	defer st.release()
	sums := st.exactSums()
	top := sums[len(sums)-1]
	return momentVector(pairFF, st.totF, 0, sums), st.topGroups(), top.ff, top.f4
}
