// Batch-fed SBox entry points: the Theorem-1 accumulators consume the
// engine's columnar batches directly — the aggregate argument evaluates
// through vectorized kernels over flat column slices, and the lineage
// moments group over the batch's per-slot lineage-ID columns without ever
// materializing a row.
//
// Bit-identity contract: for the same sample, EstimateBatch/RatioBatch
// produce exactly the floats Estimate/Ratio produce on the row-major
// representation with the same Options — the per-row f values are computed
// by the same scalar operations, and every sum uses the same partition
// structure and merge order.
package estimator

import (
	"fmt"

	"github.com/sampling-algebra/gus/internal/batch"
	"github.com/sampling-algebra/gus/internal/core"
	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/obs"
	"github.com/sampling-algebra/gus/internal/ops"
)

// EstimateBatch runs the SBox over an executed columnar sample. g must be
// the plan's top GUS (from plan.Analyze); the batch's lineage schema must
// match g's.
func EstimateBatch(g *core.Params, b *batch.Batch, f expr.Expr, opts Options) (*Result, error) {
	if !b.LSch.Equal(g.Schema()) {
		return nil, fmt.Errorf("estimator: sample lineage schema %v does not match GUS schema %v",
			b.LSch.Names(), g.Schema().Names())
	}
	sp := opts.Trace.Begin("estimate", f.String(), -1)
	fs, err := sumFBatch(b, f, opts)
	if err != nil {
		return nil, err
	}
	res, err := fromSource(g, colLins(b.Lin), fs, opts)
	if err != nil {
		return nil, err
	}
	opts.Trace.End(sp, int64(b.Len()), 1)
	annotateDiag(opts, sp, res.Diag)
	return res, nil
}

// annotateDiag appends the CI-reliability grade to an estimate span's
// label, so EXPLAIN ANALYZE and trace output show it inline.
func annotateDiag(opts Options, sp int, d *Diagnostics) {
	if opts.Trace == nil || d == nil {
		return
	}
	opts.Trace.SetSpan(sp, func(s *obs.Span) {
		s.Label += fmt.Sprintf(" [reliability=%s rse(V)=%.2g groups=%d]", d.Grade, d.VarianceRSE, d.Groups)
	})
}

// RatioBatch estimates num/den over a columnar sample — the batch
// counterpart of Ratio, sharing its delta-method core.
func RatioBatch(g *core.Params, b *batch.Batch, num, den expr.Expr, opts Options) (*RatioResult, error) {
	if !b.LSch.Equal(g.Schema()) {
		return nil, fmt.Errorf("estimator: sample lineage schema %v does not match GUS schema %v",
			b.LSch.Names(), g.Schema().Names())
	}
	sp := opts.Trace.Begin("estimate", num.String()+" / "+den.String(), -1)
	nfs, err := sumFBatch(b, num, opts)
	if err != nil {
		return nil, err
	}
	dfs, err := sumFBatch(b, den, opts)
	if err != nil {
		return nil, err
	}
	res, err := ratioSrc(g, colLins(b.Lin), nfs, dfs, opts)
	if err != nil {
		return nil, err
	}
	opts.Trace.End(sp, int64(b.Len()), 1)
	annotateDiag(opts, sp, res.Diag)
	return res, nil
}

// sumFBatch evaluates the aggregate argument with vectorized kernels,
// partition at a time, returning the per-row values (their sums are taken
// downstream by totalOf, with the same partition structure the row path
// uses — so every float accumulation order matches it). Each span
// evaluates over zero-copy column slices; no gather, no selection vector.
func sumFBatch(b *batch.Batch, f expr.Expr, opts Options) ([]float64, error) {
	c, err := expr.CompileVec(f, b.Schema)
	if err != nil {
		return nil, fmt.Errorf("estimator: aggregate: %w", err)
	}
	n := b.Len()
	fs := make([]float64, n)
	spans := ops.Partitions(n, opts.partitionSize())
	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}
	//gus:ctx-ok pure CPU shard over a materialized batch, below cancellation granularity
	err = ops.ForEachPart(workers, len(spans), func(p int) error {
		span := spans[p]
		cols := make([]expr.Vec, len(b.Cols))
		for j, col := range b.Cols {
			cols[j] = col.Slice(span.Lo, span.Hi)
		}
		v, err := c.EvalAll(cols, span.Hi-span.Lo)
		if err != nil {
			return fmt.Errorf("estimator: aggregate: %w", err)
		}
		if err := v.FloatsInto(fs[span.Lo:span.Hi]); err != nil {
			return fmt.Errorf("estimator: aggregate: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return fs, nil
}
