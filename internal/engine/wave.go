// Progressive wave execution: the engine's entry point for online
// aggregation (internal/online). A WaveExec is a prepared execution of a
// fusable single-scan plan — scan → {Bernoulli, SYSTEM, lineage-hash}
// sample? → select* → project?, with GUS quasi-operators anywhere — that
// the caller drives one partition window ("wave") at a time instead of all
// at once.
//
// Determinism contract: every wave runs the same fused kernel over the
// same global partitioning as ExecuteBatch, with absolute row indices and
// GLOBAL partition indices feeding the per-(seed, node, partition)
// sampling sub-seeds. Concatenating the wave outputs for any cover of
// [0, Partitions()) therefore yields bit-identical rows to one full
// ExecuteBatch of the plan — running progressively changes WHEN rows are
// produced, never WHICH rows.
package engine

import (
	"fmt"

	"github.com/sampling-algebra/gus/internal/batch"
	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/ops"
	"github.com/sampling-algebra/gus/internal/plan"
	"github.com/sampling-algebra/gus/internal/relation"
)

// WaveExec is a prepared progressive execution. It is bound to the engine
// that prepared it (worker pool, partition size, context) and is safe for
// use from one goroutine at a time.
type WaveExec struct {
	e     *Engine
	in    *batch.Batch
	spans []ops.Span // full partitioning of the scan input
	smp   *sampleStage
	preds []*expr.VecCompiled
	proj  *projSpec
	zp    *zonePruner
	alias string
	// distinct records plan.DistinctLineage of the prepared plan.
	distinct bool
}

// PrepareWaves prepares root for wave-by-wave execution, or returns
// (nil, nil) when the plan's shape does not support it — multi-table
// plans (joins, unions, intersections) and globally-coupled sampling
// methods (WOR's top-K needs every row before it can keep any) fall back
// to one-shot execution. seed must be the seed later waves are to be
// bit-compatible with.
func (e *Engine) PrepareWaves(root plan.Node, seed uint64) (*WaveExec, error) {
	ids := numberNodes(root)
	c := fusedChainOf(root)
	if c == nil {
		// A bare (possibly GUS-wrapped) scan is below fusedChainOf's
		// fusion threshold but waves over it just fine.
		s, ok := stripGUS(root).(*plan.Scan)
		if !ok {
			return nil, nil
		}
		c = &fusedChain{scan: s}
	}
	in, smp, preds, proj, zp, err := e.prepareChain(c, seed, ids)
	if err != nil {
		return nil, err
	}
	alias := c.scan.Rel.Name()
	if c.scan.Alias != "" {
		alias = c.scan.Alias
	}
	return &WaveExec{
		e:        e,
		in:       in,
		spans:    ops.Partitions(in.Len(), e.partSize),
		smp:      smp,
		preds:    preds,
		proj:     proj,
		zp:       zp,
		alias:    alias,
		distinct: plan.DistinctLineage(root),
	}, nil
}

// Partitions reports how many input partitions the scan splits into — the
// unit waves are counted in.
func (w *WaveExec) Partitions() int { return len(w.spans) }

// InputRows reports the scanned relation's total row count.
func (w *WaveExec) InputRows() int { return w.in.Len() }

// RowsThrough reports how many input rows partitions [0, p) cover.
func (w *WaveExec) RowsThrough(p int) int {
	if p <= 0 {
		return 0
	}
	if p > len(w.spans) {
		p = len(w.spans)
	}
	return w.spans[p-1].Hi
}

// Alias names the scanned relation as it appears in lineage schemas (the
// plan alias, or the relation name) — the relation a progressive
// estimator's prefix model applies to.
func (w *WaveExec) Alias() string { return w.alias }

// DistinctLineage reports whether every wave row carries its own lineage
// ID — a single scan with no SYSTEM (block) sampler — so a progressive
// estimator may skip lineage grouping, exactly as the one-shot query over
// the same plan does.
func (w *WaveExec) DistinctLineage() bool { return w.distinct }

// OutSchema is the column schema every non-empty wave batch carries
// (empty waves fall back to pipe's float-default schema and hold no
// rows). Callers can compile expressions against it once per stream.
func (w *WaveExec) OutSchema() (*relation.Schema, error) {
	if w.proj == nil {
		return w.in.Schema, nil
	}
	return w.proj.schemaFor(1)
}

// ExecuteWave runs the fused kernel over input partitions [pLo, pHi) and
// returns their output rows. Waves may be executed in any order and with
// any boundaries; concatenating results for a partition cover in index
// order reproduces ExecuteBatch bit for bit.
func (w *WaveExec) ExecuteWave(pLo, pHi int) (*batch.Batch, error) {
	if pLo < 0 || pHi < pLo || pHi > len(w.spans) {
		return nil, fmt.Errorf("engine: wave [%d,%d) outside [0,%d)", pLo, pHi, len(w.spans))
	}
	out, _, err := w.e.pipeWindow(w.in, w.smp, w.preds, w.proj, w.zp, w.spans[pLo:pHi], pLo)
	return out, err
}
