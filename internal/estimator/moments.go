// The Theorem-1 moment state shared by one-shot and progressive
// estimation. Theorem 1 prices a plan from Σf and the §6.3 group-by-
// lineage sums Y_S = Σ_groups (Σf)(Σg), one per lineage mask S. A
// momentState holds them for one sample:
//
//   - Σf (Σg) as partials over fixed-size spans of sample rows
//     (ops.Partitions), each summed in row order and added in span order;
//   - per mask, the groups in first-seen order with their value totals
//     and the running sums Σ(Σf)², Σ(Σg)², Σ(Σf)(Σg) (plus the fourth
//     powers the reliability diagnostics need), adjusted group by group
//     as each span's shard merges, in span order.
//
// One-shot estimation builds every span's shard on the worker pool and
// merges them all at once (momentsSharded); online aggregation feeds the
// same state one wave at a time (Accum). Exact moments recompute the sums
// from the group totals in first-seen order, so a stream finalizes
// bit-identically to the one-shot answer over the same sample, whatever
// its chunking and worker count. Partition boundaries and merge order
// depend only on the data and the span size, never on the worker count.
//
// Single-slot samples with distinct lineage (Options.DistinctLineage)
// skip grouping: every group is one row, so the group sums are row-order
// sums — exactly the floats the grouped recompute produces — and the live
// moments are exact.
package estimator

import (
	"sync"

	"github.com/sampling-algebra/gus/internal/hashtab"
	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/ops"
)

// groupSums are one mask's sums over its group totals (t_f, t_g).
type groupSums struct {
	ff, gg, fg float64 // Σt_f², Σt_g², Σt_f·t_g
	f4, g4     float64 // Σt_f⁴, Σt_g⁴ (reliability diagnostics)
}

// move shifts one group's totals from (f0, g0) to (f1, g1).
func (s *groupSums) move(f0, f1, g0, g1 float64) {
	p0, p1 := f0*f0, f1*f1
	q0, q1 := g0*g0, g1*g1
	s.ff += p1 - p0
	s.gg += q1 - q0
	s.fg += f1*g1 - f0*g0
	s.f4 += p1*p1 - p0*p0
	s.g4 += q1*q1 - q0*q0
}

// pair selects which value streams a moment vector pairs.
type pair int

const (
	pairFF pair = iota // Y_S(f,f)
	pairGG             // Y_S(g,g)
	pairFG             // Y_S(f,g)
)

func (s groupSums) of(p pair) float64 {
	switch p {
	case pairGG:
		return s.gg
	case pairFG:
		return s.fg
	}
	return s.ff
}

// momentVector assembles the dense Y_S vector (index = lineage.Set) for
// one pair from the totals and per-mask sums.
func momentVector(p pair, totF, totG float64, sums []groupSums) []float64 {
	out := make([]float64, len(sums))
	switch p {
	case pairFF:
		out[0] = totF * totF
	case pairGG:
		out[0] = totG * totG
	default:
		out[0] = totF * totG
	}
	for m := 1; m < len(out); m++ {
		out[m] = sums[m].of(p)
	}
	return out
}

// momentState is the moment state of one sample (see the file comment).
type momentState struct {
	n        int
	partSize int
	bilinear bool // a g stream rides along with f
	distinct bool // one slot, one row per group: no grouping

	rows         int
	spanRows     int     // rows of the incomplete span
	totF, totG   float64 // completed spans' partials, in span order
	spanF, spanG float64 // the incomplete span's partial, in row order

	masks []*maskState // index = lineage mask; [0] unused (Y_∅ = totals)
	run   groupSums    // distinct mode: mask {1}'s running sums
}

func newMomentState(n int, bilinear bool, opts Options) *momentState {
	st := &momentState{
		n:        n,
		partSize: opts.partitionSize(),
		bilinear: bilinear,
		distinct: n == 1 && opts.DistinctLineage,
	}
	if !st.distinct {
		st.masks = make([]*maskState, 1<<uint(n))
		for m := 1; m < len(st.masks); m++ {
			st.masks[m] = getMaskState(lineage.Set(m), bilinear)
		}
	}
	return st
}

// addDistinct folds rows into a distinct-mode state: the span partials
// and the singleton-group sums, all in row order. The sums live in locals
// so each loop's dependency chains stay in registers.
func (st *momentState) addDistinct(fs, gs []float64) {
	st.rows += len(fs)
	st.spanRows += len(fs)
	s := &st.run
	if gs == nil {
		sf, ff, f4 := st.spanF, s.ff, s.f4
		for _, f := range fs {
			p := f * f
			sf += f
			ff += p
			f4 += p * p
		}
		st.spanF, s.ff, s.f4 = sf, ff, f4
		return
	}
	gs = gs[:len(fs)]
	sf, ff, f4, sg, gg, g4, fg := st.spanF, s.ff, s.f4, st.spanG, s.gg, s.g4, s.fg
	for i, f := range fs {
		g := gs[i]
		p, q := f*f, g*g
		sf += f
		ff += p
		f4 += p * p
		sg += g
		gg += q
		g4 += q * q
		fg += f * g
	}
	st.spanF, s.ff, s.f4, st.spanG, s.gg, s.g4, s.fg = sf, ff, f4, sg, gg, g4, fg
}

// addSpanTotals adds rows of the incomplete span to its partials.
func (st *momentState) addSpanTotals(fs, gs []float64) {
	for i, f := range fs {
		st.spanF += f
		if gs != nil {
			st.spanG += gs[i]
		}
	}
	st.rows += len(fs)
	st.spanRows += len(fs)
}

// closeSpan adds the incomplete span's partials to the totals.
func (st *momentState) closeSpan() {
	if st.spanRows == 0 {
		return
	}
	st.totF += st.spanF
	st.totG += st.spanG
	st.spanF, st.spanG, st.spanRows = 0, 0, 0
}

// foldSpans folds a whole sample — every span of src's rows — into a
// fresh state: per-mask shards built on up to opts.Workers goroutines and
// merged in span order.
func (st *momentState) foldSpans(src linSource, fs, gs []float64, opts Options) {
	spans := ops.Partitions(len(fs), st.partSize)
	if st.distinct {
		for _, sp := range spans {
			var g []float64
			if gs != nil {
				g = gs[sp.Lo:sp.Hi]
			}
			st.addDistinct(fs[sp.Lo:sp.Hi], g)
			st.closeSpan()
		}
		return
	}
	st.rows = len(fs)
	st.totF = totalOf(fs, opts)
	if gs != nil {
		st.totG = totalOf(gs, opts)
	}
	shards := make([]hashShard, len(spans))
	for m := 1; m < len(st.masks); m++ {
		ms := st.masks[m]
		//gus:ctx-ok pure CPU shard over a materialized sample, below cancellation granularity
		_ = ops.ForEachPart(opts.Workers, len(spans), func(p int) error {
			shards[p] = hashShardFor(spans[p], src, ms.slots, fs, gs)
			return nil
		})
		groups := 0
		for p := range shards {
			groups += len(shards[p].rows)
		}
		ms.reserve(groups)
		for p := range shards {
			ms.merge(&shards[p], src)
		}
	}
}

// exactSums returns every mask's sums recomputed from its group totals in
// first-seen order (the running sums in distinct mode, which are exact).
func (st *momentState) exactSums() []groupSums {
	sums := make([]groupSums, 1<<uint(st.n))
	if st.distinct {
		sums[1] = st.run
		return sums
	}
	for m := 1; m < len(sums); m++ {
		sums[m] = st.masks[m].exact()
	}
	return sums
}

// topGroups counts the full-mask groups merged so far.
func (st *momentState) topGroups() int {
	if st.distinct {
		return st.rows
	}
	return len(st.masks[len(st.masks)-1].fTot)
}

// release returns the per-mask group state to its pool; the state must
// not be used afterwards.
func (st *momentState) release() {
	for m := 1; m < len(st.masks); m++ {
		st.masks[m].keys, st.masks[m].own = nil, nil // do not pin the sample
		maskPool.Put(st.masks[m])
		st.masks[m] = nil
	}
}

// maskState is one mask's merged groups: an open-addressing grouper over
// projected-lineage hashes (full ID compare on collisions), each group's
// representative row, the group totals in first-seen order and, for live
// reads, the running sums over them.
type maskState struct {
	slots    []int
	bilinear bool
	g        hashtab.Grouper
	// reps holds each group's representative row in keys. A one-shot
	// state keys groups by rows of the sample itself; a streaming state
	// copies each new group's lineage into own (keys = own), because wave
	// rows do not outlive the merge.
	reps       []int32
	keys       linSource
	own        colLins
	fTot, gTot []float64
	running    bool // keep run current: a one-shot state needs exact sums only
	run        groupSums
}

// maskPool recycles group state across queries and streams.
var maskPool = sync.Pool{New: func() any { return &maskState{} }}

func getMaskState(set lineage.Set, bilinear bool) *maskState {
	ms := maskPool.Get().(*maskState)
	ms.slots, ms.bilinear = set.Members(), bilinear
	ms.g.Reset(0)
	ms.reps, ms.fTot, ms.gTot = ms.reps[:0], ms.fTot[:0], ms.gTot[:0]
	ms.running, ms.run = false, groupSums{}
	return ms
}

// stream prepares the state for wave-at-a-time merging over n slots.
func (ms *maskState) stream(n int) {
	ms.own = make(colLins, n)
	ms.keys = ms.own
	ms.running = true
}

// reserve sizes an empty mask state for about groups groups.
func (ms *maskState) reserve(groups int) {
	ms.g.Reset(groups)
	if cap(ms.fTot) < groups {
		ms.reps = make([]int32, 0, groups)
		ms.fTot = make([]float64, 0, groups)
		if ms.bilinear {
			ms.gTot = make([]float64, 0, groups)
		}
	}
}

// find returns the group src row i projects to, or -1.
func (ms *maskState) find(h uint64, src linSource, i int) int32 {
	return ms.g.Find(h, func(id int32) bool { return rowEqual(ms.keys, int(ms.reps[id]), src, i, ms.slots) })
}

// totals returns group id's totals (zero for id < 0, a group not yet
// merged).
func (ms *maskState) totals(id int32) (f, g float64) {
	if id < 0 {
		return 0, 0
	}
	if ms.bilinear {
		g = ms.gTot[id]
	}
	return ms.fTot[id], g
}

// merge folds one span's shard (rows of src) into the groups, in the
// shard's first-seen order.
func (ms *maskState) merge(sh *hashShard, src linSource) {
	if ms.own == nil {
		ms.keys = src
	}
	rep := 0
	eq := func(id int32) bool { return rowEqual(ms.keys, int(ms.reps[id]), src, rep, ms.slots) }
	for k, r := range sh.rows {
		rep = int(r)
		id, fresh := ms.g.Get(sh.hashes[k], eq)
		if fresh {
			if ms.own != nil {
				r = int32(len(ms.fTot))
				for _, s := range ms.slots {
					ms.own[s] = append(ms.own[s], src.id(rep, s))
				}
			}
			ms.reps = append(ms.reps, r)
			ms.fTot = append(ms.fTot, 0)
			if ms.bilinear {
				ms.gTot = append(ms.gTot, 0)
			}
		}
		f0, g0 := ms.totals(id)
		f1, g1 := f0+sh.fsum[k], g0
		ms.fTot[id] = f1
		if ms.bilinear {
			g1 = g0 + sh.gsum[k]
			ms.gTot[id] = g1
		}
		if ms.running {
			ms.run.move(f0, f1, g0, g1)
		}
	}
}

// exact recomputes the sums from the group totals in first-seen order.
func (ms *maskState) exact() groupSums {
	var s groupSums
	for i, f := range ms.fTot {
		p := f * f
		s.ff += p
		s.f4 += p * p
		if ms.bilinear {
			g := ms.gTot[i]
			q := g * g
			s.gg += q
			s.g4 += q * q
			s.fg += f * g
		}
	}
	return s
}

// linMomentSeed decorrelates moment-group hashes from other key domains.
const linMomentSeed = 0x94d049bb133111eb

// rowHash returns the canonical hash of row i's lineage projected onto
// slots: per-slot ID hashes combined in ascending slot order. Group
// identity is decided by full ID compare, never by the hash.
func rowHash(src linSource, slots []int, i int) uint64 {
	h := uint64(linMomentSeed)
	for _, s := range slots {
		h = hashtab.Combine(h, hashtab.Mix(uint64(src.id(i, s))))
	}
	return h
}

// rowEqual reports whether row i of a and row j of b project identically
// onto slots.
func rowEqual(a linSource, i int, b linSource, j int, slots []int) bool {
	for _, s := range slots {
		if a.id(i, s) != b.id(j, s) {
			return false
		}
	}
	return true
}

// grouperPool recycles the span-local tables behind shard building.
var grouperPool = sync.Pool{New: func() any { return &hashtab.Grouper{} }}

// hashShard is one span's groups for one mask: each group's first row
// (an index into the source), its hash and its value sums, in first-seen
// order.
type hashShard struct {
	rows   []int32
	hashes []uint64
	fsum   []float64
	gsum   []float64 // nil unless bilinear
}

// hashShardFor builds the shard of span's rows.
func hashShardFor(span ops.Span, src linSource, slots []int, fs, gs []float64) hashShard {
	g := grouperPool.Get().(*hashtab.Grouper)
	g.Reset(span.Hi - span.Lo)
	var sh hashShard
	sh.extend(g, src, slots, fs, gs, span.Lo, span.Hi)
	grouperPool.Put(g)
	return sh
}

// extend groups rows [lo, hi) into the shard on its grouper g.
func (sh *hashShard) extend(g *hashtab.Grouper, src linSource, slots []int, fs, gs []float64, lo, hi int) {
	cand := lo
	eq := func(id int32) bool { return rowEqual(src, cand, src, int(sh.rows[id]), slots) }
	for i := lo; i < hi; i++ {
		cand = i
		h := rowHash(src, slots, i)
		id, fresh := g.Get(h, eq)
		if fresh {
			sh.rows = append(sh.rows, int32(i))
			sh.hashes = append(sh.hashes, h)
			sh.fsum = append(sh.fsum, 0)
			if gs != nil {
				sh.gsum = append(sh.gsum, 0)
			}
		}
		sh.fsum[id] += fs[i]
		if gs != nil {
			sh.gsum[id] += gs[i]
		}
	}
}

// reset empties the shard, keeping its buffers.
func (sh *hashShard) reset() {
	sh.rows, sh.hashes, sh.fsum, sh.gsum = sh.rows[:0], sh.hashes[:0], sh.fsum[:0], sh.gsum[:0]
}
