// Package plan models query plans containing relational operators,
// concrete sampling operators and GUS quasi-operators, executes them
// (performing the real sampling), and — the heart of the paper — rewrites
// them under SOA-equivalence into a plan with a single GUS operator on top
// whose parameters feed Theorem 1 (§4, §6.1).
package plan

import (
	"fmt"
	"strings"

	"github.com/sampling-algebra/gus/internal/core"
	"github.com/sampling-algebra/gus/internal/expr"
	"github.com/sampling-algebra/gus/internal/relation"
	"github.com/sampling-algebra/gus/internal/sampling"
)

// Node is a query-plan operator. The node set is closed.
type Node interface {
	// Children returns the node's inputs, left to right.
	Children() []Node
	// Label is a one-line description used by Format.
	Label() string
}

// Scan reads a base relation. Alias names the relation in lineage schemas;
// it defaults to the relation's own name.
//
// When the planner rewrites a scan to read a materialized synopsis, Rel is
// the synopsis's (smaller) relation, Alias keeps the query's lineage name,
// Synopsis records the synopsis name (for traces and metrics), and
// FullRows is the source table's cardinality — what variance prediction
// and EXPLAIN report as the logical table size, since Rel.Len() is then
// only the rows physically read.
type Scan struct {
	Rel      *relation.Relation
	Alias    string
	Synopsis string
	FullRows int
	// Cols, when non-empty, restricts the scan's output to these columns
	// (in the given order): the engine materializes sampled tuples only
	// that wide. Empty means the full schema. Pruning never changes plan
	// shape or node numbering, so sampling realizations are unaffected;
	// every column referenced above the scan must be listed or kernel
	// compilation fails.
	Cols []string
}

// Sample applies a concrete sampling method to its input.
type Sample struct {
	Input  Node
	Method sampling.Method
}

// Select filters by a predicate (σ).
type Select struct {
	Input Node
	Pred  expr.Expr
}

// Join is an equi-join on LeftCol = RightCol (executed as a hash join).
type Join struct {
	Left, Right       Node
	LeftCol, RightCol string
}

// Theta is a general θ-join (executed as filtered cross product).
type Theta struct {
	Left, Right Node
	Pred        expr.Expr
}

// Project evaluates expressions into fresh columns. Lineage is unchanged.
type Project struct {
	Input Node
	Names []string
	Exprs []expr.Expr
}

// Union merges two samples of the same logical expression, deduplicating
// on lineage (Prop. 7's operational side).
type Union struct {
	Left, Right Node
}

// Intersect keeps the lineage-intersection of two samples of the same
// logical expression (compaction, Prop. 8).
type Intersect struct {
	Left, Right Node
}

// GUS is the quasi-operator (§4.2): it asserts that the data flowing
// through this point is a GUS sample with the given parameters, without
// performing any sampling itself. Execution is a pass-through; analysis
// compacts G onto the input's parameters. Its main uses are (a) internal —
// the rewriter's bookkeeping — and (b) "database as a sample" robustness
// analysis (§8), where the stored data is declared to be a sample.
type GUS struct {
	Input Node
	G     *core.Params
}

// Alias returns the scan's lineage name.
func (s *Scan) aliasOrName() string {
	if s.Alias != "" {
		return s.Alias
	}
	return s.Rel.Name()
}

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// Children implements Node.
func (s *Sample) Children() []Node { return []Node{s.Input} }

// Children implements Node.
func (s *Select) Children() []Node { return []Node{s.Input} }

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

// Children implements Node.
func (j *Theta) Children() []Node { return []Node{j.Left, j.Right} }

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Input} }

// Children implements Node.
func (u *Union) Children() []Node { return []Node{u.Left, u.Right} }

// Children implements Node.
func (i *Intersect) Children() []Node { return []Node{i.Left, i.Right} }

// Children implements Node.
func (g *GUS) Children() []Node { return []Node{g.Input} }

// Label implements Node.
func (s *Scan) Label() string {
	if s.Synopsis != "" {
		return fmt.Sprintf("scan synopsis %s as %s", s.Synopsis, s.aliasOrName())
	}
	if s.Alias != "" && s.Alias != s.Rel.Name() {
		return fmt.Sprintf("scan %s as %s", s.Rel.Name(), s.Alias)
	}
	return "scan " + s.Rel.Name()
}

// Label implements Node.
func (s *Sample) Label() string { return "sample " + s.Method.Name() }

// Label implements Node.
func (s *Select) Label() string { return "σ " + s.Pred.String() }

// Label implements Node.
func (j *Join) Label() string { return fmt.Sprintf("⋈ %s = %s", j.LeftCol, j.RightCol) }

// Label implements Node.
func (j *Theta) Label() string { return "⋈θ " + j.Pred.String() }

// Label implements Node.
func (p *Project) Label() string { return "π " + strings.Join(p.Names, ", ") }

// Label implements Node.
func (u *Union) Label() string { return "∪ (by lineage)" }

// Label implements Node.
func (i *Intersect) Label() string { return "∩ (by lineage)" }

// Label implements Node.
func (g *GUS) Label() string { return "GUS " + g.G.String() }

// Format renders the plan tree, one node per line, children indented —
// mirroring the paper's Figure 2/4 plan drawings.
func Format(n Node) string {
	var sb strings.Builder
	var walk func(Node, int)
	walk = func(n Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.Label())
		sb.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return sb.String()
}

// FormatAnnotated renders the plan tree like Format, appending the
// string annot returns for each node (when non-empty) after its label.
// Node numbering for annot follows Walk's pre-order, matching the
// engine's node numbering.
func FormatAnnotated(root Node, annot func(n Node, id int) string) string {
	var sb strings.Builder
	id := 0
	var walk func(Node, int)
	walk = func(n Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.Label())
		if a := annot(n, id); a != "" {
			sb.WriteString("  [")
			sb.WriteString(a)
			sb.WriteByte(']')
		}
		sb.WriteByte('\n')
		id++
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return sb.String()
}

// Walk visits the plan depth-first, parents before children.
func Walk(n Node, fn func(Node)) {
	fn(n)
	for _, c := range n.Children() {
		Walk(c, fn)
	}
}

// DistinctLineage reports whether every row the plan produces carries each
// base tuple ID at most once per lineage slot, so the estimator may treat
// every single-slot lineage group as one row (see
// estimator.Options.DistinctLineage). Plans without set operations have
// this property (self-joins are rejected at planning), except under SYSTEM
// sampling, which rewrites lineage to block IDs that repeat for every
// tuple of a kept block.
func DistinctLineage(root Node) bool {
	distinct := true
	Walk(root, func(n Node) {
		switch t := n.(type) {
		case *Sample:
			if _, block := t.Method.(*sampling.Block); block {
				distinct = false
			}
		case *Union, *Intersect:
			distinct = false
		}
	})
	return distinct
}

// WrapScans returns a copy of the plan with every Scan leaf replaced by
// wrap(scan). It is the hook for §8 "database as a sample" analyses, which
// place GUS quasi-operators directly above base tables.
func WrapScans(n Node, wrap func(*Scan) Node) Node {
	switch t := n.(type) {
	case *Scan:
		return wrap(t)
	case *Sample:
		return &Sample{Input: WrapScans(t.Input, wrap), Method: t.Method}
	case *GUS:
		return &GUS{Input: WrapScans(t.Input, wrap), G: t.G}
	case *Select:
		return &Select{Input: WrapScans(t.Input, wrap), Pred: t.Pred}
	case *Join:
		return &Join{Left: WrapScans(t.Left, wrap), Right: WrapScans(t.Right, wrap), LeftCol: t.LeftCol, RightCol: t.RightCol}
	case *Theta:
		return &Theta{Left: WrapScans(t.Left, wrap), Right: WrapScans(t.Right, wrap), Pred: t.Pred}
	case *Project:
		return &Project{Input: WrapScans(t.Input, wrap), Names: t.Names, Exprs: t.Exprs}
	case *Union:
		return &Union{Left: WrapScans(t.Left, wrap), Right: WrapScans(t.Right, wrap)}
	case *Intersect:
		return &Intersect{Left: WrapScans(t.Left, wrap), Right: WrapScans(t.Right, wrap)}
	default:
		panic(fmt.Sprintf("plan: WrapScans: unknown node %T", n))
	}
}

// StripSampling returns a copy of the plan with every Sample and GUS node
// removed — the exact (non-approximate) plan, used to compute ground truth
// in experiments.
func StripSampling(n Node) Node {
	switch t := n.(type) {
	case *Scan:
		return t
	case *Sample:
		return StripSampling(t.Input)
	case *GUS:
		return StripSampling(t.Input)
	case *Select:
		return &Select{Input: StripSampling(t.Input), Pred: t.Pred}
	case *Join:
		return &Join{Left: StripSampling(t.Left), Right: StripSampling(t.Right), LeftCol: t.LeftCol, RightCol: t.RightCol}
	case *Theta:
		return &Theta{Left: StripSampling(t.Left), Right: StripSampling(t.Right), Pred: t.Pred}
	case *Project:
		return &Project{Input: StripSampling(t.Input), Names: t.Names, Exprs: t.Exprs}
	case *Union:
		// Without sampling both branches are the same expression; keep one.
		return StripSampling(t.Left)
	case *Intersect:
		return StripSampling(t.Left)
	default:
		panic(fmt.Sprintf("plan: StripSampling: unknown node %T", n))
	}
}
