// Vectorized expression evaluation: an Expr is compiled once per query
// against a column schema into a tree of typed column kernels that evaluate
// a whole selection of rows per call, over flat []int64/[]float64/[]string
// column slices. The scalar Compile path remains the semantics reference;
// for every supported expression the two produce bit-identical values —
// kernels apply exactly the same per-element operations in the same order,
// they just run them over flat arrays instead of boxed relation.Values.
package expr

import (
	"fmt"
	"math"

	"github.com/sampling-algebra/gus/internal/relation"
)

// Vec is a typed column vector: exactly one of I, F or S is meaningful,
// selected by Kind. A Const vec logically broadcasts its single element
// (index 0) to any length.
//
// String vectors may carry an optional dictionary sidecar (Codes parallel
// to S, indexing Dict): a pure acceleration for keyed operators — hashing
// becomes an array lookup and equality within one dictionary a code
// compare. Invariant: when Codes is non-nil, Dict.Strs[Codes[i]] == S[i]
// for every row; operators that cannot maintain it simply drop the sidecar
// (S remains the source of truth, and consumers fall back to hashing and
// comparing the strings directly).
type Vec struct {
	Kind  relation.Kind
	Const bool
	I     []int64
	F     []float64
	S     []string
	Codes []int32
	Dict  *relation.StrDict
}

// ConstVec wraps one scalar as a broadcast vector.
func ConstVec(v relation.Value) Vec {
	switch v.Kind() {
	case relation.KindInt:
		i, _ := v.AsInt()
		return Vec{Kind: relation.KindInt, Const: true, I: []int64{i}}
	case relation.KindFloat:
		f, _ := v.AsFloat()
		return Vec{Kind: relation.KindFloat, Const: true, F: []float64{f}}
	default:
		return Vec{Kind: relation.KindString, Const: true, S: []string{v.AsString()}}
	}
}

// Len returns the vector's physical element count (1 for Const vecs).
func (v Vec) Len() int {
	switch v.Kind {
	case relation.KindInt:
		return len(v.I)
	case relation.KindFloat:
		return len(v.F)
	default:
		return len(v.S)
	}
}

// ValueAt boxes element i (index 0 of a Const vec) as a relation.Value.
func (v Vec) ValueAt(i int) relation.Value {
	if v.Const {
		i = 0
	}
	switch v.Kind {
	case relation.KindInt:
		return relation.Int(v.I[i])
	case relation.KindFloat:
		return relation.Float(v.F[i])
	default:
		return relation.String_(v.S[i])
	}
}

// TruthyAt reports element i's truthiness under relation.Value rules:
// non-zero numbers are true, strings never are.
func (v *Vec) TruthyAt(i int) bool {
	if v.Const {
		i = 0
	}
	switch v.Kind {
	case relation.KindInt:
		return v.I[i] != 0
	case relation.KindFloat:
		return v.F[i] != 0
	default:
		return false
	}
}

// FloatAt returns element i as float64 (ints widen); it errors on strings
// with the same message the scalar Value.AsFloat produces.
func (v Vec) FloatAt(i int) (float64, error) {
	if v.Const {
		i = 0
	}
	switch v.Kind {
	case relation.KindInt:
		return float64(v.I[i]), nil
	case relation.KindFloat:
		return v.F[i], nil
	default:
		return 0, fmt.Errorf("relation: cannot read %q as float", v.S[i])
	}
}

// FloatsInto stores FloatAt(k) in dst[k] for every k < len(dst) — the
// bulk form, without a per-element call.
func (v Vec) FloatsInto(dst []float64) error {
	switch {
	case len(dst) == 0:
	case v.Const:
		f, err := v.FloatAt(0)
		if err != nil {
			return err
		}
		for k := range dst {
			dst[k] = f
		}
	case v.Kind == relation.KindFloat:
		copy(dst, v.F[:len(dst)])
	case v.Kind == relation.KindInt:
		for k, i := range v.I[:len(dst)] {
			dst[k] = float64(i)
		}
	default:
		_, err := v.FloatAt(0)
		return err
	}
	return nil
}

// Slice returns the dense sub-vector [lo, hi) sharing storage — the
// zero-copy input for EvalAll over one partition span. Dictionary sidecars
// slice along.
func (v Vec) Slice(lo, hi int) Vec {
	out := Vec{Kind: v.Kind}
	switch v.Kind {
	case relation.KindInt:
		out.I = v.I[lo:hi]
	case relation.KindFloat:
		out.F = v.F[lo:hi]
	default:
		out.S = v.S[lo:hi]
		if v.Codes != nil {
			out.Codes, out.Dict = v.Codes[lo:hi], v.Dict
		}
	}
	return out
}

// emptyVec returns a zero-length dense vector of the given kind.
func emptyVec(k relation.Kind) Vec {
	switch k {
	case relation.KindInt:
		return Vec{Kind: relation.KindInt, I: []int64{}}
	case relation.KindFloat:
		return Vec{Kind: relation.KindFloat, F: []float64{}}
	default:
		return Vec{Kind: relation.KindString, S: []string{}}
	}
}

// densify expands a Const vec to n physical elements; dense vecs pass
// through unchanged.
func densify(v Vec, n int) Vec {
	if !v.Const {
		return v
	}
	switch v.Kind {
	case relation.KindInt:
		out := make([]int64, n)
		c := v.I[0]
		for k := range out {
			out[k] = c
		}
		return Vec{Kind: relation.KindInt, I: out}
	case relation.KindFloat:
		out := make([]float64, n)
		c := v.F[0]
		for k := range out {
			out[k] = c
		}
		return Vec{Kind: relation.KindFloat, F: out}
	default:
		out := make([]string, n)
		c := v.S[0]
		for k := range out {
			out[k] = c
		}
		return Vec{Kind: relation.KindString, S: out}
	}
}

// floatView returns a float64 view of a numeric vec plus an index stride:
// (slice, 1) for dense vecs, (one element, 0) for Const vecs — kernels
// index s[k*stride] so broadcast costs no materialization. Ints widen with
// the same conversion AsFloat applies.
func floatView(v Vec, n int) ([]float64, int) {
	if v.Const {
		if v.Kind == relation.KindFloat {
			return v.F[:1], 0
		}
		return []float64{float64(v.I[0])}, 0
	}
	if v.Kind == relation.KindFloat {
		return v.F[:n], 1
	}
	out := make([]float64, n)
	for k, x := range v.I[:n] {
		out[k] = float64(x)
	}
	return out, 1
}

// intView is floatView for int64 payloads.
func intView(v Vec, n int) ([]int64, int) {
	if v.Const {
		return v.I[:1], 0
	}
	return v.I[:n], 1
}

// strView is floatView for string payloads.
func strView(v Vec, n int) ([]string, int) {
	if v.Const {
		return v.S[:1], 0
	}
	return v.S[:n], 1
}

// VecCompiled is an expression compiled for vectorized evaluation against a
// fixed column schema. It is stateless and safe for concurrent use.
type VecCompiled struct {
	root vecNode
	kind relation.Kind
}

// Kind returns the statically inferred result kind. It matches the kind
// the scalar path produces for every row: column kinds are fixed per
// schema, so the scalar apply's runtime kind dispatch is static.
func (c *VecCompiled) Kind() relation.Kind { return c.kind }

// Eval evaluates the expression over the rows selected by sel (indices
// into the columns), returning a dense vector of len(sel) results. cols
// must be positionally aligned with the compile-time schema; entries may
// be Const vecs (broadcast), which join-style evaluators use to pin one
// side's values. Errors surface only when at least one row is evaluated,
// matching the scalar path (zero rows evaluate to an empty result).
func (c *VecCompiled) Eval(cols []Vec, sel []int32) (Vec, error) {
	return c.evalN(cols, nil, sel, len(sel))
}

// EvalAll evaluates over all n rows of dense columns without a selection
// vector: column references pass through zero-copy instead of gathering.
// Each dense entry of cols must hold at least n rows.
func (c *VecCompiled) EvalAll(cols []Vec, n int) (Vec, error) {
	return c.evalN(cols, nil, nil, n)
}

// EvalBind is Eval with positional parameter bindings: binds[i] is the
// broadcast-constant value of placeholder ?i+1, built once per execution
// (ConstVec). The compiled kernel tree is immutable — the same VecCompiled
// serves any number of concurrent executions with different bindings.
func (c *VecCompiled) EvalBind(cols, binds []Vec, sel []int32) (Vec, error) {
	return c.evalN(cols, binds, sel, len(sel))
}

// EvalAllBind is EvalAll with positional parameter bindings (see EvalBind).
func (c *VecCompiled) EvalAllBind(cols, binds []Vec, n int) (Vec, error) {
	return c.evalN(cols, binds, nil, n)
}

func (c *VecCompiled) evalN(cols, binds []Vec, sel []int32, n int) (Vec, error) {
	out, err := c.root.eval(cols, binds, sel, n)
	if err != nil {
		return Vec{}, err
	}
	if out.Const {
		out = densify(out, n)
	}
	return out, nil
}

// CompileVec resolves column references against schema and builds the
// kernel tree. Unknown columns are compile-time errors, as in Compile.
// Type errors (string arithmetic, string/number comparison) are deferred
// to evaluation over at least one row, again matching the scalar path.
// Placeholders are compile-time errors — use CompileVecBind.
func CompileVec(e Expr, schema *relation.Schema) (*VecCompiled, error) {
	return CompileVecBind(e, schema, nil)
}

// CompileVecBind is CompileVec for expressions containing placeholders:
// paramKinds[i] declares the kind the i-th binding will have, fixing the
// static kind inference exactly as a literal of that kind would. The
// values themselves are supplied per evaluation through EvalBind /
// EvalAllBind, so one compilation serves every execution that binds the
// same kinds.
func CompileVecBind(e Expr, schema *relation.Schema, paramKinds []relation.Kind) (*VecCompiled, error) {
	n, err := compileVec(e, schema, paramKinds)
	if err != nil {
		return nil, err
	}
	return &VecCompiled{root: n, kind: n.kind()}, nil
}

type vecNode interface {
	// eval returns a dense vector of n elements, or a Const vec. A nil sel
	// selects rows [0, n) of dense columns directly. binds holds the
	// execution's broadcast parameter values (nil without placeholders).
	eval(cols, binds []Vec, sel []int32, n int) (Vec, error)
	kind() relation.Kind
}

func compileVec(e Expr, schema *relation.Schema, paramKinds []relation.Kind) (vecNode, error) {
	switch n := e.(type) {
	case ColRef:
		idx, ok := schema.Index(n.Name)
		if !ok {
			return nil, fmt.Errorf("expr: unknown column %q", n.Name)
		}
		return &colVecNode{idx: idx, k: schema.Col(idx).Kind}, nil
	case Const:
		return &constVecNode{v: ConstVec(n.Value)}, nil
	case ParamRef:
		if n.Index < 0 || n.Index >= len(paramKinds) {
			return nil, fmt.Errorf("expr: parameter ?%d is unbound (%d bound)", n.Index+1, len(paramKinds))
		}
		return &paramVecNode{idx: n.Index, k: paramKinds[n.Index]}, nil
	case Not:
		x, err := compileVec(n.X, schema, paramKinds)
		if err != nil {
			return nil, err
		}
		return &notVecNode{x: x}, nil
	case Binary:
		l, err := compileVec(n.L, schema, paramKinds)
		if err != nil {
			return nil, err
		}
		r, err := compileVec(n.R, schema, paramKinds)
		if err != nil {
			return nil, err
		}
		return newBinVecNode(n.Op, l, r), nil
	default:
		return nil, fmt.Errorf("expr: unsupported node %T", e)
	}
}

// paramVecNode reads placeholder idx's broadcast constant from the
// execution's bind vector — the value is injected at evaluation time, the
// kernel is compiled once. Its kind was fixed at compile time from the
// declared binding kinds; eval double-checks the actual binding agrees, so
// a kernel can never run under a mismatched signature.
type paramVecNode struct {
	idx int
	k   relation.Kind
}

func (p *paramVecNode) kind() relation.Kind { return p.k }

func (p *paramVecNode) eval(_, binds []Vec, _ []int32, _ int) (Vec, error) {
	if p.idx >= len(binds) {
		return Vec{}, fmt.Errorf("expr: parameter ?%d is unbound (%d bound)", p.idx+1, len(binds))
	}
	v := binds[p.idx]
	if v.Kind != p.k {
		return Vec{}, fmt.Errorf("expr: parameter ?%d bound as %s, compiled as %s", p.idx+1, v.Kind, p.k)
	}
	return v, nil
}

type colVecNode struct {
	idx int
	k   relation.Kind
}

func (c *colVecNode) kind() relation.Kind { return c.k }

func (c *colVecNode) eval(cols, _ []Vec, sel []int32, n int) (Vec, error) {
	col := cols[c.idx]
	if col.Const {
		return col, nil
	}
	if sel == nil {
		// Dense pass-through: the column (or its first n rows) IS the
		// result; kernels never write through operand slices.
		return Vec{Kind: col.Kind, I: headI(col.I, n), F: headF(col.F, n), S: headS(col.S, n)}, nil
	}
	switch col.Kind {
	case relation.KindInt:
		out := make([]int64, len(sel))
		for k, i := range sel {
			out[k] = col.I[i]
		}
		return Vec{Kind: relation.KindInt, I: out}, nil
	case relation.KindFloat:
		out := make([]float64, len(sel))
		for k, i := range sel {
			out[k] = col.F[i]
		}
		return Vec{Kind: relation.KindFloat, F: out}, nil
	default:
		out := make([]string, len(sel))
		for k, i := range sel {
			out[k] = col.S[i]
		}
		return Vec{Kind: relation.KindString, S: out}, nil
	}
}

// headI/headF/headS return the first n elements of a slice, tolerating nil.
func headI(s []int64, n int) []int64 {
	if s == nil {
		return nil
	}
	return s[:n]
}

func headF(s []float64, n int) []float64 {
	if s == nil {
		return nil
	}
	return s[:n]
}

func headS(s []string, n int) []string {
	if s == nil {
		return nil
	}
	return s[:n]
}

type constVecNode struct{ v Vec }

func (c *constVecNode) kind() relation.Kind                          { return c.v.Kind }
func (c *constVecNode) eval([]Vec, []Vec, []int32, int) (Vec, error) { return c.v, nil }

type notVecNode struct{ x vecNode }

func (n *notVecNode) kind() relation.Kind { return relation.KindInt }

func (n *notVecNode) eval(cols, binds []Vec, sel []int32, cnt int) (Vec, error) {
	x, err := n.x.eval(cols, binds, sel, cnt)
	if err != nil {
		return Vec{}, err
	}
	if x.Const {
		return ConstVec(relation.Bool(!x.TruthyAt(0))), nil
	}
	out := make([]int64, cnt)
	for k := 0; k < cnt; k++ {
		if !x.TruthyAt(k) {
			out[k] = 1
		}
	}
	return Vec{Kind: relation.KindInt, I: out}, nil
}

type binVecNode struct {
	op   Op
	l, r vecNode
	k    relation.Kind
	// lOwn/rOwn record, statically, that the child always returns a fresh
	// dense vector this node may overwrite in place (see ownsResult) —
	// nested arithmetic then reuses the inner temporary instead of
	// allocating a new result per operator per span.
	lOwn, rOwn bool
}

// ownsResult reports whether a kernel node's eval always returns a freshly
// allocated dense vector (never a column slice, a Const broadcast, or a
// caller-provided binding). Column references are conservatively false:
// with a nil sel they pass the column through zero-copy.
func ownsResult(n vecNode) bool {
	switch n.(type) {
	case *binVecNode, *notVecNode:
		return true
	}
	return false
}

// newBinVecNode infers the static result kind with the same rules the
// scalar apply uses at runtime (kinds are uniform per column, so the two
// agree on every row).
func newBinVecNode(op Op, l, r vecNode) *binVecNode {
	k := relation.KindFloat
	switch {
	case op == OpAnd || op == OpOr || op.IsComparison():
		k = relation.KindInt
	case l.kind() == relation.KindInt && r.kind() == relation.KindInt && op != OpDiv:
		k = relation.KindInt
	}
	return &binVecNode{
		op: op, l: l, r: r, k: k,
		lOwn: ownsResult(l) && l.kind() == relation.KindFloat,
		rOwn: ownsResult(r) && r.kind() == relation.KindFloat,
	}
}

func (b *binVecNode) kind() relation.Kind { return b.k }

func (b *binVecNode) eval(cols, binds []Vec, sel []int32, n int) (Vec, error) {
	lv, err := b.l.eval(cols, binds, sel, n)
	if err != nil {
		return Vec{}, err
	}
	rv, err := b.r.eval(cols, binds, sel, n)
	if err != nil {
		return Vec{}, err
	}
	if n == 0 {
		return emptyVec(b.k), nil
	}
	if lv.Const && rv.Const {
		// Both sides constant: one scalar application covers every row,
		// reusing the scalar apply for exact error/value parity.
		v, err := apply(b.op, lv.ValueAt(0), rv.ValueAt(0))
		if err != nil {
			return Vec{}, err
		}
		return ConstVec(v), nil
	}
	switch {
	case b.op == OpAnd:
		out := make([]int64, n)
		for k := 0; k < n; k++ {
			if lv.TruthyAt(k) && rv.TruthyAt(k) {
				out[k] = 1
			}
		}
		return Vec{Kind: relation.KindInt, I: out}, nil
	case b.op == OpOr:
		out := make([]int64, n)
		for k := 0; k < n; k++ {
			if lv.TruthyAt(k) || rv.TruthyAt(k) {
				out[k] = 1
			}
		}
		return Vec{Kind: relation.KindInt, I: out}, nil
	case b.op.IsComparison():
		return compareVec(b.op, lv, rv, n)
	default:
		// Reuse a child temporary as the output buffer when one exists:
		// the kernels read element k of each operand before writing
		// element k of the output, so in-place evaluation is safe.
		var dst []float64
		if b.rOwn && !rv.Const && rv.Kind == relation.KindFloat && len(rv.F) >= n {
			dst = rv.F
		} else if b.lOwn && !lv.Const && lv.Kind == relation.KindFloat && len(lv.F) >= n {
			dst = lv.F
		}
		return arithVec(b.op, lv, rv, n, dst)
	}
}

// compareVec implements the six comparisons with relation.Value.Compare
// semantics: int/int compares exactly, any float compares as float64 with
// the Value NaN ordering (NaN == NaN, NaN below every number), string/string
// lexicographically, string/number is an error. Const operands broadcast
// through a zero stride.
func compareVec(op Op, l, r Vec, n int) (Vec, error) {
	ls, rs := l.Kind == relation.KindString, r.Kind == relation.KindString
	if ls != rs {
		return Vec{}, fmt.Errorf("expr: relation: cannot compare %s with %s", l.Kind, r.Kind)
	}
	out := make([]int64, n)
	if ls {
		a, as := strView(l, n)
		b, bs := strView(r, n)
		for k := 0; k < n; k++ {
			c := 0
			switch {
			case a[k*as] < b[k*bs]:
				c = -1
			case a[k*as] > b[k*bs]:
				c = 1
			}
			if cmpHolds(op, c) {
				out[k] = 1
			}
		}
		return Vec{Kind: relation.KindInt, I: out}, nil
	}
	if l.Kind == relation.KindInt && r.Kind == relation.KindInt {
		a, as := intView(l, n)
		b, bs := intView(r, n)
		for k := 0; k < n; k++ {
			c := 0
			switch {
			case a[k*as] < b[k*bs]:
				c = -1
			case a[k*as] > b[k*bs]:
				c = 1
			}
			if cmpHolds(op, c) {
				out[k] = 1
			}
		}
		return Vec{Kind: relation.KindInt, I: out}, nil
	}
	a, as := floatView(l, n)
	b, bs := floatView(r, n)
	for k := 0; k < n; k++ {
		if cmpHolds(op, compareFloat(a[k*as], b[k*bs])) {
			out[k] = 1
		}
	}
	return Vec{Kind: relation.KindInt, I: out}, nil
}

// compareFloat mirrors relation.Value.Compare's float ordering, including
// its NaN convention.
func compareFloat(a, b float64) int {
	switch {
	case a < b || (math.IsNaN(a) && !math.IsNaN(b)):
		return -1
	case a > b || (!math.IsNaN(a) && math.IsNaN(b)):
		return 1
	default:
		return 0
	}
}

func cmpHolds(op Op, c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	default: // OpGe
		return c >= 0
	}
}

// arithVec implements +,−,×,÷ with the scalar apply's kind rules:
// int□int stays exact int64 except division, everything else computes in
// float64; division by zero is an error. Const operands broadcast through
// a zero stride. A non-nil dst (≥ n elements, float path only) is used as
// the output buffer; it may alias an operand (kernels read element k
// before writing it).
func arithVec(op Op, l, r Vec, n int, dst []float64) (Vec, error) {
	if l.Kind == relation.KindString || r.Kind == relation.KindString {
		return Vec{}, fmt.Errorf("expr: %s needs numeric operands, got %s and %s", op, l.Kind, r.Kind)
	}
	if l.Kind == relation.KindInt && r.Kind == relation.KindInt && op != OpDiv {
		a, as := intView(l, n)
		b, bs := intView(r, n)
		out := make([]int64, n)
		switch op {
		case OpAdd:
			for k := 0; k < n; k++ {
				out[k] = a[k*as] + b[k*bs]
			}
		case OpSub:
			for k := 0; k < n; k++ {
				out[k] = a[k*as] - b[k*bs]
			}
		default: // OpMul
			for k := 0; k < n; k++ {
				out[k] = a[k*as] * b[k*bs]
			}
		}
		return Vec{Kind: relation.KindInt, I: out}, nil
	}
	a, as := floatView(l, n)
	b, bs := floatView(r, n)
	out := dst
	if out == nil {
		out = make([]float64, n)
	} else {
		out = out[:n]
	}
	// +,−,× dispatch to stride-specialized loops: the generic a[k*as]
	// indexing defeats bounds-check elimination, so the hot dense/dense and
	// broadcast shapes get loops the compiler can unroll over plain slices.
	switch op {
	case OpAdd:
		switch {
		case as == 1 && bs == 1:
			bb := b[:n]
			for k, av := range a[:n] {
				out[k] = av + bb[k]
			}
		case as == 1: // dense + const
			c := b[0]
			for k, av := range a[:n] {
				out[k] = av + c
			}
		case bs == 1: // const + dense
			c := a[0]
			for k, bv := range b[:n] {
				out[k] = c + bv
			}
		default:
			for k := 0; k < n; k++ {
				out[k] = a[0] + b[0]
			}
		}
	case OpSub:
		switch {
		case as == 1 && bs == 1:
			bb := b[:n]
			for k, av := range a[:n] {
				out[k] = av - bb[k]
			}
		case as == 1:
			c := b[0]
			for k, av := range a[:n] {
				out[k] = av - c
			}
		case bs == 1:
			c := a[0]
			for k, bv := range b[:n] {
				out[k] = c - bv
			}
		default:
			for k := 0; k < n; k++ {
				out[k] = a[0] - b[0]
			}
		}
	case OpMul:
		switch {
		case as == 1 && bs == 1:
			bb := b[:n]
			for k, av := range a[:n] {
				out[k] = av * bb[k]
			}
		case as == 1:
			c := b[0]
			for k, av := range a[:n] {
				out[k] = av * c
			}
		case bs == 1:
			c := a[0]
			for k, bv := range b[:n] {
				out[k] = c * bv
			}
		default:
			for k := 0; k < n; k++ {
				out[k] = a[0] * b[0]
			}
		}
	case OpDiv:
		for k := 0; k < n; k++ {
			if b[k*bs] == 0 {
				return Vec{}, fmt.Errorf("expr: division by zero")
			}
			out[k] = a[k*as] / b[k*bs]
		}
	default:
		return Vec{}, fmt.Errorf("expr: unhandled operator %s", op)
	}
	return Vec{Kind: relation.KindFloat, F: out}, nil
}
