package expr

import (
	"strings"
	"testing"

	"github.com/sampling-algebra/gus/internal/relation"
	"github.com/sampling-algebra/gus/internal/stats"
)

// vecFixture builds a mixed-kind schema, row-major tuples, and the same
// data as dense column vectors.
func vecFixture(t *testing.T, rows int) (*relation.Schema, []relation.Tuple, []Vec) {
	t.Helper()
	schema := relation.MustSchema(
		relation.Column{Name: "a", Kind: relation.KindInt},
		relation.Column{Name: "b", Kind: relation.KindInt},
		relation.Column{Name: "x", Kind: relation.KindFloat},
		relation.Column{Name: "y", Kind: relation.KindFloat},
		relation.Column{Name: "s", Kind: relation.KindString},
	)
	rng := stats.NewRNG(11)
	words := []string{"ash", "birch", "cedar", "oak"}
	tuples := make([]relation.Tuple, rows)
	cols := []Vec{
		{Kind: relation.KindInt, I: make([]int64, rows)},
		{Kind: relation.KindInt, I: make([]int64, rows)},
		{Kind: relation.KindFloat, F: make([]float64, rows)},
		{Kind: relation.KindFloat, F: make([]float64, rows)},
		{Kind: relation.KindString, S: make([]string, rows)},
	}
	for i := 0; i < rows; i++ {
		a := int64(rng.Intn(20) - 10)
		b := int64(rng.Intn(5) + 1)
		x := rng.Float64()*200 - 100
		y := rng.Float64() * 10
		s := words[rng.Intn(len(words))]
		tuples[i] = relation.Tuple{
			relation.Int(a), relation.Int(b), relation.Float(x), relation.Float(y), relation.String_(s),
		}
		cols[0].I[i], cols[1].I[i], cols[2].F[i], cols[3].F[i], cols[4].S[i] = a, b, x, y, s
	}
	return schema, tuples, cols
}

// TestVecMatchesScalar: for a broad expression suite, the vectorized path
// must produce bit-identical values and the same result kind as the
// scalar compiled path, over a strided selection.
func TestVecMatchesScalar(t *testing.T) {
	schema, tuples, cols := vecFixture(t, 500)
	exprs := []Expr{
		Col("a"),
		Col("x"),
		Col("s"),
		Int(7),
		Float(2.5),
		Str("oak"),
		Add(Col("a"), Col("b")),
		Sub(Col("a"), Int(3)),
		Mul(Col("a"), Col("b")),
		Div(Col("x"), Col("b")),
		Div(Col("a"), Col("b")), // int/int division yields float
		Mul(Col("x"), Sub(Float(1), Col("y"))),
		Add(Mul(Col("a"), Int(2)), Div(Col("x"), Float(4))),
		Eq(Col("a"), Col("b")),
		Bin(OpNe, Col("a"), Int(0)),
		Lt(Col("x"), Col("y")),
		Bin(OpLe, Col("a"), Float(0.5)), // mixed int/float comparison
		Gt(Col("x"), Float(0)),
		Bin(OpGe, Col("b"), Col("a")),
		Eq(Col("s"), Str("cedar")),
		Lt(Col("s"), Str("oak")),
		And(Gt(Col("x"), Float(0)), Lt(Col("a"), Int(5))),
		Or(Eq(Col("s"), Str("ash")), Gt(Col("y"), Float(5))),
		Not{X: Gt(Col("a"), Int(0))},
		And(Int(1), Gt(Col("x"), Float(-1e18))), // constant operand
		Mul(Int(3), Int(4)),                     // fully constant
	}
	// Strided selection exercises gathers at non-trivial offsets.
	var sel []int32
	for i := 0; i < len(tuples); i += 3 {
		sel = append(sel, int32(i))
	}
	for _, e := range exprs {
		scalar, err := Compile(e, schema)
		if err != nil {
			t.Fatalf("%s: scalar compile: %v", e, err)
		}
		vc, err := CompileVec(e, schema)
		if err != nil {
			t.Fatalf("%s: vec compile: %v", e, err)
		}
		out, err := vc.Eval(cols, sel)
		if err != nil {
			t.Fatalf("%s: vec eval: %v", e, err)
		}
		if out.Len() != len(sel) {
			t.Fatalf("%s: %d results for %d selected rows", e, out.Len(), len(sel))
		}
		for k, i := range sel {
			want, err := scalar(tuples[i])
			if err != nil {
				t.Fatalf("%s row %d: scalar eval: %v", e, i, err)
			}
			got := out.ValueAt(k)
			if got != want {
				t.Fatalf("%s row %d: vec %v (%s) vs scalar %v (%s)",
					e, i, got, got.Kind(), want, want.Kind())
			}
			if want.Kind() != vc.Kind() {
				t.Fatalf("%s: static kind %s but scalar produced %s", e, vc.Kind(), want.Kind())
			}
		}
	}
}

// TestVecErrors: the vectorized path must fail exactly where the scalar
// path fails — and stay silent on empty selections, where the scalar path
// never evaluates a row.
func TestVecErrors(t *testing.T) {
	schema, tuples, cols := vecFixture(t, 50)

	if _, err := CompileVec(Col("missing"), schema); err == nil ||
		!strings.Contains(err.Error(), "unknown column") {
		t.Fatalf("unknown column: %v", err)
	}

	bad := []Expr{
		Add(Col("s"), Int(1)),                  // string arithmetic
		Eq(Col("s"), Col("a")),                 // string/number comparison
		Div(Col("x"), Sub(Col("b"), Col("b"))), // division by zero
	}
	sel := []int32{0, 1, 2}
	for _, e := range bad {
		scalar, err := Compile(e, schema)
		if err != nil {
			t.Fatalf("%s: scalar compile: %v", e, err)
		}
		if _, serr := scalar(tuples[0]); serr == nil {
			t.Fatalf("%s: scalar path accepted", e)
		}
		vc, err := CompileVec(e, schema)
		if err != nil {
			t.Fatalf("%s: vec compile: %v", e, err)
		}
		if _, verr := vc.Eval(cols, sel); verr == nil {
			t.Fatalf("%s: vec path accepted", e)
		}
		// Zero selected rows: no evaluation, no error.
		if out, verr := vc.Eval(cols, nil); verr != nil || out.Len() != 0 {
			t.Fatalf("%s: empty selection: len=%d err=%v", e, out.Len(), verr)
		}
	}
}

// TestVecConstBroadcast: Const column entries (the θ-join's pinned left
// row) must broadcast against dense columns.
func TestVecConstBroadcast(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "l", Kind: relation.KindFloat},
		relation.Column{Name: "r", Kind: relation.KindFloat},
	)
	cols := []Vec{
		ConstVec(relation.Float(5)),
		{Kind: relation.KindFloat, F: []float64{1, 5, 9}},
	}
	vc, err := CompileVec(Lt(Col("l"), Col("r")), schema)
	if err != nil {
		t.Fatal(err)
	}
	out, err := vc.Eval(cols, []int32{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 0, 1}
	for i, w := range want {
		if out.I[i] != w {
			t.Fatalf("broadcast compare row %d: got %d want %d", i, out.I[i], w)
		}
	}
}

// TestFloatsIntoMatchesFloatAt: the bulk conversion stores exactly what
// FloatAt returns per element, and fails where FloatAt does.
func TestFloatsIntoMatchesFloatAt(t *testing.T) {
	vecs := []Vec{
		{Kind: relation.KindFloat, F: []float64{1.5, -2, 0, 7.25}},
		{Kind: relation.KindInt, I: []int64{3, -4, 0, 1 << 53}},
		ConstVec(relation.Float(2.5)),
		ConstVec(relation.Int(-9)),
	}
	for _, v := range vecs {
		dst := make([]float64, 4)
		if err := v.FloatsInto(dst); err != nil {
			t.Fatal(err)
		}
		for k, got := range dst {
			want, err := v.FloatAt(k)
			if err != nil || got != want {
				t.Fatalf("%+v: element %d = %v, FloatAt %v (%v)", v, k, got, want, err)
			}
		}
	}
	s := Vec{Kind: relation.KindString, S: []string{"x"}}
	if err := s.FloatsInto(make([]float64, 1)); err == nil {
		t.Fatal("string vector converted to floats")
	}
	if err := s.FloatsInto(nil); err != nil {
		t.Fatalf("empty conversion failed: %v", err)
	}
}
