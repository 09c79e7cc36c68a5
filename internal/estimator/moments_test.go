package estimator

import (
	"fmt"
	"testing"

	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/stats"
)

// genSample draws rows over n lineage slots: with distinct lineage every
// slot ID is unique per row, otherwise IDs repeat within small ranges.
func genSample(rng *stats.RNG, rows, n int, distinct bool) (cols [][]lineage.TupleID, fs, gs []float64) {
	cols = make([][]lineage.TupleID, n)
	for i := 0; i < rows; i++ {
		for s := 0; s < n; s++ {
			id := lineage.TupleID(i + 1)
			if !distinct {
				id = lineage.TupleID(rng.Intn(rows/(3+2*s)+1) + 1)
			}
			cols[s] = append(cols[s], id)
		}
		fs = append(fs, rng.Float64()*200-50)
		gs = append(gs, rng.Float64()*3)
	}
	return cols, fs, gs
}

// genChunks cuts rows into a random chunking: empty chunks, chunks below
// and straddling the span size, or (sometimes) one whole chunk.
func genChunks(rng *stats.RNG, rows, partSize int) []int {
	if rng.Intn(5) == 0 {
		return []int{rows}
	}
	var out []int
	for left := rows; left > 0; {
		var c int
		switch rng.Intn(4) {
		case 0:
			c = 0
		case 1:
			c = 1 + rng.Intn(partSize/3+1)
		case 2:
			c = partSize - 5 + rng.Intn(11) // straddles a span boundary
		default:
			c = 1 + rng.Intn(3*partSize)
		}
		if c > left {
			c = left
		}
		out = append(out, c)
		left -= c
	}
	return out
}

func shardedVector(n int, cols [][]lineage.TupleID, fs, gs []float64, p pair, opts Options) []float64 {
	st := momentsSharded(n, colLins(cols), fs, gs, opts)
	defer st.release()
	return momentVector(p, st.totF, st.totG, st.exactSums())
}

func requireSame(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for m := range want {
		if got[m] != want[m] {
			t.Fatalf("%s: Y[%d] = %.17g, want %.17g", label, m, got[m], want[m])
		}
	}
}

// TestAccumChunkingInvariance: however a sample is chunked, the streaming
// state finalizes bit-identically to the one-shot sharded moments at every
// worker count, within float tolerance of the string-keyed oracle; on the
// distinct-lineage path every live prefix reading is already exact.
func TestAccumChunkingInvariance(t *testing.T) {
	rng := stats.NewRNG(2024)
	const partSize = 64
	for trial := 0; trial < 36; trial++ {
		n := 1 + trial%3
		distinct := trial%6 < 3
		bilinear := trial%2 == 1
		rows := 1 + rng.Intn(9*partSize)
		cols, fs, gs := genSample(rng, rows, n, distinct)
		if !bilinear {
			gs = nil
		}
		opts := Options{PartitionSize: partSize, DistinctLineage: distinct}
		chunks := genChunks(rng, rows, partSize)

		a := NewAccumWith(n, bilinear, opts)
		lo := 0
		for _, c := range chunks {
			var g []float64
			if bilinear {
				g = gs[lo : lo+c]
			}
			if err := a.Add(fs[lo:lo+c], g, pick(cols, lo, lo+c)); err != nil {
				t.Fatal(err)
			}
			lo += c
			if distinct && n == 1 {
				fresh := NewAccumWith(n, bilinear, opts)
				var pg []float64
				if bilinear {
					pg = gs[:lo]
				}
				if err := fresh.Add(fs[:lo], pg, pick(cols, 0, lo)); err != nil {
					t.Fatal(err)
				}
				live, liveTotal := a.Moments(), a.Total()
				requireSame(t, "live prefix", live, fresh.Finalize())
				if liveTotal != fresh.Total() {
					t.Fatalf("live prefix total %v, finalized %v", liveTotal, fresh.Total())
				}
			}
		}
		label := func(what string) string {
			return fmt.Sprintf("%s (trial %d: n=%d distinct=%v bilinear=%v)", what, trial, n, distinct, bilinear)
		}
		got := a.Finalize()
		var yNN, yDD, yND []float64
		if bilinear {
			yNN, yDD, yND = a.RatioMoments()
		}
		primary := pairFF
		if bilinear {
			primary = pairFG
		}
		for _, w := range []int{1, 2, 4} {
			o := opts
			o.Workers = w
			requireSame(t, label("finalize vs sharded"), got, shardedVector(n, cols, fs, gs, primary, o))
			if bilinear {
				requireSame(t, label("f·f vs sharded"), yNN, shardedVector(n, cols, fs, nil, pairFF, o))
				requireSame(t, label("g·g vs sharded"), yDD, shardedVector(n, cols, gs, nil, pairFF, o))
				requireSame(t, label("f·g vs sharded"), yND, got)
			}
			// The distinct shortcut must be invisible: grouping the same
			// rows yields the same floats.
			o.DistinctLineage = false
			requireSame(t, label("finalize vs grouped"), got, shardedVector(n, cols, fs, gs, primary, o))
		}
		st := momentsSharded(n, colLins(cols), fs, nil, Options{Workers: 2, PartitionSize: partSize, DistinctLineage: distinct})
		top := st.exactSums()[len(got)-1]
		wantG := st.topGroups()
		st.release()
		if g, s2, s4 := a.TopDiagnostics(); g != wantG || s2 != top.ff || s4 != top.f4 {
			t.Fatalf("%s: (%d, %v, %v), want (%d, %v, %v)", label("diagnostics"), g, s2, s4, wantG, top.ff, top.f4)
		}
		oracle := momentsSerial(n, colLins(cols), fs, gs)
		for m := range oracle {
			if relDiff(got[m], oracle[m]) > 1e-12 {
				t.Fatalf("%s: Y[%d] = %v, oracle %v", label("finalize vs serial"), m, got[m], oracle[m])
			}
		}
	}
}
