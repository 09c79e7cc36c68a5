package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/sampling-algebra/gus"
	"github.com/sampling-algebra/gus/internal/tpch"
)

// Workload names, as BENCHMARK.json lists them.
const (
	adhoc       = "adhoc"
	progressive = "progressive"
	servedRW    = "served-rw"
)

// opKind is what one operation of the closed loop does.
type opKind int

const (
	readOneShot opKind = iota // db.Query
	readStream                // db.QueryProgressive to a 1% CI
	insertRow                 // Table.Insert of one lineitem row
)

// op is one operation of a workload's deterministic sequence. Both the
// statement and the sampling seed are pure functions of (workload seed,
// index), so the set of operations a run can issue is fixed by the seed
// whichever client issues them.
type op struct {
	idx  int
	kind opKind
	stmt int // index into workload.stmts (reads only)
	seed uint64
}

// workload holds what the closed loop and the replay need: the distinct read
// statements and the op sequence over them.
type workload struct {
	name   string
	seed   uint64
	orders int // generated orders rows; lineitem has about 4× as many
	stmts  []string
	op     func(i int) op
}

// Scale of the generated TPC-H data: 100k orders, ≈400k lineitem rows.
// Tests use a smaller scale.
const tpchOrders = 100_000

// targetRelCI is the progressive workload's accuracy budget: a stream
// stops once every CI half-width is within 1% of its estimate.
const targetRelCI = 0.01

// Every lineitem read filters on l_quantity < X with X ≤ 51, and every
// inserted row carries insertQuantity, so inserts never change a read's
// exact answer or sample.
const insertQuantity = 1000.0

// insertValues is the lineitem row the writers append (schema order:
// l_orderkey, l_linenumber, l_partkey, l_quantity, l_extendedprice,
// l_discount, l_tax). All inserted rows are identical, so the table's
// final state does not depend on how the two clients interleave.
var insertValues = []any{0, 1, 0, insertQuantity, 1.0, 0.0, 0.0}

// pointKeys is how many distinct orders keys the served-rw point probes
// draw from: well above the 128-entry plan cache.
const pointKeys = 2048

// mix is the splitmix64 finalizer, the benchmark's only source of
// pseudo-randomness.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func opSeed(seed uint64, i int) uint64 { return mix(seed ^ mix(uint64(i)+1)) }

// dealt returns the k-th statement of a sequence that deals every one of
// n statements once per round of n, each round in its own seeded order.
// Every stretch of ops thus holds the statements in equal shares: with a
// random draw per op, the mix of cheap and costly statements — and with
// it the latency percentiles — would wander from run to run.
func dealt(seed uint64, k, n int) int {
	round := opSeed(seed, -1-k/n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(mix(round+uint64(i)) % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	return order[k%n]
}

func newWorkload(name string, seed uint64, orders int) (*workload, error) {
	w := &workload{name: name, seed: seed, orders: orders}
	switch name {
	case adhoc:
		// Four shapes in equal shares, 16 literal variants each: 64
		// statements, inside the 128-entry plan cache.
		for v := 0; v < 16; v++ {
			rate, x := 5+5*(v%2), 20+2*(v/2)
			w.stmts = append(w.stmts,
				fmt.Sprintf("SELECT SUM(l_quantity) AS sum_qty, SUM(l_extendedprice) AS sum_price, SUM(l_extendedprice*(1.0-l_discount)) AS revenue FROM lineitem TABLESAMPLE (%d PERCENT) WHERE l_quantity < %d", rate, x),
				fmt.Sprintf("SELECT SUM(l_extendedprice*(1.0-l_discount)) AS revenue FROM lineitem TABLESAMPLE (%d PERCENT), orders WHERE l_orderkey = o_orderkey AND l_quantity < %d", rate, x),
				fmt.Sprintf("SELECT SUM(l_extendedprice) AS price, COUNT(*) AS n FROM lineitem TABLESAMPLE (%d PERCENT) WHERE l_quantity < %d GROUP BY l_linenumber", rate, x),
				fmt.Sprintf("SELECT AVG(l_discount) AS avg_disc FROM lineitem TABLESAMPLE (%d PERCENT) WHERE l_quantity < %d", rate, x))
		}
		w.op = func(i int) op {
			h := opSeed(seed, i)
			return op{idx: i, kind: readOneShot, stmt: dealt(seed, i, len(w.stmts)), seed: mix(h)}
		}
	case progressive:
		for v := 0; v < 16; v++ {
			w.stmts = append(w.stmts, fmt.Sprintf("SELECT SUM(l_extendedprice*(1.0-l_discount)) AS revenue FROM lineitem TABLESAMPLE (90 PERCENT) WHERE l_quantity < %d", 20+2*v))
		}
		w.op = func(i int) op {
			h := opSeed(seed, i)
			return op{idx: i, kind: readStream, stmt: dealt(seed, i, len(w.stmts)), seed: mix(h)}
		}
	case servedRW:
		// stmts layout: [0,12) synopsis-served Q1 reads, [12,16)
		// non-subsumable BERNOULLI(5) reads, [16,16+pointKeys) point probes.
		for _, p := range []string{"0.5", "1", "2"} {
			for _, x := range []int{24, 32, 40, 51} {
				w.stmts = append(w.stmts, fmt.Sprintf("SELECT SUM(l_quantity) AS sum_qty, SUM(l_extendedprice*(1.0-l_discount)) AS revenue, COUNT(*) AS n FROM lineitem TABLESAMPLE BERNOULLI(%s) WHERE l_quantity < %d", p, x))
			}
		}
		for _, x := range []int{24, 32, 40, 51} {
			w.stmts = append(w.stmts, fmt.Sprintf("SELECT SUM(l_extendedprice) AS price FROM lineitem TABLESAMPLE BERNOULLI(5) WHERE l_quantity < %d", x))
		}
		// 1021 is prime, so j·1021 mod orders visits min(pointKeys,
		// orders) distinct keys; the offset moves them with the seed.
		off := int(mix(seed) % uint64(orders))
		for j := 0; j < pointKeys; j++ {
			key := 1 + (off+j*1021)%orders
			w.stmts = append(w.stmts, fmt.Sprintf("SELECT SUM(o_totalprice) AS price, COUNT(*) AS n FROM orders WHERE o_orderkey = %d", key))
		}
		w.op = func(i int) op {
			// Each cycle of 8 ops, in a fixed order: 3 synopsis reads (S),
			// 3 point probes (P), 1 BERNOULLI(5) read (B) and 1 insert (W).
			// While one client runs B — a full scan that first rebuilds the
			// snapshot the previous insert dropped — the other runs the
			// short ops after it, so each insert waits for that scan.
			const cycle = "SPSPBSPW"
			h := opSeed(seed, i)
			o := op{idx: i, kind: readOneShot, seed: mix(h)}
			switch cycle[i%8] {
			case 'S':
				o.stmt = dealt(seed, 3*(i/8)+i%8/2, 12)
			case 'P':
				o.stmt = 16 + int(h%pointKeys)
			case 'B':
				o.stmt = 12 + dealt(seed^1, i/8, 4)
			default:
				o.kind = insertRow
			}
			return o
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", name, adhoc, progressive, servedRW)
	}
	return w, nil
}

// tpchConfig derives the generated data from the workload seed.
func tpchConfig(w *workload) tpch.Config {
	cfg := tpch.ScaleFactor(float64(w.orders)/1_500_000, w.seed)
	cfg.Orders = w.orders
	return cfg
}

// A run makes the DB ready at least minSetups times and until setups have
// taken minSetupTime (at most maxSetups times); setup_s is the median.
const (
	minSetups    = 9
	maxSetups    = 200
	minSetupTime = time.Second
)

// env is a ready database plus what the closed loop needs around it.
type env struct {
	db       *gus.DB
	lineitem *gus.Table
	dataDir  string // segment files (served-rw; written lazily for tracing otherwise)
	setup    []float64
	// probe holds insertProbe's group means, one slice per probe DB.
	probe [][]float64
	// segOpen and synBuild are the served-rw set-up's two parts, in
	// seconds per repetition.
	segOpen, synBuild []float64
}

// synopsisSpec is the served-rw lineitem synopsis.
var synopsisSpec = gus.SynopsisSpec{Name: "lineitem_b2", Table: "lineitem", Rate: 0.02}

// setup makes the DB ready repeatedly, timing only the calls that do
// so, and keeps the last one. For served-rw the segment files are written
// first, untimed, from a generated DB. Then it makes probeDBs more DBs the
// same way, untimed, and gives each to insertProbe, so the rows the probe
// adds never reach the window.
func setup(w *workload, workDir string) (*env, error) {
	e := &env{}
	cfg := tpchConfig(w)
	if w.name == servedRW {
		e.dataDir = filepath.Join(workDir, "segments")
		src := gus.Open()
		if err := src.AttachTPCHConfig(cfg); err != nil {
			return nil, err
		}
		if err := src.Save(e.dataDir); err != nil {
			return nil, err
		}
		src.Close()
	}
	var spent time.Duration
	for rep := 0; rep < maxSetups && (rep < minSetups || spent < minSetupTime); rep++ {
		if e.db != nil {
			e.db.Close()
			e.db = nil
		}
		runtime.GC()
		start := time.Now()
		db, segOpen, err := openDB(w, cfg, e.dataDir)
		if err != nil {
			return nil, err
		}
		took := time.Since(start)
		spent += took
		e.setup = append(e.setup, took.Seconds())
		if w.name == servedRW {
			e.segOpen = append(e.segOpen, segOpen.Seconds())
			e.synBuild = append(e.synBuild, (took - segOpen).Seconds())
		}
		e.db = db
	}
	t, err := e.db.Table("lineitem")
	if err != nil {
		return nil, err
	}
	e.lineitem = t
	// Each probe DB is closed but not yet collected when the next one is
	// made, so the next probe's rows land in pages the heap recycles
	// whole; after a collection before set-up they would fill the gaps
	// set-up leaves, which vary from DB to DB.
	for i := 0; i < probeDBs; i++ {
		db, _, err := openDB(w, cfg, e.dataDir)
		if err != nil {
			return nil, err
		}
		groups, err := insertProbe(db)
		db.Close()
		if err != nil {
			return nil, fmt.Errorf("insert probe: %w", err)
		}
		e.probe = append(e.probe, groups)
	}
	return e, nil
}

// openDB makes one DB ready: AttachTPCHConfig, or on served-rw OpenDir
// of the segment files plus CreateSynopsis. segOpen is the OpenDir part.
func openDB(w *workload, cfg tpch.Config, dataDir string) (db *gus.DB, segOpen time.Duration, err error) {
	if w.name != servedRW {
		db = gus.Open()
		if err := db.AttachTPCHConfig(cfg); err != nil {
			db.Close()
			return nil, 0, err
		}
		return db, 0, nil
	}
	start := time.Now()
	if db, err = gus.OpenDir(dataDir); err != nil {
		return nil, 0, err
	}
	segOpen = time.Since(start)
	if err := db.CreateSynopsis(synopsisSpec); err != nil {
		db.Close()
		return nil, 0, err
	}
	return db, segOpen, nil
}

// saveSegments writes the DB's tables as segment files for the traced
// run's replay catalog (served-rw already has them).
func (e *env) saveSegments(workDir string) error {
	if e.dataDir != "" {
		return nil
	}
	dir := filepath.Join(workDir, "segments")
	if err := e.db.Save(dir); err != nil {
		return err
	}
	e.dataDir = dir
	return nil
}

func (e *env) close(workDir string) {
	if e.db != nil {
		e.db.Close()
	}
	os.RemoveAll(workDir)
}
