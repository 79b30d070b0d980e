package relation

import (
	"fmt"
	"testing"

	"cqbound/internal/metrics/counter"
	"cqbound/internal/spill"
)

// spillGauge reads the governor's registry entry spill_<name>.
func spillGauge(g *spill.Governor, name string) int64 {
	r := registrar{}
	g.Register(r)
	return r["spill_"+name]()
}

// registrar keeps the read func of every counter and gauge registered
// with it, by registry name.
type registrar map[string]func() int64

func (r registrar) Counters(s *counter.Set) {
	for _, c := range s.Cells() {
		r[c.Name] = c.V.Load
	}
}

func (r registrar) Gauge(name, _ string, fn func() int64) { r[name] = fn }

// governedPair builds two governed relations under a budget that only fits
// one, so the first is parked as soon as the second registers.
func governedPair(t *testing.T, rows int) (cold, hot *Relation, g *spill.Governor) {
	t.Helper()
	g = spill.NewGovernor(int64(rows)*2*4+8, t.TempDir())
	t.Cleanup(func() { g.Close() })
	cold = New("cold", "a", "b")
	hot = New("hot", "a", "b")
	for i := 0; i < rows; i++ {
		cold.Add(fmt.Sprintf("c%d", i), fmt.Sprintf("d%d", i))
		hot.Add(fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", i))
	}
	cold.Govern(g)
	hot.Govern(g)
	return cold, hot, g
}

func TestGovernEvictReadBack(t *testing.T) {
	cold, hot, g := governedPair(t, 50)
	if cold.Governed() != true || hot.Governed() != true {
		t.Fatal("Govern did not take")
	}
	if spillGauge(g, "evictions") == 0 {
		t.Fatal("no eviction under a one-relation budget")
	}
	// Every read API must still serve the parked relation's exact rows.
	if cold.Size() != 50 || cold.At(7, 0) != V("c7") {
		t.Fatal("At through a parked buffer is wrong")
	}
	if got := cold.Row(3); got[0] != V("c3") || got[1] != V("d3") {
		t.Fatalf("Row(3) = %v", got.Strings())
	}
	if !cold.Has(Tuple{V("c49"), V("d49")}) {
		t.Fatal("Has lost a tuple")
	}
	n := 0
	cold.Each(func(tp Tuple) bool { n++; return true })
	if n != 50 {
		t.Fatalf("Each saw %d rows, want 50", n)
	}
	if spillGauge(g, "reloaded_shards") == 0 {
		t.Fatal("reads of a parked relation never reloaded")
	}
}

func TestGovernedOperatorsMatchPlain(t *testing.T) {
	cold, hot, _ := governedPair(t, 40)
	plainCold := New("pc", "a", "b")
	plainHot := New("ph", "b", "c")
	for i := 0; i < 40; i++ {
		plainCold.Add(fmt.Sprintf("c%d", i), fmt.Sprintf("d%d", i))
		plainHot.Add(fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", i))
	}
	// Rename the governed relations to join on a shared attribute.
	rc, err := cold.Rename("cold", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	rh, err := hot.Rename("hot", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	// d* values of cold never match x* of hot; force matches via a bridge.
	bridge := New("bridge", "b", "c")
	for i := 0; i < 40; i++ {
		bridge.Add(fmt.Sprintf("d%d", i), fmt.Sprintf("z%d", i%5))
	}
	gJoin, err := NaturalJoin(rc, bridge)
	if err != nil {
		t.Fatal(err)
	}
	pJoin, err := NaturalJoin(plainCold, bridge)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(gJoin, pJoin) {
		t.Fatal("join through governed storage differs from plain")
	}
	rCols, bCols := SharedCols(rc, bridge)
	sj, err := SemijoinOn(rc, bridge, rCols, bCols)
	if err != nil {
		t.Fatal(err)
	}
	if sj.Size() != 40 {
		t.Fatalf("semijoin kept %d rows, want 40", sj.Size())
	}
	proj, err := rh.Project("b")
	if err != nil {
		t.Fatal(err)
	}
	if proj.Size() != 40 {
		t.Fatalf("projection of governed relation: %d rows, want 40", proj.Size())
	}
	gath := cold.Gather("g", []int32{0, 5, 9})
	if gath.Size() != 3 || gath.At(1, 0) != V("c5") {
		t.Fatal("Gather through governed storage is wrong")
	}
}

func TestInsertReleasesGovernedBuffer(t *testing.T) {
	cold, _, g := governedPair(t, 30)
	before := spillGauge(g, "resident_bytes")
	cold.Add("new", "row")
	if cold.Governed() {
		t.Fatal("mutated relation still governed")
	}
	if cold.Size() != 31 || !cold.Has(Tuple{V("new"), V("row")}) {
		t.Fatal("insert after release lost data")
	}
	if !cold.Has(Tuple{V("c0"), V("d0")}) {
		t.Fatal("release lost pre-spill rows")
	}
	if after := spillGauge(g, "resident_bytes"); after >= before+240 {
		t.Fatalf("released bytes still accounted: %d -> %d", before, after)
	}
}

func TestGovernedViews(t *testing.T) {
	cold, _, _ := governedPair(t, 20)
	cl := cold.Clone("copy")
	if cl.Size() != 20 || !cl.Has(Tuple{V("c19"), V("d19")}) {
		t.Fatal("Clone of governed relation is wrong")
	}
	pv, err := cold.ProjectView("pv", []string{"b"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pv.Size() != 20 || pv.At(4, 0) != V("d4") {
		t.Fatal("ProjectView of governed relation is wrong")
	}
}

func TestGovernedPinBlocksEviction(t *testing.T) {
	g := spill.NewGovernor(100, t.TempDir())
	defer g.Close()
	r := New("r", "a")
	for i := 0; i < 100; i++ {
		r.Add(fmt.Sprintf("v%d", i))
	}
	r.Govern(g)
	r.Pin()
	defer r.Unpin()
	s := New("s", "a")
	for i := 0; i < 100; i++ {
		s.Add(fmt.Sprintf("w%d", i))
	}
	s.Govern(g) // would evict r if unpinned
	if n := spillGauge(g, "spilled_shards"); n != 1 {
		t.Fatalf("%d relations parked, want exactly the unpinned one", n)
	}
	if r.At(0, 0) != V("v0") {
		t.Fatal("pinned relation unreadable")
	}
}

// TestKeysBuildPinsGovernedRelation checks that building a governed
// relation's row table pins it: under a budget of half its size, Has and
// Equal each reload the parked columns at most once, not once per row.
func TestKeysBuildPinsGovernedRelation(t *testing.T) {
	const rows = 200
	governed := func() (*Relation, *spill.Governor) {
		g := spill.NewGovernor(rows*2*4/2, t.TempDir())
		t.Cleanup(func() { g.Close() })
		a, b := make([]Value, rows), make([]Value, rows)
		for i := range a {
			a[i], b[i] = Value(i), Value(i+1)
		}
		r := NewFromColumns("R", []string{"a", "b"}, [][]Value{a, b})
		r.Govern(g)
		return r, g
	}
	reloads := func(g *spill.Governor) int64 {
		_, n := g.EventCounts()
		return n
	}

	r, g := governed()
	before := reloads(g)
	if !r.Has(Tuple{Value(rows - 1), Value(rows)}) {
		t.Fatal("Has lost the last row")
	}
	if n := reloads(g) - before; n > 1 {
		t.Fatalf("Has reloaded the governed relation %d times, want at most 1", n)
	}

	s, g := governed()
	plain := New("P", "a", "b")
	for i := 0; i < rows; i++ {
		plain.MustInsert(Value(i), Value(i+1))
	}
	before = reloads(g)
	if !Equal(plain, s) {
		t.Fatal("Equal: governed copy differs")
	}
	if n := reloads(g) - before; n > 1 {
		t.Fatalf("Equal reloaded the governed relation %d times, want at most 1", n)
	}
}
