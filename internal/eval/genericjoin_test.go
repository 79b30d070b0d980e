package eval

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cqbound/internal/cq"
	"cqbound/internal/database"
	"cqbound/internal/relation"
)

// uniformEdgeDB holds one relation E of n edges drawn uniformly over the
// given number of nodes.
func uniformEdgeDB(seed int64, n, nodes int) *database.Database {
	rng := rand.New(rand.NewSource(seed))
	e := relation.New("E", "a", "b")
	for i := 0; i < n; i++ {
		e.Add(fmt.Sprintf("u%d", rng.Intn(nodes)), fmt.Sprintf("u%d", rng.Intn(nodes)))
	}
	db := database.New()
	db.MustAdd(e)
	return db
}

// hubTriangleDB is Example 3.3's worst case for pairwise joins: R1, R2 and
// R3 each hold (i,0) and (0,i) for i = 0..k, so every two-atom join has
// about k² rows while the triangle query has 3k+1.
func hubTriangleDB(k int) *database.Database {
	db := database.New()
	for _, name := range []string{"R1", "R2", "R3"} {
		r := relation.New(name, "a", "b")
		for i := 0; i <= k; i++ {
			r.Add(fmt.Sprint(i), "0")
			r.Add("0", fmt.Sprint(i))
		}
		db.MustAdd(r)
	}
	return db
}

// TestGenericJoinReadsJoinIndexes checks that generic join memoizes no
// structure of its own: it reads the per-prefix hash indexes a join on the
// same columns probes.
func TestGenericJoinReadsJoinIndexes(t *testing.T) {
	db := uniformEdgeDB(7, 250, 40)
	e := db.Relation("E")
	q := cq.MustParse("Q(X,Y,Z) <- E(X,Y), E(Y,Z), E(X,Z).")
	out, _, err := GenericJoinExec(context.Background(), q, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := Naive(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(out, ref) {
		t.Fatalf("generic join: %d tuples, naive has %d", out.Size(), ref.Size())
	}
	read := make(map[*relation.Index]bool)
	e.EachMemo(func(key string, v any, valid bool) bool {
		if strings.HasPrefix(key, "trie:") {
			t.Errorf("generic join memoized %q", key)
		}
		if ix, ok := v.(*relation.Index); ok && valid {
			read[ix] = true
		}
		return true
	})
	// E(Y,Z) and E(X,Z) bind their first variable in column 0.
	if !read[e.Index(0)] {
		t.Fatal("generic join did not read the index a join on column 0 probes")
	}
}

// BenchmarkGenericJoin runs generic join on a uniform 4-cycle (250 edges
// over 40 nodes) and on Example 3.3's worst-case triangle at k = 3 000,
// with the indexes warm after the first iteration.
func BenchmarkGenericJoin(b *testing.B) {
	cases := []struct {
		name string
		q    string
		db   *database.Database
	}{
		{"4-cycle", "Q(A,B,C,D) <- E(A,B), E(B,C), E(C,D), E(D,A).", uniformEdgeDB(7, 250, 40)},
		{"worst-case-triangle", "Q(X,Y,Z) <- R1(X,Y), R2(X,Z), R3(Y,Z).", hubTriangleDB(3000)},
	}
	for _, c := range cases {
		q := cq.MustParse(c.q)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := GenericJoinExec(context.Background(), q, c.db, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
