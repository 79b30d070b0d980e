package main

// Seeded input generation and the order-independent result hash. Every
// workload derives its data and its request sequence from -seed through
// streamRNG, so the same seed gives the same inputs and the program under
// test sees only what is generated here.

import (
	"fmt"
	"math/rand"

	"cqbound"
)

// streamRNG returns the generator of one named input stream of a run:
// distinct streams of one seed are independent, the same (seed, stream)
// always yields the same sequence.
func streamRNG(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + stream))
}

// edge is one generated binary tuple, kept as strings: free-standing
// relations, transactions and HTTP commits all intern at their own
// boundary.
type edge [2]string

// uniformEdges draws n edges with both endpoints uniform over universe
// nodes u0..u<universe-1>. Set semantics dedups collisions at load.
func uniformEdges(rng *rand.Rand, n, universe int) []edge {
	out := make([]edge, n)
	for i := range out {
		out[i] = edge{node(rng.Intn(universe)), node(rng.Intn(universe))}
	}
	return out
}

// zipfEdges draws n edges whose endpoints follow a Zipf law with exponent
// s over the universe: a few hub nodes carry most edges, the input
// property hot-shard splitting depends on.
func zipfEdges(rng *rand.Rand, n, universe int, s float64) []edge {
	z := rand.NewZipf(rng, s, 1, uint64(universe-1))
	out := make([]edge, n)
	for i := range out {
		out[i] = edge{node(int(z.Uint64())), node(int(z.Uint64()))}
	}
	return out
}

func node(i int) string { return fmt.Sprintf("u%d", i) }

// edgeRelation builds a free-standing binary relation from edges.
func edgeRelation(name string, edges []edge) *cqbound.Relation {
	r := cqbound.NewRelation(name, "a", "b")
	for _, e := range edges {
		r.Add(e[0], e[1])
	}
	return r
}

// resultSig identifies a result set: its row count and an
// order-independent hash of its decoded tuples.
type resultSig struct {
	Rows int
	Hash uint64
}

// strHash is FNV-1a over the string's bytes; tupleHasher folds the column
// strings of one tuple position-sensitively and finalizes, and a result's
// hash is the wrapping sum of its tuple hashes — independent of row order,
// sensitive to any changed, missing or extra tuple.
func strHash(s []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range s {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

const tupleSeed = 0x9e3779b97f4a7c15

func foldCol(h, col uint64) uint64 {
	h ^= col
	h *= 0xff51afd7ed558ccd
	return h ^ h>>32
}

func finishTuple(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>29
}

// sigHasher hashes relations whose values live in one dictionary, decoding
// each distinct value once: the per-value string hash is memoized by ID.
type sigHasher struct {
	dict *cqbound.Dict
	memo []uint64
	done []bool
}

func newSigHasher(d *cqbound.Dict) *sigHasher { return &sigHasher{dict: d} }

func (s *sigHasher) value(v cqbound.Value) uint64 {
	i := int(v)
	if i >= len(s.memo) {
		n := 2*i + 16
		s.memo = append(s.memo, make([]uint64, n-len(s.memo))...)
		s.done = append(s.done, make([]bool, n-len(s.done))...)
	}
	if !s.done[i] {
		s.memo[i] = strHash([]byte(s.dict.String(v)))
		s.done[i] = true
	}
	return s.memo[i]
}

// sig computes the signature of r, reading its columns directly.
func (s *sigHasher) sig(r *cqbound.Relation) resultSig {
	n := r.Size()
	cols := make([][]cqbound.Value, r.Arity())
	for c := range cols {
		cols[c] = r.Column(c)
	}
	var sum uint64
	for i := 0; i < n; i++ {
		h := uint64(tupleSeed)
		for _, col := range cols {
			h = foldCol(h, s.value(col[i]))
		}
		sum += finishTuple(h)
	}
	return resultSig{Rows: n, Hash: sum}
}
