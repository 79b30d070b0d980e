package relation

import (
	"cmp"
	"slices"
)

// EquiJoinSortMerge computes the same result as HashJoin with a sort-merge
// strategy: the row ids of both inputs are sorted on their join key and
// merged block by block. It is the classical alternative to hash joins;
// the ablation benchmark at the repository root compares the two.
func EquiJoinSortMerge(r, s *Relation, pairs [][2]int) (*Relation, error) {
	for _, p := range pairs {
		if p[0] < 0 || p[0] >= r.Arity() || p[1] < 0 || p[1] >= s.Arity() {
			return nil, errJoinRange(p)
		}
	}
	rCols := make([]int, len(pairs))
	sCols := make([]int, len(pairs))
	for i, p := range pairs {
		rCols[i] = p[0]
		sCols[i] = p[1]
	}
	// Pin both sides for the sort and the merge: every comparison reads
	// their columns, and rows are appended to the output tuple by tuple.
	r.Pin()
	defer r.Unpin()
	s.Pin()
	defer s.Unpin()
	rd, sd := r.data(), s.data()
	// cmpKeys orders row i of columns d against row j of columns e on
	// their join keys.
	cmpKeys := func(d [][]Value, dCols []int, i int32, e [][]Value, eCols []int, j int32) int {
		for k, c := range dCols {
			if o := cmp.Compare(d[c][i], e[eCols[k]][j]); o != 0 {
				return o
			}
		}
		return 0
	}
	sorted := func(d [][]Value, cols []int, n int) []int32 {
		rows := allRowIDs(n)
		slices.SortFunc(rows, func(a, b int32) int { return cmpKeys(d, cols, a, d, cols, b) })
		return rows
	}
	left, right := sorted(rd, rCols, r.n), sorted(sd, sCols, s.n)

	out := New(r.Name+"_smj_"+s.Name, concatAttrs(r, s)...)
	out.dict = r.dict
	nt := make(Tuple, 0, r.Arity()+s.Arity())
	i, j := 0, 0
	for i < len(left) && j < len(right) {
		switch o := cmpKeys(rd, rCols, left[i], sd, sCols, right[j]); {
		case o < 0:
			i++
		case o > 0:
			j++
		default:
			// Equal-key blocks.
			iEnd := i + 1
			for iEnd < len(left) && cmpKeys(rd, rCols, left[iEnd], rd, rCols, left[i]) == 0 {
				iEnd++
			}
			jEnd := j + 1
			for jEnd < len(right) && cmpKeys(sd, sCols, right[jEnd], sd, sCols, right[j]) == 0 {
				jEnd++
			}
			for a := i; a < iEnd; a++ {
				for b := j; b < jEnd; b++ {
					nt = r.AppendRow(nt[:0], int(left[a]))
					nt = s.AppendRow(nt, int(right[b]))
					out.appendRowUnchecked(nt)
				}
			}
			i, j = iEnd, jEnd
		}
	}
	return out, nil
}

// allRowIDs returns the row ids 0..n-1.
func allRowIDs(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

func errJoinRange(p [2]int) error {
	return &joinRangeError{p}
}

type joinRangeError struct{ p [2]int }

func (e *joinRangeError) Error() string {
	return "relation: join positions out of range"
}
