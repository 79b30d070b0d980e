package eval

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"cqbound/internal/cq"
	"cqbound/internal/database"
	"cqbound/internal/pool"
	"cqbound/internal/relation"
	"cqbound/internal/shard"
	"cqbound/internal/trace"
)

// This file adds the classical complement to the paper's worst-case bounds:
// α-acyclicity detection via the GYO reduction and Yannakakis' algorithm,
// which evaluates acyclic conjunctive queries in O(input + output) when the
// head keeps every variable; with projections, each intermediate it builds
// is a subtree's join projected onto the variables its parent shares plus
// the head. (Acyclic queries are exactly those of hypertree-width 1; the
// treewidth material of Section 5 concerns the same structural-sparsity
// theme on the data side.)

// JoinTreeNode is a node of a join tree: one body atom plus its children.
type JoinTreeNode struct {
	AtomIndex int
	Children  []*JoinTreeNode
}

// JoinTree builds a join tree of the query's body with the GYO (ear
// removal) reduction. It reports ok = false when the query is not
// α-acyclic (e.g. the triangle query).
func JoinTree(q *cq.Query) (*JoinTreeNode, bool) {
	m := len(q.Body)
	alive := make([]bool, m)
	for i := range alive {
		alive[i] = true
	}
	varSets := make([]map[cq.Variable]bool, m)
	for i, a := range q.Body {
		varSets[i] = a.VarSet()
	}
	parent := make([]int, m)
	for i := range parent {
		parent[i] = -1
	}
	removed := make([]int, 0, m)
	countAlive := m
	for countAlive > 1 {
		earFound := false
		for i := 0; i < m && !earFound; i++ {
			if !alive[i] {
				continue
			}
			// i is an ear with witness w if every variable of i that occurs
			// in another alive atom occurs in w.
			for w := 0; w < m; w++ {
				if w == i || !alive[w] {
					continue
				}
				isEar := true
				for v := range varSets[i] {
					if varSets[w][v] {
						continue
					}
					shared := false
					for o := 0; o < m; o++ {
						if o != i && alive[o] && varSets[o][v] {
							shared = true
							break
						}
					}
					if shared {
						isEar = false
						break
					}
				}
				if isEar {
					parent[i] = w
					alive[i] = false
					removed = append(removed, i)
					countAlive--
					earFound = true
					break
				}
			}
		}
		if !earFound {
			return nil, false // GYO stuck: cyclic
		}
	}
	root := -1
	for i := 0; i < m; i++ {
		if alive[i] {
			root = i
			break
		}
	}
	nodes := make([]*JoinTreeNode, m)
	for i := 0; i < m; i++ {
		nodes[i] = &JoinTreeNode{AtomIndex: i}
	}
	for _, i := range removed {
		nodes[parent[i]].Children = append(nodes[parent[i]].Children, nodes[i])
	}
	return nodes[root], true
}

// IsAcyclic reports whether the query's body hypergraph is α-acyclic.
func IsAcyclic(q *cq.Query) bool {
	if len(q.Body) == 0 {
		return true
	}
	_, ok := JoinTree(q)
	return ok
}

// Yannakakis evaluates an α-acyclic query with Yannakakis' algorithm:
// a bottom-up semijoin pass removes dangling tuples, then a top-down pass
// filters against parents, and a final bottom-up join (projecting each
// subtree result onto the variables its parent shares plus the head)
// produces the output. Returns an error for cyclic queries.
func Yannakakis(q *cq.Query, db *database.Database) (*relation.Relation, Stats, error) {
	return YannakakisExec(context.Background(), q, db, nil)
}

// joinForced joins a forced subtree result into its parent atom's
// pipeline, and semijoinReducer filters a binding's pipeline against a
// reducer. They are variables so tests can see the relations that reach
// them.
var (
	joinForced      = shard.JoinPipedStream
	semijoinReducer = shard.SemijoinPipedStream
)

// YannakakisExec evaluates an α-acyclic q with Yannakakis' algorithm, with
// cancellation (checked between semijoin and join steps) and an early exit
// as soon as any binding relation is empty: every atom participates in the
// final join, so the output is empty.
//
// Sibling subtrees of the join tree are independent in every pass, so the
// bottom-up and top-down semijoin sweeps and the final join recurse over a
// node's children in parallel on a bounded worker pool; only the fold into
// the parent is sequential. Semijoins probe the child's memoized hash index
// (relation.Semijoin) instead of rescanning it per pass.
//
// The semijoin passes produce a relation per node — a reducer is probed via
// its index, so it must exist whole — but each reduction itself runs as a
// pipeline (scan → semijoin stages → sink) routed by internal/shard, and
// every materialized reduction is a subset of a base binding. Its sink
// copies the parts into one relation, governed and scoped like every other
// transient, and keeps the parts' row ranges (shard.Stream). Semijoin
// outputs are subsets of their left input, so a binding partitioned once
// stays partitioned through every later pass over it (misaligned passes
// probe the reducer whole per part instead of re-exchanging). The join
// pass builds one pipeline per node (scan of the reduced binding → probes
// of the forced child subtree results); each child's result is projected
// onto the variables the node's atom shares with it plus the head before it
// is forced, and the root's join, the plan's largest intermediate, streams
// straight into the head projection. After full reduction every forced
// result is the projection of its subtree's join — at most the output's
// size when the head keeps every variable, and otherwise at most (distinct
// parent-interface values) × (distinct head projections of the output).
// Components of the join tree that share no variable with the rest and
// hold no head variable only guard non-emptiness, which the full reducer
// already settled, so the join pass skips them (see withoutGuards). nil
// opts means one pipeline per stage and default batches.
func YannakakisExec(ctx context.Context, q *cq.Query, db *database.Database, opts *shard.Options) (*relation.Relation, Stats, error) {
	var st Stats
	if err := validateAtoms(q, db); err != nil {
		return nil, st, err
	}
	tree, ok := JoinTree(q)
	if !ok {
		return nil, st, fmt.Errorf("eval: query is not acyclic; use JoinProject or GenericJoin")
	}
	// Each atom's reduction flows between passes as a Stream: a pass that
	// exchanged the binding leaves its rows in part ranges, and the next
	// pass's pipeline picks the partitioning up instead of re-exchanging.
	tr := opts.Tracer()
	bs := stageSpan(opts, trace.KindStage, "bindings")
	reduced := make([]shard.Stream, len(q.Body))
	for i, a := range q.Body {
		b, err := bindingRelation(a, db)
		if err != nil {
			bs.End()
			return nil, st, err
		}
		if b.Size() == 0 {
			bs.End()
			st.EarlyExit = true
			return emptyOutput(q), st, nil
		}
		if tr != nil {
			scanSpan(opts, b.Name, b.Size())
		}
		reduced[i] = shard.StreamOf(b)
	}
	bs.End()
	var stMu sync.Mutex
	countJoin := func(size int) {
		stMu.Lock()
		st.Joins++
		if size > st.MaxIntermediate {
			st.MaxIntermediate = size
		}
		stMu.Unlock()
	}
	// filter pipelines binding i through semijoins against the given
	// reducer atoms and forces the result back into a relation, transient
	// under the spill governor. A reducer that has been through a filter of
	// its own is itself transient — its partitionings must die with the
	// evaluation — while an unreduced base binding's partitions persist for
	// reuse. A pass that removes no row keeps its input, unless its sink
	// partitioned the rows and the input was not: the sunk copy is the same
	// rows, and the input's memoized indexes and partitions (a base
	// binding's, built once across evaluations) serve the later passes
	// instead of being rebuilt on the copy.
	filtered := make([]bool, len(q.Body))
	filter := func(i int, reducers []int) error {
		pd := shard.PipedOf(reduced[i], opts)
		for _, ri := range reducers {
			ssp := semijoinSpan(opts, tr, reduced[i].Rel(), reduced[ri].Rel(), q.Body[i].Relation, q.Body[ri].Relation)
			var err error
			if pd, err = semijoinReducer(ctx, opts, pd, reduced[ri].Rel(), filtered[ri]); err != nil {
				ssp.End()
				return err
			}
			shard.TracePiped(pd, ssp)
			countJoin(0)
		}
		sunk, err := shard.MaterializePiped(ctx, opts, pd, q.Body[i].Relation+"_sj", true)
		if err != nil {
			return err
		}
		if sunk.Rel().Size() == reduced[i].Rel().Size() && sunk.Key() == reduced[i].Key() {
			return nil
		}
		reduced[i] = sunk
		filtered[i] = true
		return nil
	}
	// Bottom-up semijoin: parent ⋉ every child, one pipeline per node.
	var up func(n *JoinTreeNode) error
	up = func(n *JoinTreeNode) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := pool.Run(ctx, 0, len(n.Children), func(i int) error {
			return up(n.Children[i])
		}); err != nil {
			return err
		}
		if len(n.Children) == 0 {
			return nil
		}
		reducers := make([]int, len(n.Children))
		for i, c := range n.Children {
			reducers[i] = c.AtomIndex
		}
		return filter(n.AtomIndex, reducers)
	}
	su := stageSpan(opts, trace.KindStage, "semijoin up")
	mkUp := markSpill(opts, tr != nil)
	if err := up(tree); err != nil {
		su.End()
		return nil, st, err
	}
	mkUp.annotate(su)
	su.End()
	// Top-down semijoin: child ⋉ parent.
	var down func(n *JoinTreeNode) error
	down = func(n *JoinTreeNode) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return pool.Run(ctx, 0, len(n.Children), func(i int) error {
			c := n.Children[i]
			if err := filter(c.AtomIndex, []int{n.AtomIndex}); err != nil {
				return err
			}
			return down(c)
		})
	}
	sd := stageSpan(opts, trace.KindStage, "semijoin down")
	mkDown := markSpill(opts, tr != nil)
	if err := down(tree); err != nil {
		sd.End()
		return nil, st, err
	}
	mkDown.annotate(sd)
	sd.End()
	// Bottom-up join over the guard-free tree: each node's pipeline probes
	// its children's forced subtree results, each projected onto the
	// variables it shares with the node plus the head — by the running
	// intersection property no variable above the node is needed from
	// below it otherwise. Only the root's pipeline escapes unforced, into
	// the head projection.
	head := q.HeadVarSet()
	var join func(n *JoinTreeNode) (*shard.Piped, error)
	join = func(n *JoinTreeNode) (*shard.Piped, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		parentVars := q.Body[n.AtomIndex].VarSet()
		subs := make([]*relation.Relation, len(n.Children))
		if err := pool.Run(ctx, 0, len(n.Children), func(i int) error {
			pd, err := join(n.Children[i])
			if err != nil {
				return err
			}
			var keep []string
			for _, attr := range pd.Attrs() {
				if v := cq.Variable(attr); head[v] || parentVars[v] {
					keep = append(keep, attr)
				}
			}
			if len(keep) == 0 {
				return fmt.Errorf("eval: internal: empty projection in Yannakakis")
			}
			if len(keep) < len(pd.Attrs()) {
				if pd, err = projectPipedNames(ctx, opts, pd, keep); err != nil {
					return err
				}
			}
			sunk, err := shard.MaterializePiped(ctx, opts, pd, "sub", true)
			if err != nil {
				return err
			}
			subs[i] = sunk.Rel()
			stMu.Lock()
			if subs[i].Size() > st.MaxIntermediate {
				st.MaxIntermediate = subs[i].Size()
			}
			stMu.Unlock()
			return nil
		}); err != nil {
			return nil, err
		}
		cur := shard.PipedOf(reduced[n.AtomIndex], opts)
		for _, sub := range subs {
			var jsp *trace.Span
			if tr != nil {
				jsp = tr.Op(trace.KindJoin, "⋈ under "+q.Body[n.AtomIndex].Relation)
				jsp.SetEst(estimateJoin(reduced[n.AtomIndex].Rel(), sub))
			}
			var err error
			if cur, err = joinForced(ctx, opts, cur, sub, true); err != nil {
				jsp.End()
				return nil, err
			}
			shard.TracePiped(cur, jsp)
			countJoin(0)
		}
		return cur, nil
	}
	sj := stageSpan(opts, trace.KindStage, "join pass")
	full, err := join(withoutGuards(q, tree))
	if err != nil {
		sj.End()
		return nil, st, err
	}
	sj.End()
	out, err := headProjectionPiped(ctx, opts, q, full)
	if err != nil {
		return nil, st, err
	}
	if out.Size() > st.MaxIntermediate {
		st.MaxIntermediate = out.Size()
	}
	return out, st, nil
}

// withoutGuards returns the join tree the join pass runs over. Cutting
// every tree edge whose atoms share no variable splits the tree into
// components that share no variable with one another, so the output is the
// cross product of the components' head projections. After the full
// reducer every reduced relation is non-empty exactly when the output is,
// so a component holding no head variable — a guard — contributes nothing
// further and is dropped instead of cross-producted. The kept components
// hang under the first one (the cross products the output needs); a query
// whose head variables all lie outside the root's component is re-rooted
// there, and a Boolean query keeps the root's component alone.
func withoutGuards(q *cq.Query, tree *JoinTreeNode) *JoinTreeNode {
	head := q.HeadVarSet()
	var kept []*JoinTreeNode
	// component copies n's component and reports whether it holds a head
	// variable; kept collects the headed components cut off below it.
	var component func(n *JoinTreeNode) (*JoinTreeNode, bool)
	component = func(n *JoinTreeNode) (*JoinTreeNode, bool) {
		a := q.Body[n.AtomIndex]
		own := a.VarSet()
		out := &JoinTreeNode{AtomIndex: n.AtomIndex}
		headed := slices.ContainsFunc(a.Vars, func(v cq.Variable) bool { return head[v] })
		for _, c := range n.Children {
			sub, subHeaded := component(c)
			if slices.ContainsFunc(q.Body[c.AtomIndex].Vars, func(v cq.Variable) bool { return own[v] }) {
				out.Children = append(out.Children, sub)
				headed = headed || subHeaded
			} else if subHeaded {
				kept = append(kept, sub)
			}
		}
		return out, headed
	}
	root, headed := component(tree)
	if !headed && len(kept) > 0 {
		root, kept = kept[0], kept[1:]
	}
	root.Children = append(root.Children, kept...)
	return root
}
