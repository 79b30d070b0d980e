package eval

import (
	"context"
	"testing"

	"cqbound/internal/cq"
	"cqbound/internal/database"
	"cqbound/internal/relation"
)

func chainDB(t *testing.T) *database.Database {
	t.Helper()
	db := database.New()
	r := relation.New("R", "a", "b")
	s := relation.New("S", "a", "b")
	for _, p := range [][2]string{{"1", "2"}, {"2", "3"}, {"3", "4"}} {
		r.Add(p[0], p[1])
		s.Add(p[1], p[0])
	}
	db.MustAdd(r)
	db.MustAdd(s)
	return db
}

func TestJoinProjectOrderedPermutation(t *testing.T) {
	q := cq.MustParse("Q(X,Z) <- R(X,Y), S(Y,Z).")
	db := chainDB(t)
	base, _, err := JoinProject(q, db)
	if err != nil {
		t.Fatal(err)
	}
	swapped, _, err := JoinProjectExec(context.Background(), q, db, []int{1, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(base, swapped) {
		t.Errorf("reordered evaluation differs: %v vs %v", base, swapped)
	}
	// Bad orders must be rejected.
	if _, _, err := JoinProjectExec(context.Background(), q, db, []int{0, 0}, nil); err == nil {
		t.Error("duplicate order accepted")
	}
	if _, _, err := JoinProjectExec(context.Background(), q, db, []int{0}, nil); err == nil {
		t.Error("short order accepted")
	}
}

func TestEmptyIntermediateEarlyExit(t *testing.T) {
	q := cq.MustParse("Q(X,Z) <- R(X,Y), S(Y,Z).")
	db := database.New()
	db.MustAdd(relation.New("R", "a", "b")) // empty
	s := relation.New("S", "a", "b")
	s.Add("y", "z")
	db.MustAdd(s)

	out, st, err := JoinProjectExec(context.Background(), q, db, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 0 || !st.EarlyExit {
		t.Errorf("join-project: size=%d earlyExit=%v", out.Size(), st.EarlyExit)
	}
	out, st, err = YannakakisExec(context.Background(), q, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 0 || !st.EarlyExit {
		t.Errorf("yannakakis: size=%d earlyExit=%v", out.Size(), st.EarlyExit)
	}
	out, st, err = GenericJoinExec(context.Background(), q, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 0 || !st.EarlyExit {
		t.Errorf("generic join: size=%d earlyExit=%v", out.Size(), st.EarlyExit)
	}
}

// TestEarlyExitDoesNotMaskSchemaErrors: an empty first relation must not
// hide that a later atom's relation is missing — every strategy validates
// the whole body before evaluating.
func TestEarlyExitDoesNotMaskSchemaErrors(t *testing.T) {
	q := cq.MustParse("Q(X,Z) <- R(X,Y), S(Y,Z).")
	db := database.New()
	db.MustAdd(relation.New("R", "a", "b")) // empty; S absent entirely
	ctx := context.Background()
	if _, _, err := NaiveCtx(ctx, q, db); err == nil {
		t.Error("naive: missing relation masked by empty intermediate")
	}
	if _, _, err := JoinProjectExec(ctx, q, db, nil, nil); err == nil {
		t.Error("join-project: missing relation masked by empty intermediate")
	}
	if _, _, err := GenericJoinExec(ctx, q, db, nil); err == nil {
		t.Error("generic join: missing relation masked by empty intermediate")
	}
	if _, _, err := YannakakisExec(ctx, q, db, nil); err == nil {
		t.Error("yannakakis: missing relation masked by empty intermediate")
	}
}

func TestCancellation(t *testing.T) {
	q := cq.MustParse("Q(X,Z) <- R(X,Y), S(Y,Z).")
	db := chainDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := JoinProjectExec(ctx, q, db, nil, nil); err == nil {
		t.Error("join-project ignored cancellation")
	}
	if _, _, err := GenericJoinExec(ctx, q, db, nil); err == nil {
		t.Error("generic join ignored cancellation")
	}
	if _, _, err := YannakakisExec(ctx, q, db, nil); err == nil {
		t.Error("yannakakis ignored cancellation")
	}
	if _, _, err := NaiveCtx(ctx, q, db); err == nil {
		t.Error("naive ignored cancellation")
	}
}
