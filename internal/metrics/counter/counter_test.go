package counter

import (
	"fmt"
	"strings"
	"testing"
)

var (
	testFamily = NewFamily("fam")
	testOps    = testFamily.Counter("ops", "operations")
	testRows   = testFamily.Counter("rows", "rows")
)

// One declaration yields merge, diff, listing and reset.
func TestSetMergeDiffList(t *testing.T) {
	shared, private := testFamily.NewSet(), testFamily.NewSet()
	private.Add(testOps, 2)
	private.Add(testRows, 30)
	before := shared.Clone()
	private.AddTo(shared)
	private.AddTo(nil)
	if shared.Load(testRows) != 30 {
		t.Fatalf("merged rows = %d, want 30", shared.Load(testRows))
	}
	var listed []string
	shared.Since(before).Each(func(name string, v int64) { listed = append(listed, fmt.Sprintf("%s=%d", name, v)) })
	if got := strings.Join(listed, ","); got != "fam_ops=2,fam_rows=30" {
		t.Fatalf("delta = %s", got)
	}
	cells := shared.Cells()
	if len(cells) != 2 || cells[1].Name != "fam_rows" || cells[1].Help != "rows" || cells[1].V.Load() != 30 {
		t.Fatalf("cells = %+v", cells)
	}
	shared.Reset()
	if shared.Load(testOps) != 0 || shared.Load(testRows) != 0 {
		t.Fatal("Reset left counts")
	}
	var nilSet *Set
	nilSet.Add(testOps, 1)
	if nilSet.Load(testOps) != 0 {
		t.Fatal("a nil set must read zero")
	}
}
