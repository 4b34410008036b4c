package bench

import (
	"strings"
	"testing"

	"github.com/vchain-go/vchain/internal/workload"
)

// tinyOptions keeps driver tests fast: the point is that every
// experiment runs end-to-end and produces a sane table, not the
// numbers themselves.
func tinyOptions() Options {
	return Options{
		Preset:          "toy",
		Blocks:          6,
		ObjectsPerBlock: 3,
		Queries:         1,
		SkipListSize:    1,
		Seed:            7,
	}
}

func TestTableString(t *testing.T) {
	tbl := &Table{
		Title:   "X",
		Note:    "note",
		Columns: []string{"A", "Blah"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
	}
	s := tbl.String()
	for _, want := range []string{"== X ==", "note", "Blah", "333"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	d := DefaultOptions()
	if o != d {
		t.Errorf("defaults mismatch: %+v vs %+v", o, d)
	}
	o2 := Options{Blocks: 99}.withDefaults()
	if o2.Blocks != 99 || o2.Queries != d.Queries {
		t.Error("partial override broken")
	}
}

func TestExperimentNamesComplete(t *testing.T) {
	names := ExperimentNames()
	want := []string{"fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22",
		"fig9", "table1"}
	if len(names) != len(want) {
		t.Fatalf("got %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("got %v", names)
		}
	}
}

func TestAccCapacitySizing(t *testing.T) {
	ds, _ := workload.Generate(workload.Config{Kind: workload.FSQ, Blocks: 1, Seed: 1})
	c1 := accCapacity(ds, 5, 2, "acc1")
	c2 := accCapacity(ds, 5, 2, "acc2")
	if c1 <= 0 || c2 <= 0 {
		t.Fatal("capacities must be positive")
	}
	// acc1 capacity grows with skip size, acc2's does not.
	if accCapacity(ds, 5, 4, "acc1") <= c1 {
		t.Error("acc1 capacity should grow with skip size")
	}
	if accCapacity(ds, 5, 4, "acc2") != c2 {
		t.Error("acc2 capacity should not depend on skip size")
	}
}

func TestWindowAndQuerySweeps(t *testing.T) {
	w := windowSweep(10)
	if len(w) != 5 || w[4] != 10 || w[0] != 2 {
		t.Errorf("windowSweep: %v", w)
	}
	q := querySweep(3)
	if len(q) != 5 || q[0] != 3 || q[4] != 15 {
		t.Errorf("querySweep: %v", q)
	}
	// Degenerate chain still yields valid windows.
	for _, x := range windowSweep(1) {
		if x < 1 {
			t.Errorf("window %d < 1", x)
		}
	}
}

// TestAllExperimentDriversRun executes every table/figure driver at
// tiny scale. Slow (~minutes at toy parameters) but it is the single
// test guaranteeing the whole evaluation pipeline works.
func TestAllExperimentDriversRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers take minutes; run without -short")
	}
	o := tinyOptions()
	for _, name := range ExperimentNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			tbl, err := Experiments[name](o)
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("empty table")
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Fatalf("ragged row %v vs columns %v", row, tbl.Columns)
				}
			}
		})
	}
}

func TestSyntheticNumericShapes(t *testing.T) {
	ds := syntheticNumeric(9, 2, 3, 1)
	if len(ds.Blocks) != 2 || len(ds.Blocks[0]) != 3 {
		t.Fatal("wrong shape")
	}
	for _, o := range ds.Blocks[0] {
		if len(o.V) != 9 {
			t.Fatalf("dims %d", len(o.V))
		}
		if len(o.W) != 0 {
			t.Fatal("Fig. 16 data must be numeric-only")
		}
		max := int64(1)<<uint(ds.Width) - 1
		for _, v := range o.V {
			if v < 0 || v > max {
				t.Fatalf("value %d out of range", v)
			}
		}
	}
}
