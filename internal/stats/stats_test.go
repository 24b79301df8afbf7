package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCountersBasics(t *testing.T) {
	c := NewCounters()
	c.Add("a", 1)
	c.Add("b", 10)
	c.Add("a", 1)
	if c.Get("a") != 2 || c.Get("b") != 10 {
		t.Fatalf("got a=%d b=%d", c.Get("a"), c.Get("b"))
	}
	if c.Get("missing") != 0 {
		t.Fatal("missing counter should read zero")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
}

func TestCountersMerge(t *testing.T) {
	a := NewCounters()
	a.Add("x", 1)
	a.Add("y", 2)
	b := NewCounters()
	b.Add("y", 3)
	b.Add("z", 4)
	a.Merge(b)
	if a.Get("x") != 1 || a.Get("y") != 5 || a.Get("z") != 4 {
		t.Fatalf("merge wrong: %s", a)
	}
}

func TestCountersMergeOrder(t *testing.T) {
	// Merge keeps the destination's creation order and appends only the
	// names it has never seen, in the source's order — the property the
	// obs registry snapshot relies on for stable rendering.
	a := NewCounters()
	a.Add("x", 1)
	a.Add("y", 2)
	b := NewCounters()
	b.Add("z", 3)
	b.Add("y", 4)
	b.Add("w", 5)
	a.Merge(b)
	got := a.Names()
	want := []string{"x", "y", "z", "w"}
	if len(got) != len(want) {
		t.Fatalf("names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v, want %v", got, want)
		}
	}
}

func TestCountersMergeEmptyAndSelf(t *testing.T) {
	a := NewCounters()
	a.Add("x", 2)
	a.Merge(NewCounters()) // no-op
	if a.Get("x") != 2 || len(a.Names()) != 1 {
		t.Fatalf("merge of empty changed a: %s", a)
	}
	empty := NewCounters()
	empty.Merge(a) // merge into empty copies values and order
	if empty.Get("x") != 2 || len(empty.Names()) != 1 {
		t.Fatalf("merge into empty: %s", empty)
	}
	a.Merge(a) // self-merge doubles every counter but keeps the name set
	if a.Get("x") != 4 || len(a.Names()) != 1 {
		t.Fatalf("self-merge: %s", a)
	}
}

func TestCountersSet(t *testing.T) {
	c := NewCounters()
	c.Set("v", 42)
	c.Set("v", 7)
	if c.Get("v") != 7 {
		t.Fatalf("set = %d, want 7", c.Get("v"))
	}
}

func TestGeomean(t *testing.T) {
	got := Geomean([]float64{1, 4})
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("geomean(1,4) = %v, want 2", got)
	}
	if Geomean(nil) != 0 {
		t.Fatal("geomean of empty must be 0")
	}
	// Non-positive entries are ignored.
	got = Geomean([]float64{0, -3, 8, 2})
	if math.Abs(got-4) > 1e-12 {
		t.Fatalf("geomean ignoring nonpositive = %v, want 4", got)
	}
}

func TestGeomeanBetweenMinAndMax(t *testing.T) {
	f := func(raw []uint16) bool {
		xs := make([]float64, 0, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range raw {
			v := float64(r) + 1 // strictly positive
			xs = append(xs, v)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if len(xs) == 0 {
			return Geomean(xs) == 0
		}
		g := Geomean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("mean of empty must be 0")
	}
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("mean = %v, want 2", m)
	}
}

func TestTableRender(t *testing.T) {
	tab := NewTable("demo", "name", "value")
	tab.AddRow("alpha", "1")
	tab.AddRow("b")
	out := tab.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "alpha  1") {
		t.Fatalf("missing aligned row:\n%s", out)
	}
	if len(tab.rows) != 2 {
		t.Fatalf("rows = %d", len(tab.rows))
	}
}

// TestTableAddRowPadsShortAndRejectsLong: short rows are padded with
// empty cells, but a row wider than the header panics instead of silently
// dropping cells (which would print values under the wrong columns).
func TestTableAddRowPadsShortAndRejectsLong(t *testing.T) {
	tab := NewTable("demo", "a", "b")
	tab.AddRow("only")
	if got := tab.rows[0]; len(got) != 2 || got[0] != "only" || got[1] != "" {
		t.Fatalf("short row not padded: %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AddRow with more cells than headers did not panic")
		}
	}()
	tab.AddRow("x", "y", "overflow")
}

func TestTableCSVQuoting(t *testing.T) {
	tab := NewTable("", "a", "b")
	tab.AddRow("x,y", `say "hi"`)
	var b strings.Builder
	tab.RenderCSV(&b)
	out := b.String()
	if !strings.Contains(out, `"x,y"`) {
		t.Fatalf("comma cell not quoted: %s", out)
	}
	if !strings.Contains(out, `"say ""hi"""`) {
		t.Fatalf("quote cell not escaped: %s", out)
	}
}
