package bench

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cachecraft/internal/version"
)

// goldenTable is one rendered table of a golden sweep: its column names
// and, per row, the cells keyed by column name.
type goldenTable struct {
	cols []string
	rows []map[string]string
}

// readGoldenTable finds the table whose "== title" line starts with title
// in the committed golden file name and splits it into cells by the
// column spans of its dashed rule line.
func readGoldenTable(t *testing.T, name, title string) goldenTable {
	t.Helper()
	body, err := os.ReadFile(filepath.Join("testdata", "golden", version.SimRevision, name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(body), "\n")
	for i, l := range lines {
		if !strings.HasPrefix(l, "== "+title) || i+2 >= len(lines) {
			continue
		}
		var spans [][2]int
		rule := lines[i+2]
		for start := 0; start < len(rule); {
			end := start
			for end < len(rule) && rule[end] == '-' {
				end++
			}
			spans = append(spans, [2]int{start, end})
			start = end + 2
		}
		cell := func(line string, s [2]int) string {
			r := []rune(line)
			if s[0] >= len(r) {
				return ""
			}
			return strings.TrimSpace(string(r[s[0]:min(s[1], len(r))]))
		}
		var tab goldenTable
		for _, s := range spans {
			tab.cols = append(tab.cols, cell(lines[i+1], s))
		}
		for _, l := range lines[i+3:] {
			if l == "" || strings.HasPrefix(l, "== ") {
				break
			}
			row := make(map[string]string)
			for k, s := range spans {
				row[tab.cols[k]] = cell(l, s)
			}
			tab.rows = append(tab.rows, row)
		}
		return tab
	}
	t.Fatalf("%s has no table %q", name, title)
	return goldenTable{}
}

// value returns the number in column col of the row whose key columns
// hold the given values, in order.
func (g goldenTable) value(t *testing.T, col string, key ...string) float64 {
	t.Helper()
	for _, row := range g.rows {
		match := true
		for k, v := range key {
			match = match && row[g.cols[k]] == v
		}
		if match {
			f, err := strconv.ParseFloat(row[col], 64)
			if err != nil {
				t.Fatalf("row %v column %q: %v", key, col, err)
			}
			return f
		}
	}
	t.Fatalf("no row %v", key)
	return 0
}

// TestDefaultSweepClaims asserts, on the committed default-config sweep
// (default-all.txt, which TestDefaultSweepMatchesGolden keeps current),
// each shape EXPERIMENTS.md marks as reproduced. It runs no simulation.
// A revision bump that refreshes the golden files therefore cannot
// silently overturn the evaluation's conclusions.
func TestDefaultSweepClaims(t *testing.T) {
	const file = "default-all.txt"
	fig4 := readGoldenTable(t, file, "Fig. 4:")
	for _, s := range []string{"inline-naive", "ecc-cache"} {
		if cc, other := fig4.value(t, "cachecraft", "geomean"), fig4.value(t, s, "geomean"); cc <= other {
			t.Errorf("Fig. 4 geomean: cachecraft %.3f is not above %s %.3f", cc, s, other)
		}
	}
	for _, row := range fig4.rows {
		wl := row["workload"]
		if v := fig4.value(t, "inline-naive", wl); v >= 1 || v < 0.5 {
			t.Errorf("Fig. 4 %s: inline-naive %.3f does not lose between 0%% and 50%%", wl, v)
		}
	}
	if ecc, naive := fig4.value(t, "ecc-cache", "histogram"), fig4.value(t, "inline-naive", "histogram"); ecc >= naive {
		t.Errorf("Fig. 4 histogram: ecc-cache %.3f is not below inline-naive %.3f", ecc, naive)
	}
	if ecc, naive := fig4.value(t, "ecc-cache", "stream"), fig4.value(t, "inline-naive", "stream"); ecc <= naive {
		t.Errorf("Fig. 4 stream: ecc-cache %.3f does not recover over inline-naive %.3f", ecc, naive)
	}

	fig5 := readGoldenTable(t, file, "Fig. 5:")
	for wl, want := range map[string]float64{"stream": 1.250, "random": 2.000} {
		if got := fig5.value(t, "total", wl, "inline-naive"); got != want {
			t.Errorf("Fig. 5 %s inline-naive total = %.3f, want %.3f", wl, got, want)
		}
	}

	// Fig. 8: capacity matters exactly where the working set crosses it.
	for _, c := range []struct{ title, small, large string }{
		{"Fig. 8a:", "RC 16K", "RC 256K"},
		{"Fig. 8b:", "L2 1MiB", "L2 2MiB"},
	} {
		tab := readGoldenTable(t, file, c.title)
		for _, row := range tab.rows {
			wl := row["workload"]
			gain := tab.value(t, c.large, wl) - tab.value(t, c.small, wl)
			if wl == "histogram" && gain < 0.1 {
				t.Errorf("%s histogram gains only %.3f from %s to %s", c.title, gain, c.small, c.large)
			}
			if wl != "histogram" && (gain > 0.01 || gain < -0.01) {
				t.Errorf("%s %s moves %.3f from %s to %s; only histogram should", c.title, wl, gain, c.small, c.large)
			}
		}
	}

	fig16 := readGoldenTable(t, file, "Fig. 16")
	if cc, ideal := fig16.value(t, "cachecraft", "transpose"), fig16.value(t, "ideal", "transpose"); ideal-cc > 0.005 || cc-ideal > 0.005 {
		t.Errorf("Fig. 16 transpose: ideal %.3f is not within 0.005 of cachecraft %.3f", ideal, cc)
	}
}
