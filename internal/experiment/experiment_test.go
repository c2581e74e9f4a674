package experiment

import (
	"strconv"
	"strings"
	"testing"
)

// smokeConfig keeps experiment tests fast: two benchmarks at tiny scale.
func smokeConfig() Config {
	return Config{Scale: 0.03, ICache: true, Benchmarks: []string{"compress", "javac"}}
}

func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(tab.Rows[row][col], "%"), 64)
	if err != nil {
		t.Fatalf("%s cell [%d][%d] = %q not numeric: %v", tab.ID, row, col, tab.Rows[row][col], err)
	}
	return v
}

// TestAllArtifactsGenerate checks the shape of every artifact's table
// from the serial sweep TestParallelDeterminism renders (serialSweep):
// a non-empty table, every row as wide as the header, and renderings
// that name the artifact (ASCII) and hold a table (markdown). The
// generators' nil-Engine path is covered by the Table*Shape tests.
func TestAllArtifactsGenerate(t *testing.T) {
	tabs, err := serialSweep()
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range All() {
		tab := tabs[i]
		t.Run(e.ID, func(t *testing.T) {
			if len(tab.Rows) == 0 || len(tab.Header) == 0 {
				t.Fatalf("%s: empty table", e.ID)
			}
			for i, r := range tab.Rows {
				if len(r) != len(tab.Header) {
					t.Errorf("%s row %d has %d cells, header has %d", e.ID, i, len(r), len(tab.Header))
				}
			}
			if !strings.Contains(tab.String(), e.ID) {
				t.Errorf("%s: ASCII rendering lacks ID", e.ID)
			}
			var sb strings.Builder
			tab.Markdown(&sb)
			if !strings.Contains(sb.String(), "|") {
				t.Errorf("%s: markdown rendering empty", e.ID)
			}
		})
	}
}

func TestByIDErrors(t *testing.T) {
	if _, err := ByID("table9"); err == nil {
		t.Error("unknown artifact accepted")
	}
	if _, err := ByID("table4"); err != nil {
		t.Errorf("table4 rejected: %v", err)
	}
}

func TestUnknownBenchmarkRejected(t *testing.T) {
	cfg := Config{Scale: 0.01, Benchmarks: []string{"nope"}}
	if _, err := Table1(cfg); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestTable1Shape: exhaustive instrumentation must cost something
// everywhere and the last row must be the average.
func TestTable1Shape(t *testing.T) {
	tab, err := Table1(smokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[len(tab.Rows)-1][0] != "Average" {
		t.Fatal("missing average row")
	}
	for i := 0; i < len(tab.Rows)-1; i++ {
		if cell(t, tab, i, 1) <= 0 || cell(t, tab, i, 2) <= 0 {
			t.Errorf("row %v: exhaustive instrumentation cost nothing", tab.Rows[i])
		}
	}
}

// TestTable2Shape: framework overhead must be positive and far below the
// exhaustive overhead of Table 1 for the same benchmarks.
func TestTable2Shape(t *testing.T) {
	cfg := smokeConfig()
	t1, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	avgRow := len(t2.Rows) - 1
	fwAvg := cell(t, t2, avgRow, 1)
	exAvg := cell(t, t1, len(t1.Rows)-1, 1)
	if fwAvg <= 0 {
		t.Errorf("framework overhead %.1f%% should be positive", fwAvg)
	}
	if fwAvg >= exAvg {
		t.Errorf("framework overhead %.1f%% not below exhaustive %.1f%%", fwAvg, exAvg)
	}
	// Breakdown columns roughly bound the total from below.
	beAvg, meAvg := cell(t, t2, avgRow, 2), cell(t, t2, avgRow, 3)
	if beAvg+meAvg > fwAvg*2+5 {
		t.Errorf("breakdown (%.1f+%.1f) wildly exceeds total %.1f", beAvg, meAvg, fwAvg)
	}
}

// TestTable4Shape: overhead decreases monotonically with the interval and
// accuracy does not increase as intervals grow very large.
func TestTable4Shape(t *testing.T) {
	tab, err := Table4(smokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	half := len(Table4Intervals)
	for _, block := range [][2]int{{0, half}, {half, 2 * half}} {
		var prevTotal float64 = 1e18
		for i := block[0]; i < block[1]; i++ {
			total := cell(t, tab, i, 4)
			if total > prevTotal+0.5 {
				t.Errorf("%s row %d: total overhead %.1f rose above %.1f",
					tab.Rows[i][0], i, total, prevTotal)
			}
			prevTotal = total
		}
		// Accuracy at interval 1 is perfect.
		if acc := cell(t, tab, block[0], 5); acc < 99.5 {
			t.Errorf("interval-1 call-edge accuracy %.0f, want 100", acc)
		}
		if acc := cell(t, tab, block[0], 6); acc < 99.5 {
			t.Errorf("interval-1 field accuracy %.0f, want 100", acc)
		}
	}
}

// TestFigure8AShape: the yieldpoint optimization's framework overhead must
// be clearly below Table 2's.
func TestFigure8AShape(t *testing.T) {
	cfg := smokeConfig()
	t2, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f8, err := Figure8A(cfg)
	if err != nil {
		t.Fatal(err)
	}
	naive := cell(t, t2, len(t2.Rows)-1, 1)
	opt := cell(t, f8, len(f8.Rows)-1, 1)
	if opt >= naive {
		t.Errorf("yieldpoint opt %.1f%% not below naive %.1f%%", opt, naive)
	}
}

// TestTable5Shape: the counter trigger must beat the timer trigger on
// benchmarks with slow phases.
func TestTable5Shape(t *testing.T) {
	cfg := Config{Scale: 0.15, ICache: true, Benchmarks: []string{"jack", "volano"}}
	tab, err := Table5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	avg := len(tab.Rows) - 1
	timer, counter := cell(t, tab, avg, 1), cell(t, tab, avg, 2)
	if counter <= timer {
		t.Errorf("counter accuracy %.0f%% not above timer %.0f%%", counter, timer)
	}
}

func TestFigure7Overlap(t *testing.T) {
	cfg := Config{Scale: 0.3, ICache: true}
	tab, err := Figure7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.Title, "overlap") {
		t.Fatalf("title %q lacks overlap", tab.Title)
	}
	// Distribution column must contain bars.
	hasBar := false
	for _, r := range tab.Rows {
		if strings.Contains(r[3], "#") {
			hasBar = true
		}
	}
	if !hasBar {
		t.Error("no distribution bars rendered")
	}
}

func TestAblationOracleShape(t *testing.T) {
	tab, err := AblationOracle(smokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 4 variations x 5 triggers.
	if len(tab.Rows) != 20 {
		t.Fatalf("%d rows, want 20", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		if ev := cell(t, tab, i, 3); ev <= 0 {
			t.Errorf("row %d (%s/%s): no oracle events", i, row[0], row[1])
		}
		if row[5] != "pass" {
			t.Errorf("row %d verdict %q", i, row[5])
		}
		// §3.2: a guard-based variation sampled at every check must show
		// expected (tolerated) Property-1 excess; check-based ones never do.
		if row[1] == "always" {
			excess := cell(t, tab, i, 4)
			switch row[0] {
			case "No-Duplication":
				if excess <= 0 {
					t.Errorf("No-Duplication/always: want expected P1 excess > 0")
				}
			case "Full-Duplication", "Partial-Duplication":
				if excess != 0 {
					t.Errorf("%s/always: expected P1 excess %v, want 0", row[0], excess)
				}
			}
		}
	}
}
