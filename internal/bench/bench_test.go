package bench_test

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/unicons"
)

func TestFig3ScalingIsConstant(t *testing.T) {
	pts := bench.Fig3Scaling([]int{1, 4, 16, 64}, 1)
	for _, p := range pts {
		if p.Stmts != unicons.Stmts {
			t.Fatalf("n=%d: stmts/op = %d, want exactly %d", p.X, p.Stmts, unicons.Stmts)
		}
	}
}

func TestFig5ScalingShape(t *testing.T) {
	pts := bench.Fig5Scaling([]int{1, 4, 16}, 4, 2, 1)
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Growth from V=4 to V=16 must be bounded by a generous linear
	// factor (scan costs 2 statements per level plus retry headroom).
	if pts[2].Stmts-pts[1].Stmts > 12*40 {
		t.Fatalf("V=4→16 growth %d too steep for O(V)", pts[2].Stmts-pts[1].Stmts)
	}
}

func TestFig7ScalingRuns(t *testing.T) {
	pts := bench.Fig7Scaling([]int{1, 2}, 2, 1, 1, 2048, 1)
	if len(pts) != 2 || pts[0].Stmts <= 0 {
		t.Fatalf("bad points: %+v", pts)
	}
}

func TestTable1SweepSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	grid := []int{1, 8, 64, 512, 2048}
	rows := bench.Table1Sweep(2, 2, 1, 5, grid)
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (K=0..2)", len(rows))
	}
	out := bench.RenderTable1(2, 2, 1, rows)
	if !strings.Contains(out, "Table 1 reproduction") {
		t.Fatalf("bad render:\n%s", out)
	}
	for _, r := range rows {
		if r.MinWorkingQ == 0 {
			t.Errorf("C=%d: no working quantum found on grid %v", r.C, grid)
		}
	}
	t.Logf("\n%s", out)
}

func TestExpBaselineCurve(t *testing.T) {
	out := bench.ExpBaselineCurve([]int{1, 2, 4, 8}, 2, 1, 2)
	if !strings.Contains(out, "2^V") {
		t.Fatalf("bad render:\n%s", out)
	}
}
