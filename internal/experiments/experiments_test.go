package experiments

import (
	"strings"
	"testing"
)

func TestFig9UserStudyShape(t *testing.T) {
	res := Fig9UserStudy(Tiny())
	if len(res.Rows) != 3*len(Approaches) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), 3*len(Approaches))
	}
	for _, qs := range []string{"Qs1", "Qs2", "Qs3"} {
		m := res.Row(qs, MIDAS)
		n := res.Row(qs, NoMaintain)
		if m == nil || n == nil {
			t.Fatalf("missing rows for %s", qs)
		}
		if m.QFT <= 0 || m.Steps <= 0 {
			t.Fatalf("degenerate MIDAS row for %s: %+v", qs, m)
		}
	}
	// The headline shape: on Δ+-only queries (Qs3), MIDAS must not be
	// slower than the stale NoMaintain set.
	m3, n3 := res.Row("Qs3", MIDAS), res.Row("Qs3", NoMaintain)
	if m3.Steps > n3.Steps+1e-9 {
		t.Fatalf("MIDAS steps %v worse than NoMaintain %v on Qs3", m3.Steps, n3.Steps)
	}
	tbl := res.Table().String()
	if !strings.Contains(tbl, "Qs3") || !strings.Contains(tbl, "MIDAS") {
		t.Fatal("table rendering broken")
	}
}

func TestFig10Shape(t *testing.T) {
	res := Fig10UserQueries(Tiny())
	if len(res.Rows) != 3*len(Approaches) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// At this toy scale a single swap can sting one dataset's free-form
	// workload, so assert the aggregate shape: averaged across datasets
	// MIDAS must not lose to the stale set, and no dataset may regress
	// by more than 25%.
	var sumM, sumN float64
	for _, ds := range []string{"PubChem", "AIDS", "eMol"} {
		m := res.Row(ds, MIDAS)
		if m == nil || m.QFT <= 0 {
			t.Fatalf("bad MIDAS row for %s", ds)
		}
		n := res.Row(ds, NoMaintain)
		sumM += m.Steps
		sumN += n.Steps
		if m.Steps > 1.25*n.Steps {
			t.Fatalf("%s: MIDAS steps %v far worse than NoMaintain %v", ds, m.Steps, n.Steps)
		}
	}
	if sumM > sumN*1.05 {
		t.Fatalf("avg steps: MIDAS %v worse than NoMaintain %v", sumM/3, sumN/3)
	}
}

func TestFig11Shape(t *testing.T) {
	res := Fig11Thresholds(Tiny())
	if len(res.EpsilonRows) != 3 || len(res.KappaRows) != 4 {
		t.Fatalf("rows = %d/%d", len(res.EpsilonRows), len(res.KappaRows))
	}
	for _, row := range res.EpsilonRows {
		if row.PMT <= 0 || row.ScratchPMT <= 0 {
			t.Fatalf("missing timings: %+v", row)
		}
		// Headline: incremental maintenance beats the from-scratch
		// CATAPULT++ rebuild.
		if row.PMT >= row.ScratchPMT {
			t.Fatalf("eps=%v: MIDAS PMT %v not faster than scratch %v",
				row.Epsilon, row.PMT, row.ScratchPMT)
		}
	}
	for _, row := range res.KappaRows {
		if row.PMT <= 0 {
			t.Fatalf("missing PMT for kappa=%v", row.Kappa)
		}
	}
	for _, tbl := range res.Tables() {
		if tbl.String() == "" {
			t.Fatal("empty table")
		}
	}
}

func TestFig12Shape(t *testing.T) {
	res := Fig12IndexCost(Tiny())
	if len(res.SizeRows) != 3 || len(res.DeltaRows) != 3 {
		t.Fatalf("rows = %d/%d", len(res.SizeRows), len(res.DeltaRows))
	}
	// Construction cost grows with dataset size.
	if res.SizeRows[0].DBSize >= res.SizeRows[2].DBSize {
		t.Fatal("size sweep not increasing")
	}
	for _, row := range res.SizeRows {
		if row.FCTMine <= 0 || row.IndexBuild <= 0 {
			t.Fatalf("missing timings at |D|=%d", row.DBSize)
		}
	}
	// Headline: maintaining the FCT set is cheaper than remining. The
	// margin is structural at small Δ (cost scales with |Δ|, remining
	// with |D|); at Δ approaching |D| the two legitimately converge, so
	// assert on the smallest Δ row.
	first := res.DeltaRows[0]
	if first.FCTMaintain >= first.FCTRemine {
		t.Fatalf("FCT maintain %v not faster than remine %v at smallest Δ",
			first.FCTMaintain, first.FCTRemine)
	}
}

func TestFig13Shape(t *testing.T) {
	res := Fig13NoMaintain(Tiny())
	if len(res.Comparisons) != len(DefaultBatches()) {
		t.Fatalf("comparisons = %d", len(res.Comparisons))
	}
	// Aggregate headline: averaged over batches, MIDAS's MP must not
	// exceed NoMaintain's beyond one-query granularity (MP is measured
	// on a finite workload and is not one of the swap-guarded
	// quantities), and its guarded scov must not be lower at all.
	granularity := 100.0 / float64(Tiny().Queries)
	var mpM, mpN, scM, scN float64
	for _, c := range res.Comparisons {
		mpM += c.Outcomes[MIDAS].MP
		mpN += c.Outcomes[NoMaintain].MP
		scM += c.Outcomes[MIDAS].Quality.Scov
		scN += c.Outcomes[NoMaintain].Quality.Scov
	}
	k := float64(len(res.Comparisons))
	if mpM/k > mpN/k+granularity {
		t.Fatalf("avg MP: MIDAS %v > NoMaintain %v beyond granularity", mpM/k, mpN/k)
	}
	if scM < scN-1e-9 {
		t.Fatalf("avg scov: MIDAS %v < NoMaintain %v", scM, scN)
	}
	if res.Table().String() == "" {
		t.Fatal("empty table")
	}
}

func TestFig14Shape(t *testing.T) {
	res := Fig14BaselinesAIDS(Tiny())
	if res.Dataset != "AIDS-like" || len(res.Comparisons) == 0 {
		t.Fatal("bad result")
	}
	// Headline: on insertion batches (major modifications), MIDAS
	// maintenance is cheaper than CATAPULT from-scratch. Asserted on
	// kernel work, which a busy machine cannot flip; the table keeps
	// wall clock.
	for _, c := range res.Comparisons {
		m := c.Outcomes[MIDAS]
		cat := c.Outcomes[CATAPULT]
		if strings.HasPrefix(c.Batch, "+") && m.Work >= cat.Work {
			t.Fatalf("batch %s: MIDAS work %d not below CATAPULT's %d",
				c.Batch, m.Work, cat.Work)
		}
	}
	for _, tbl := range res.Tables() {
		if tbl.String() == "" {
			t.Fatal("empty table")
		}
	}
}

func TestFig16Shape(t *testing.T) {
	res := Fig16Scalability(Tiny())
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0].DBSize >= res.Rows[2].DBSize {
		t.Fatal("sweep not increasing")
	}
	for _, row := range res.Rows {
		if row.PMT <= 0 {
			t.Fatalf("missing PMT at |D|=%d", row.DBSize)
		}
		// Cluster maintenance must beat from-scratch regeneration, in
		// kernel work.
		if row.ClusterMaintainWork >= row.ClusterScratchWork {
			t.Fatalf("|D|=%d: cluster maintenance work %d not below scratch %d",
				row.DBSize, row.ClusterMaintainWork, row.ClusterScratchWork)
		}
	}
	if res.Table().String() == "" {
		t.Fatal("empty table")
	}
}

func TestExample11Shape(t *testing.T) {
	res := Example11Boronic(Tiny())
	if res.EdgeSteps <= 0 || res.EdgeQFT <= 0 {
		t.Fatal("edge mode missing")
	}
	// Pattern-at-a-time (refreshed) must use no more steps than
	// edge-at-a-time; against the stale set the guards are set-level
	// (coverage/diversity/cognitive load), not per-query, so allow a
	// small per-query tolerance at this toy scale.
	if res.FreshSteps > res.EdgeSteps {
		t.Fatalf("fresh steps %d > edge steps %d", res.FreshSteps, res.EdgeSteps)
	}
	if float64(res.FreshSteps) > 1.15*float64(res.StaleSteps) {
		t.Fatalf("fresh steps %d far worse than stale %d", res.FreshSteps, res.StaleSteps)
	}
	if res.Table().String() == "" {
		t.Fatal("empty table")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "T", Header: []string{"a", "bb"}}
	tbl.Add("1", "2")
	s := tbl.String()
	if !strings.Contains(s, "== T ==") || !strings.Contains(s, "bb") {
		t.Fatalf("table = %q", s)
	}
}

func TestScalePresets(t *testing.T) {
	for _, s := range []Scale{Tiny(), Small(), Default()} {
		if s.Base <= 0 || s.Gamma <= 0 || s.MinSize <= 0 || s.MaxSize < s.MinSize {
			t.Fatalf("bad preset: %+v", s)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{Header: []string{"a", "b"}}
	tbl.Add("1", "x,y")
	tbl.Add(`q"r`, "2")
	got := tbl.CSV()
	want := "a,b\n1,\"x,y\"\n\"q\"\"r\",2\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}
