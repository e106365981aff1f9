package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/telemetry"
)

func TestMaintainTelemetryRecordsSuccess(t *testing.T) {
	e := NewEngine(testDB(8, 8), testConfig())
	reg := telemetry.NewRegistry()
	e.SetTelemetry(reg)

	rep, err := e.Maintain(graph.Update{Insert: boronDelta(6, 100)})
	if err != nil {
		t.Fatal(err)
	}

	if e.tel.outcomes.With("ok").Value() != 1 {
		t.Fatalf(`outcome{ok} = %d, want 1`, e.tel.outcomes.With("ok").Value())
	}
	if got := e.tel.total.Count(); got != 1 {
		t.Fatalf("midas_maintain_seconds count = %d, want 1", got)
	}
	for _, st := range rep.Stages() {
		if got := e.tel.stage.With(st.Name).Count(); got != 1 {
			t.Fatalf("stage %q histogram count = %d, want 1", st.Name, got)
		}
	}
	if got := e.tel.patterns.Value(); got != float64(len(e.patterns)) {
		t.Fatalf("midas_patterns = %v, want %d", got, len(e.patterns))
	}
	if got := e.tel.graphs.Value(); got != float64(e.db.Len()) {
		t.Fatalf("midas_db_graphs = %v, want %d", got, e.db.Len())
	}
	if rep.VF2Steps == 0 {
		t.Fatal("VF2Steps delta not recorded")
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`midas_maintain_total{outcome="ok"} 1`,
		`midas_maintain_stage_seconds_count{stage="swap"} 1`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("scrape missing %q:\n%s", want, b.String())
		}
	}
}

func TestMaintainTelemetryRecordsFailure(t *testing.T) {
	e := NewEngine(testDB(8, 8), testConfig())
	reg := telemetry.NewRegistry()
	e.SetTelemetry(reg)
	graphsBefore := e.tel.graphs.Value()

	// Deleting an unknown ID is rejected before any mutation.
	if _, err := e.Maintain(graph.Update{Delete: []int{99999}}); err == nil {
		t.Fatal("expected invalid-update error")
	}
	if got := e.tel.outcomes.With("invalid").Value(); got != 1 {
		t.Fatalf(`outcome{invalid} = %d, want 1`, got)
	}
	if got := e.tel.total.Count(); got != 0 {
		t.Fatalf("failed Maintain observed a duration: count = %d", got)
	}
	if got := e.tel.graphs.Value(); got != graphsBefore {
		t.Fatalf("failed Maintain moved midas_db_graphs: %v -> %v", graphsBefore, got)
	}
}

func TestSetTelemetryNopDetaches(t *testing.T) {
	e := NewEngine(testDB(4, 4), testConfig())
	e.SetTelemetry(telemetry.Nop)
	if e.tel != nil {
		t.Fatal("Nop registry should leave the engine uninstrumented")
	}
	reg := telemetry.NewRegistry()
	e.SetTelemetry(reg)
	if e.tel == nil {
		t.Fatal("real registry should instrument the engine")
	}
	e.SetTelemetry(nil)
	if e.tel != nil {
		t.Fatal("nil should detach")
	}
	// Maintain still works detached.
	if _, err := e.Maintain(graph.Update{Insert: boronDelta(2, 50)}); err != nil {
		t.Fatal(err)
	}
}

func TestBootstrapStageTelemetry(t *testing.T) {
	stageNames := func(e *Engine) []string {
		var names []string
		var sum time.Duration
		for _, st := range e.bootstrap {
			names = append(names, st.Name)
			sum += st.Duration
		}
		if sum != e.BootstrapTime {
			t.Fatalf("stages sum to %v, BootstrapTime is %v", sum, e.BootstrapTime)
		}
		return names
	}

	e := NewEngine(testDB(8, 8), testConfig())
	want := []string{"mine", "cluster", "csg", "index", "graphlet", "metrics", "select", "small"}
	if got := stageNames(e); !reflect.DeepEqual(got, want) {
		t.Fatalf("bootstrap stages = %v, want %v", got, want)
	}
	reg := telemetry.NewRegistry()
	e.SetTelemetry(reg)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, name := range want {
		if want := `midas_bootstrap_stage_seconds{stage="` + name + `"}`; !strings.Contains(b.String(), want) {
			t.Fatalf("scrape missing %q:\n%s", want, b.String())
		}
	}

	// The restore rebuild runs no selection: its patterns come from the
	// bundle and are registered in the index stage.
	r := NewEngineWithPatterns(testDB(8, 8), testConfig(), e.Patterns())
	if got, want := stageNames(r), []string{"mine", "cluster", "csg", "index", "graphlet", "metrics"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("restore stages = %v, want %v", got, want)
	}

	// Without indices the index stage does not run.
	cfg := testConfig()
	cfg.UseClosedFeatures = true
	n := NewEngineWith(testDB(8, 8), cfg)
	if got, want := stageNames(n), []string{"mine", "cluster", "csg", "graphlet", "metrics", "select", "small"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("no-index stages = %v, want %v", got, want)
	}
}
