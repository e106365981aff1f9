package panel

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/snapshot"
)

func testServer(t *testing.T) (*Server, *midas.Engine) {
	t.Helper()
	return testServerWith(t, snapshot.Config{})
}

// testServerWith routes a Server over a freshly bootstrapped engine and
// a started pipeline configured by cfg — the plumbing tenant.Shard owns
// in production. The pipeline is stopped at cleanup.
func testServerWith(t *testing.T, cfg snapshot.Config) (*Server, *midas.Engine) {
	t.Helper()
	db := dataset.EMolLike().GenerateDB(20, 3)
	opts := midas.Options{
		Budget:  midas.Budget{MinSize: 2, MaxSize: 4, Count: 5},
		SupMin:  0.4,
		Epsilon: 0.02,
		Walks:   30,
		Seed:    1,
	}
	eng := midas.New(db, opts)
	handle := snapshot.NewHandle()
	cfg.RenderSVG = func(g *graph.Graph) string { return SVG(g, 120) }
	pipe := snapshot.NewPipeline(eng, handle, cfg)
	handle.Publish(snapshot.Build(eng, snapshot.BuildOptions{RenderSVG: cfg.RenderSVG}))
	pipe.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		pipe.Stop(ctx)
	})
	return New(pipe), eng
}

func TestPatternsEndpoint(t *testing.T) {
	s, eng := testServer(t)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/patterns?svg=1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var out []patternJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(eng.Patterns()) {
		t.Fatalf("patterns = %d, want %d", len(out), len(eng.Patterns()))
	}
	for _, p := range out {
		if len(p.Vertices) == 0 || p.Size == 0 {
			t.Fatalf("degenerate pattern payload: %+v", p)
		}
		if !strings.HasPrefix(p.SVG, "<svg") {
			t.Fatal("svg missing when requested")
		}
	}
}

func TestPatternsMethodNotAllowed(t *testing.T) {
	s, _ := testServer(t)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/patterns", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", rec.Code)
	}
}

func TestQualityEndpoint(t *testing.T) {
	s, _ := testServer(t)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/quality", nil))
	var out map[string]float64
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"scov", "lcov", "div", "cog", "score"} {
		if _, ok := out[k]; !ok {
			t.Fatalf("quality payload missing %q: %v", k, out)
		}
	}
}

func TestMaintainEndpoint(t *testing.T) {
	s, eng := testServer(t)
	before := eng.DB().Len()
	ins := dataset.BoronicEsters().Generate(6, 0, 9) // colliding IDs on purpose
	body := graph.Marshal(ins)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/maintain", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body=%s", rec.Code, rec.Body.String())
	}
	var out map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out["inserted"].(float64) != 6 {
		t.Fatalf("inserted = %v", out["inserted"])
	}
	if eng.DB().Len() != before+6 {
		t.Fatalf("db len = %d, want %d", eng.DB().Len(), before+6)
	}
}

func TestMaintainDelete(t *testing.T) {
	s, eng := testServer(t)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/maintain?delete=0,1", strings.NewReader("")))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body=%s", rec.Code, rec.Body.String())
	}
	if eng.DB().Has(0) || eng.DB().Has(1) {
		t.Fatal("graphs not deleted")
	}
}

func TestMaintainBadBody(t *testing.T) {
	s, _ := testServer(t)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/maintain", strings.NewReader("not graphs")))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	rec2 := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec2, httptest.NewRequest(http.MethodPost, "/maintain?delete=x", strings.NewReader("")))
	if rec2.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec2.Code)
	}
}

func TestQueryEndpoint(t *testing.T) {
	s, _ := testServer(t)
	q := graph.Marshal([]*graph.Graph{graph.Path(0, "C", "C")})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(q)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body=%s", rec.Code, rec.Body.String())
	}
	var out struct {
		Matches    []int `json:"matches"`
		Candidates int   `json:"candidates"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Matches) == 0 {
		t.Fatal("C-C should match some molecules")
	}
}

func TestQueryRejectsMultipleGraphs(t *testing.T) {
	s, _ := testServer(t)
	q := graph.Marshal([]*graph.Graph{graph.Path(0, "C", "C"), graph.Path(1, "C", "O")})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(q)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
}

func TestIndexPage(t *testing.T) {
	s, _ := testServer(t)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "<svg") || !strings.Contains(body, "Canned patterns") {
		t.Fatal("index page missing panel content")
	}
	rec2 := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/nope", nil))
	if rec2.Code != http.StatusNotFound {
		t.Fatalf("unknown path status = %d", rec2.Code)
	}
}

func TestSVGRendering(t *testing.T) {
	g := graph.Cycle(0, "C", "O", "N")
	svg := SVG(g, 100)
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>") {
		t.Fatal("malformed svg")
	}
	if strings.Count(svg, "<circle") != 3 || strings.Count(svg, "<line") != 3 {
		t.Fatalf("svg should have 3 nodes and 3 edges: %s", svg)
	}
	empty := SVG(graph.New(1), 50)
	if !strings.HasPrefix(empty, "<svg") {
		t.Fatal("empty graph svg broken")
	}
	single := graph.New(2)
	single.AddVertex("C")
	if !strings.Contains(SVG(single, 50), "<circle") {
		t.Fatal("single vertex not rendered")
	}
}

func TestSVGEscapesLabels(t *testing.T) {
	g := graph.New(0)
	g.AddVertex("<&>")
	svg := SVG(g, 50)
	if strings.Contains(svg, "<&>") {
		t.Fatal("label not escaped")
	}
	if !strings.Contains(svg, "&lt;&amp;&gt;") {
		t.Fatalf("escaped label missing: %s", svg)
	}
}
