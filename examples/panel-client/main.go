// Panel-client demonstrates the HTTP deployment path end to end: it
// starts the pattern-panel service in-process, then acts as a GUI front
// end — fetching patterns as JSON, posting a batch update, executing a
// subgraph query, and reading the refreshed panel.
//
//	go run ./examples/panel-client
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"

	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/tenant"
)

func main() {
	// Server side: bootstrap an engine in an in-memory serving stack
	// and expose it over HTTP.
	db := dataset.PubChemLike().GenerateDB(80, 17)
	sh, err := tenant.OpenShard("", tenant.Paths{}, tenant.Options{
		Engine: midas.Options{
			Budget:  midas.Budget{MinSize: 3, MaxSize: 6, Count: 8},
			SupMin:  0.4,
			Epsilon: 0.02,
			Seed:    4,
		},
		NewEngine: func(_ string, opts midas.Options) (*midas.Engine, bool, error) {
			return midas.New(db, opts), false, nil
		},
	})
	must(err)
	defer sh.Drain(context.Background())
	srv := httptest.NewServer(sh.Handler())
	defer srv.Close()
	fmt.Println("panel service listening on", srv.URL)

	// Client side: fetch the current panel.
	var patterns []struct {
		ID   int `json:"id"`
		Size int `json:"size"`
	}
	getJSON(srv.URL+"/patterns", &patterns)
	fmt.Printf("panel shows %d patterns:", len(patterns))
	for _, p := range patterns {
		fmt.Printf(" #%d(%de)", p.ID, p.Size)
	}
	fmt.Println()

	// Post a batch update: 30 boronic esters arrive.
	ins := dataset.BoronicEsters().Generate(30, 10000, 18)
	resp, err := http.Post(srv.URL+"/maintain", "text/plain",
		strings.NewReader(graph.Marshal(ins)))
	must(err)
	var rep map[string]interface{}
	decode(resp, &rep)
	fmt.Printf("maintenance: major=%v swaps=%v pmt=%vms\n",
		rep["major"], rep["swaps"], rep["pmtMillis"])

	// Execute a subgraph query against the evolved database.
	q := graph.Marshal([]*graph.Graph{graph.Path(0, "B", "O", "C")})
	resp, err = http.Post(srv.URL+"/query?limit=5", "text/plain", strings.NewReader(q))
	must(err)
	var qres struct {
		Matches    []int `json:"matches"`
		Candidates int   `json:"candidates"`
		Pruned     int   `json:"pruned"`
	}
	decode(resp, &qres)
	fmt.Printf("query B-O-C: %d matches (index pruned %d of %d checks)\n",
		len(qres.Matches), qres.Pruned, qres.Pruned+qres.Candidates)

	// Quality after maintenance.
	var quality map[string]float64
	getJSON(srv.URL+"/quality", &quality)
	fmt.Printf("panel quality: scov=%.3f lcov=%.3f div=%.2f cog=%.2f\n",
		quality["scov"], quality["lcov"], quality["div"], quality["cog"])
}

func getJSON(url string, v interface{}) {
	resp, err := http.Get(url)
	must(err)
	decode(resp, v)
}

func decode(resp *http.Response, v interface{}) {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	must(err)
	if resp.StatusCode != http.StatusOK {
		panic(fmt.Sprintf("HTTP %d: %s", resp.StatusCode, body))
	}
	must(json.Unmarshal(body, v))
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
