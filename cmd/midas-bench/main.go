// Command midas-bench runs the reproduction experiments of the paper's
// §7 performance study and prints the paper-style tables.
//
// Usage:
//
//	midas-bench                       # all figures at the small scale
//	midas-bench -fig 14 -scale default
//	midas-bench -fig 9,16 -scale small
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/midas-graph/midas/internal/experiments"
)

// jsonResults is the -json output document; the schema is documented
// in EXPERIMENTS.md ("midas-bench/1").
type jsonResults struct {
	Schema   string                   `json:"schema"`
	Scale    string                   `json:"scale"`
	Seed     int64                    `json:"seed"`
	Figures  []jsonFigure             `json:"figures"`
	Maintain []experiments.BatchTrace `json:"maintain"`
	Timings  map[string]float64       `json:"figureSeconds"`
}

// jsonFigure is one emitted table in machine-readable form.
type jsonFigure struct {
	Figure string     `json:"figure"`
	Index  int        `json:"index"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

func main() {
	var (
		figs     = flag.String("fig", "all", "comma-separated figures to run: 9,10,11,12,13,14,15,16,ex1,supmin,gamma,discover,robust or all")
		scale    = flag.String("scale", "small", "experiment scale: tiny | small | default")
		seed     = flag.Int64("seed", 0, "override the scale preset's random seed (0 = preset)")
		csvDir   = flag.String("csv", "", "also write each table as CSV into this directory")
		jsonPath = flag.String("json", "", `write machine-readable results (tables + per-batch maintenance trace) to this file ("-" = stdout)`)
	)
	flag.Parse()

	var s experiments.Scale
	switch *scale {
	case "tiny":
		s = experiments.Tiny()
	case "small":
		s = experiments.Small()
	case "default":
		s = experiments.Default()
	default:
		fmt.Fprintf(os.Stderr, "midas-bench: unknown scale %q\n", *scale)
		os.Exit(1)
	}

	if *seed != 0 {
		s.Seed = *seed
	}

	want := map[string]bool{}
	if *figs == "all" {
		for _, f := range []string{"9", "10", "11", "12", "13", "14", "15", "16", "ex1", "supmin", "gamma", "discover"} { // robust is opt-in: 3x slower
			want[f] = true
		}
	} else {
		for _, f := range strings.Split(*figs, ",") {
			want[strings.TrimSpace(f)] = true
		}
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "midas-bench: %v\n", err)
			os.Exit(1)
		}
	}
	results := jsonResults{
		Schema:  "midas-bench/1",
		Scale:   *scale,
		Seed:    s.Seed,
		Timings: map[string]float64{},
	}
	emit := func(name string, idx int, t *experiments.Table) {
		fmt.Print(t)
		if *jsonPath != "" {
			results.Figures = append(results.Figures, jsonFigure{
				Figure: name, Index: idx, Title: t.Title,
				Header: t.Header, Rows: t.Rows,
			})
		}
		if *csvDir == "" {
			return
		}
		path := fmt.Sprintf("%s/fig%s_%d.csv", *csvDir, name, idx)
		if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "midas-bench: %v\n", err)
		}
	}
	run := func(name string, fn func()) {
		if !want[name] {
			return
		}
		start := time.Now()
		fn()
		elapsed := time.Since(start)
		results.Timings[name] = elapsed.Seconds()
		fmt.Printf("(figure %s completed in %v)\n\n", name, elapsed.Round(time.Millisecond))
	}

	run("9", func() { emit("9", 0, experiments.Fig9UserStudy(s).Table()) })
	run("10", func() { emit("10", 0, experiments.Fig10UserQueries(s).Table()) })
	run("11", func() {
		for i, t := range experiments.Fig11Thresholds(s).Tables() {
			emit("11", i, t)
		}
	})
	run("12", func() {
		for i, t := range experiments.Fig12IndexCost(s).Tables() {
			emit("12", i, t)
		}
	})
	run("13", func() { emit("13", 0, experiments.Fig13NoMaintain(s).Table()) })
	run("14", func() {
		for i, t := range experiments.Fig14BaselinesAIDS(s).Tables() {
			emit("14", i, t)
		}
	})
	run("15", func() {
		for i, t := range experiments.Fig15BaselinesPubChem(s).Tables() {
			emit("15", i, t)
		}
	})
	run("16", func() { emit("16", 0, experiments.Fig16Scalability(s).Table()) })
	run("ex1", func() { emit("ex1", 0, experiments.Example11Boronic(s).Table()) })
	run("supmin", func() { emit("supmin", 0, experiments.SupMinSweep(s).Table()) })
	run("gamma", func() { emit("gamma", 0, experiments.GammaSweep(s).Table()) })
	run("discover", func() { emit("discover", 0, experiments.Discoverability(s).Table()) })
	run("robust", func() {
		emit("robust", 0, experiments.SeedRobustness(s, []int64{1, 2, 3}).Table())
	})

	if *jsonPath == "" {
		return
	}
	// The maintenance trace is the per-batch view the tables aggregate
	// away: stage breakdown, kernel work, and quality after each batch.
	start := time.Now()
	results.Maintain = experiments.MaintainTrace(s)
	results.Timings["maintain-trace"] = time.Since(start).Seconds()

	out := os.Stdout
	if *jsonPath != "-" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "midas-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintf(os.Stderr, "midas-bench: %v\n", err)
		os.Exit(1)
	}
	if *jsonPath != "-" {
		fmt.Printf("json results written to %s\n", *jsonPath)
	}
}
