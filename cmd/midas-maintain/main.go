// Command midas-maintain selects a canned pattern set over a graph
// database, applies a batch update, and maintains the set with the
// chosen strategy, printing the selected patterns and quality metrics
// before and after.
//
// Usage:
//
//	midas-maintain -db db.graphs -insert delta.graphs -gamma 30
//	midas-maintain -db db.graphs -delete 5,17,230 -strategy random
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/store"
	"github.com/midas-graph/midas/internal/vfs"
)

func main() {
	var (
		dbPath    = flag.String("db", "", "database file (text format), required")
		insPath   = flag.String("insert", "", "Δ+ file of graphs to insert")
		delList   = flag.String("delete", "", "Δ- comma-separated graph IDs to delete")
		gamma     = flag.Int("gamma", 30, "number of displayed patterns γ")
		minSize   = flag.Int("min", 3, "minimum pattern size η_min")
		maxSize   = flag.Int("max", 12, "maximum pattern size η_max")
		supMin    = flag.Float64("supmin", 0.5, "FCT support threshold")
		epsilon   = flag.Float64("epsilon", 0.01, "evolution ratio threshold ε (calibrate to your data's graphlet drift)")
		kappa     = flag.Float64("kappa", 0.1, "swapping threshold κ (λ is set equal)")
		seed      = flag.Int64("seed", 1, "random seed")
		sample    = flag.Int("sample", 200, "scov sample size (0 = exact)")
		strategy  = flag.String("strategy", "multiscan", "swap strategy: multiscan | random")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "maintenance kernel fan-out width (0 = sequential reference path); results are identical at every setting")
		dump      = flag.Bool("patterns", false, "print the maintained pattern set in text format")
		statePath = flag.String("state", "", "restore engine state from this bundle instead of bootstrapping (engine options come from the bundle; of the engine flags only -workers applies)")
		savePath  = flag.String("save", "", "write the engine state bundle here before exiting")
	)
	flag.Parse()
	if *dbPath == "" && *statePath == "" {
		fatal("one of -db or -state is required")
	}

	opts := midas.Options{
		Budget:     midas.Budget{MinSize: *minSize, MaxSize: *maxSize, Count: *gamma},
		SupMin:     *supMin,
		Epsilon:    *epsilon,
		Kappa:      *kappa,
		Lambda:     *kappa,
		Seed:       *seed,
		SampleSize: *sample,
		Strategy:   midas.Strategy(*strategy),
		Workers:    *workers,
	}

	var eng *midas.Engine
	if *statePath != "" {
		// Salvage-mode restore: an interrupted save rolls forward or
		// back to the nearest valid generation; damage is quarantined
		// as *.corrupt instead of wedging the tool.
		data, rep, err := store.LoadBundle(vfs.OS, *statePath, midas.VerifyState)
		for _, q := range rep.Quarantined {
			fmt.Fprintf(os.Stderr, "midas-maintain: state salvage: quarantined %s\n", q)
		}
		if rep.RolledForward {
			fmt.Fprintf(os.Stderr, "midas-maintain: state salvage: rolled %s forward to its completed in-flight save\n", *statePath)
		}
		if rep.RolledBack {
			fmt.Fprintf(os.Stderr, "midas-maintain: state salvage: rolled %s back to its previous generation\n", *statePath)
		}
		if err != nil {
			fatal(err.Error())
		}
		// Engine options come from the bundle header; only the
		// wall-clock knob comes from the command line.
		eng, err = midas.LoadState(bytes.NewReader(data), *workers)
		if err != nil {
			fatal(err.Error())
		}
		fmt.Printf("restored %d graphs, %d patterns in %v\n",
			eng.DB().Len(), len(eng.Patterns()), eng.BootstrapTime().Round(timeUnit))
	} else {
		db := readDB(*dbPath)
		fmt.Printf("bootstrapping over %d graphs...\n", db.Len())
		eng = midas.New(db, opts)
		fmt.Printf("selected %d patterns in %v\n", len(eng.Patterns()), eng.BootstrapTime().Round(timeUnit))
	}
	printQuality("initial", eng.Quality())

	u := buildUpdate(eng, *insPath, *delList)
	if len(u.Insert) == 0 && len(u.Delete) == 0 {
		if *dump {
			_ = graph.Write(os.Stdout, eng.Patterns())
		}
		saveIfAsked(eng, *savePath)
		return
	}

	// Ctrl-C / SIGTERM cancels the maintenance batch cleanly: the
	// engine's transactional Maintain rolls back to the pre-batch
	// snapshot instead of dying mid-pipeline.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	rep, err := eng.MaintainContext(ctx, u)
	if err != nil {
		fatal(err.Error())
	}
	fmt.Printf("\nmaintenance: Δ+=%d Δ-=%d graphlet-dist=%.4f major=%v\n",
		len(u.Insert), len(u.Delete), rep.GraphletDistance, rep.Major)
	fmt.Printf("PMT=%v PGT=%v swaps=%d candidates=%d scans=%d\n",
		rep.PMT.Round(timeUnit), rep.PGT.Round(timeUnit),
		rep.Swaps, rep.Candidates, rep.Scans)
	fmt.Printf("stages:")
	for _, st := range rep.Stages() {
		fmt.Printf(" %s=%v", st.Name, st.Duration.Round(timeUnit))
	}
	fmt.Printf("\nkernels: vf2-steps=%d mccs-steps=%d ged-nodes=%d\n",
		rep.VF2Steps, rep.MCCSSteps, rep.GEDNodes)
	printQuality("maintained", eng.Quality())

	if *dump {
		_ = graph.Write(os.Stdout, eng.Patterns())
	}
	saveIfAsked(eng, *savePath)
}

func saveIfAsked(eng *midas.Engine, path string) {
	if path == "" {
		return
	}
	// Generational save: a crash mid-save leaves a valid generation
	// behind (the previous bundle is kept as *.prev until the new one
	// is durable), and the next restore rolls to the nearest one.
	err := store.SaveBundle(vfs.OS, path, func(w io.Writer) error {
		return midas.SaveState(w, eng)
	})
	if err != nil {
		fatal(err.Error())
	}
	fmt.Fprintf(os.Stderr, "state saved to %s\n", path)
}

const timeUnit = 1000 * 1000 // microsecond rounding

func readDB(path string) *graph.Database {
	db, err := graph.ReadDatabaseFile(path)
	if err != nil {
		fatal(err.Error())
	}
	return db
}

func buildUpdate(eng *midas.Engine, insPath, delList string) graph.Update {
	var u graph.Update
	if insPath != "" {
		f, err := os.Open(insPath)
		if err != nil {
			fatal(err.Error())
		}
		ins, err := graph.Read(f)
		f.Close()
		if err != nil {
			fatal(err.Error())
		}
		// Remap colliding IDs past the current range.
		next := eng.DB().NextID()
		for _, g := range ins {
			if eng.DB().Has(g.ID) {
				g.ID = next
				next++
			}
		}
		u.Insert = ins
	}
	if delList != "" {
		for _, tok := range strings.Split(delList, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				fatal("bad -delete id: " + tok)
			}
			u.Delete = append(u.Delete, id)
		}
	}
	return u
}

func printQuality(label string, q midas.Quality) {
	fmt.Printf("%s quality: scov=%.3f lcov=%.3f div=%.2f cog=%.2f score=%.4f\n",
		label, q.Scov, q.Lcov, q.Div, q.Cog, q.Score())
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "midas-maintain:", msg)
	os.Exit(1)
}
