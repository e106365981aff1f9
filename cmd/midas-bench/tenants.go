package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/experiments"
	"github.com/midas-graph/midas/internal/snapshot"
	"github.com/midas-graph/midas/internal/tenant"
)

// The -tenants mode measures what shard isolation buys: read latency
// on idle tenants while a sibling grinds through a forced major batch
// on the shared worker budget. All shards serve through one Router —
// the measured path includes routing, snapshot loads and JSON
// encoding, exactly what a tenant's GUI sees. The headline number is
// the worst victim p99 ratio (during / idle) across the tenants that
// were NOT maintained; the single-tenant PR 6 snapshot baseline runs
// alongside for comparison.

type tenantLatency struct {
	Tenant         string       `json:"tenant"`
	Maintained     bool         `json:"maintained"`
	Idle           latencyStats `json:"idle"`
	DuringMaintain latencyStats `json:"duringMaintain"`
	P99Ratio       float64      `json:"p99Ratio"`
}

type tenantsBenchResults struct {
	Schema               string          `json:"schema"`
	Scale                string          `json:"scale"`
	Seed                 int64           `json:"seed"`
	Tenants              int             `json:"tenants"`
	ReadersPerTenant     int             `json:"readersPerTenant"`
	WindowSeconds        float64         `json:"windowSeconds"`
	GoMaxProcs           int             `json:"gomaxprocs"`
	BudgetWorkers        int             `json:"budgetWorkers"`
	MaintainedTenant     string          `json:"maintainedTenant"`
	MaintainSeconds      float64         `json:"maintainSeconds"`
	Major                bool            `json:"major"`
	Swaps                int             `json:"swaps"`
	WorstVictimP99Ratio  float64         `json:"worstVictimP99Ratio"`
	PerTenant            []tenantLatency `json:"perTenant"`
	SingleTenantBaseline sustainedMode   `json:"singleTenantBaseline"`
}

// runTenantsBench boots n in-memory tenant shards (distinct datasets
// via per-tenant seeds) behind one Router sharing one worker budget,
// samples per-tenant read latency idle and during a forced major batch
// on tenant t0, and writes the comparison to outPath.
func runTenantsBench(s experiments.Scale, scaleName, outPath string, n, readers int, window time.Duration) error {
	if n < 2 {
		return fmt.Errorf("-tenants %d: need at least 2 tenants to measure isolation", n)
	}
	budget := tenant.NewBudget(runtime.GOMAXPROCS(0))
	reg := tenant.NewRegistry(tenant.Options{
		Engine: midas.Options{
			Budget:         midas.Budget{MinSize: s.MinSize, MaxSize: s.MaxSize, Count: s.Gamma},
			SupMin:         0.4,
			Epsilon:        0.02,
			Walks:          s.Walks,
			SampleSize:     s.SampleSize,
			ClusterMaxSize: s.ClusterMaxSize,
			Seed:           s.Seed,
			Workers:        budget.Capacity(),
		},
		Budget: budget,
		NewEngine: func(id string, opts midas.Options) (*midas.Engine, bool, error) {
			idx, _ := strconv.Atoi(strings.TrimPrefix(id, "t"))
			opts.Seed = s.Seed + int64(idx)
			db := dataset.EMolLike().GenerateDB(s.Base, opts.Seed)
			return midas.New(db, opts), false, nil
		},
	})
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("t%d", i)
		if _, err := reg.Add(ids[i], tenant.Overrides{}); err != nil {
			return fmt.Errorf("tenant %s: %w", ids[i], err)
		}
	}
	rt := tenant.NewRouter(reg, nil, nil)

	readTenant := func(id string) func() {
		path := "/t/" + id + "/patterns"
		return func() {
			w := httptest.NewRecorder()
			rt.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
			if w.Code != http.StatusOK {
				panic(fmt.Sprintf("read %s = %d: %s", path, w.Code, w.Body.String()))
			}
			sink(w.Body.Len())
		}
	}

	// samplePhase hammers every tenant concurrently — the realistic
	// mixed fleet — and returns per-tenant latency samples. With stop
	// nil each tenant samples for window.
	samplePhase := func(stop <-chan struct{}) [][]time.Duration {
		out := make([][]time.Duration, n)
		var wg sync.WaitGroup
		for i, id := range ids {
			wg.Add(1)
			go func(i int, id string) {
				defer wg.Done()
				out[i] = sampleWindow(readers, window, stop, readTenant(id))
			}(i, id)
		}
		wg.Wait()
		return out
	}

	fmt.Printf("tenants: sampling %d tenant(s) idle for %v (%d readers each)...\n", n, window, readers)
	idle := samplePhase(nil)

	// Force the major batch on t0 through its own pipeline (the same
	// submission path POST /maintain uses) and sample the fleet while
	// it runs.
	u := majorBatch(s)
	sh, _ := reg.Get(ids[0])
	stop := make(chan struct{})
	var (
		rep   midas.MaintenanceReport
		mErr  error
		mTook time.Duration
	)
	go func() {
		defer close(stop)
		t0 := time.Now()
		tkt, err := sh.Server().Pipeline().Submit(snapshot.Batch{Name: "tenants-major", Update: u})
		if err != nil {
			mErr = err
			return
		}
		res := <-tkt.Done
		rep, mErr = res.Report, res.Err
		mTook = time.Since(t0)
	}()
	fmt.Printf("tenants: forced major batch on %s; sampling during maintenance...\n", ids[0])
	during := samplePhase(stop)
	if mErr != nil {
		return fmt.Errorf("maintain %s: %w", ids[0], mErr)
	}

	res := tenantsBenchResults{
		Schema:           "midas-bench-tenants/1",
		Scale:            scaleName,
		Seed:             s.Seed,
		Tenants:          n,
		ReadersPerTenant: readers,
		WindowSeconds:    window.Seconds(),
		GoMaxProcs:       runtime.GOMAXPROCS(0),
		BudgetWorkers:    budget.Capacity(),
		MaintainedTenant: ids[0],
		MaintainSeconds:  mTook.Seconds(),
		Major:            rep.Major,
		Swaps:            rep.Swaps,
	}
	for i, id := range ids {
		tl := tenantLatency{
			Tenant:         id,
			Maintained:     i == 0,
			Idle:           summarize(idle[i], window),
			DuringMaintain: summarize(during[i], mTook),
		}
		if tl.Idle.P99Micros > 0 {
			tl.P99Ratio = tl.DuringMaintain.P99Micros / tl.Idle.P99Micros
		}
		if i > 0 && tl.P99Ratio > res.WorstVictimP99Ratio {
			res.WorstVictimP99Ratio = tl.P99Ratio
		}
		res.PerTenant = append(res.PerTenant, tl)
		fmt.Printf("%-4s idle: p50=%.1fµs p99=%.1fµs qps=%.0f | during %.2fs maintain on %s: p50=%.1fµs p99=%.1fµs qps=%.0f | p99 ratio %.2fx%s\n",
			id, tl.Idle.P50Micros, tl.Idle.P99Micros, tl.Idle.QPS,
			mTook.Seconds(), ids[0],
			tl.DuringMaintain.P50Micros, tl.DuringMaintain.P99Micros, tl.DuringMaintain.QPS,
			tl.P99Ratio, map[bool]string{true: " (maintained)", false: ""}[i == 0])
	}
	verdict := "PASS"
	if res.WorstVictimP99Ratio > 1.5 {
		verdict = "FAIL"
	}
	fmt.Printf("tenants: worst victim p99 ratio %.2fx (acceptance ≤ 1.50x): %s\n", res.WorstVictimP99Ratio, verdict)

	// PR 6 single-tenant snapshot baseline, same scale and readers, for
	// side-by-side comparison in the artifact.
	fmt.Printf("tenants: running single-tenant snapshot baseline...\n")
	base, err := runSustainedMode("snapshot", s, readers, window)
	if err != nil {
		return err
	}
	res.SingleTenantBaseline = base

	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return err
	}
	fmt.Printf("tenant isolation results written to %s\n", outPath)
	return nil
}
