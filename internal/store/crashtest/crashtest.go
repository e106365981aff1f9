// Package crashtest is the crash-consistency model checker for the
// durability layer. A Workload describes a unit of durable work as a
// Prepare function (the pre-crash on-disk state), a sequence of Steps
// (each one an atomic commit point), and a Recover function (the
// production recovery path plus a canonical fingerprint of the logical
// recovered state).
//
// Sweep records the workload's full operation trace on a simulated
// filesystem (internal/vfs), then for every crash point k replays the
// first k operations into a fresh simulator — with and without lost
// un-synced data, and for final writes at every torn length — runs
// recovery, and checks the invariant: the recovered logical state must
// equal the state at one of the workload's commit points (complete
// pre-crash state, complete post-crash state, or a step boundary in
// between), recovery must not error (no manual repair), and running
// recovery a second time must not change the outcome (idempotence).
//
// Fingerprints must capture logical state only — bundle content,
// replication-log positions, spool listings — never incidental artifacts such
// as .prev/.tmp/.corrupt files, whose presence legitimately varies with
// the crash point.
package crashtest

import (
	"fmt"
	"strings"

	"github.com/midas-graph/midas/internal/vfs"
)

// Step is one atomic commit point of a workload.
type Step func(fsys vfs.FS) error

// Workload is one durable-work scenario swept by the model checker.
type Workload struct {
	Name string
	// Prepare sets up the durable pre-crash state.
	Prepare func(fsys vfs.FS) error
	// Steps run the workload whose operation trace is swept. Each step
	// is an atomic commit point: crash recovery may land on any step
	// boundary, but never between two.
	Steps []Step
	// Recover runs crash recovery against the (possibly torn)
	// filesystem and returns a canonical fingerprint of the logical
	// recovered state. A returned error means manual repair would be
	// needed — always a violation.
	Recover func(fsys vfs.FS) (string, error)
}

// Options bounds the sweep for -short runs. Zero values mean full
// enumeration.
type Options struct {
	// MaxCrashPoints caps the crash points sampled per workload
	// (always including 0 and the full trace).
	MaxCrashPoints int
	// MaxTearLengths caps the torn-write lengths tried per final
	// write (always including 0 and len-1).
	MaxTearLengths int
}

// Violation is one crash scenario whose recovery broke the invariant.
type Violation struct {
	Workload    string
	CrashPoint  int
	Plan        vfs.CrashPlan
	Fingerprint string
	Err         error
	Allowed     []string
}

func (v Violation) String() string {
	plan := "friendly"
	if v.Plan.LoseUnsynced {
		plan = "lossy"
	}
	if v.Plan.TearFinalWrite >= 0 {
		plan += fmt.Sprintf("+tear@%d", v.Plan.TearFinalWrite)
	}
	if v.Err != nil {
		return fmt.Sprintf("%s: crash at op %d (%s): recovery needs manual repair: %v",
			v.Workload, v.CrashPoint, plan, v.Err)
	}
	return fmt.Sprintf("%s: crash at op %d (%s): recovered hybrid state %q; allowed: %s",
		v.Workload, v.CrashPoint, plan, v.Fingerprint, strings.Join(v.Allowed, " | "))
}

// Result summarises one sweep.
type Result struct {
	// Cases is the number of (crash point, crash plan) scenarios run.
	Cases int
	// CrashPoints is the number of distinct trace prefixes swept.
	CrashPoints int
	// Violations holds every scenario that broke the invariant.
	Violations []Violation
}

// Sweep model-checks one workload. The returned error reports harness
// failures (Prepare or a Step failing on an un-crashed filesystem);
// invariant violations are collected in the Result.
func Sweep(w Workload, opt Options) (Result, error) {
	var res Result

	base := vfs.NewSim()
	if err := w.Prepare(base); err != nil {
		return res, fmt.Errorf("%s: prepare: %w", w.Name, err)
	}
	base.SetDurable()

	// The allowed fingerprints: the recovered logical state at every
	// step boundary, from untouched (pre) to fully done (post).
	allowedSet := make(map[string]bool)
	var allowed []string
	cur := base.Clone()
	for i := 0; ; i++ {
		fp, err := w.Recover(cur.Clone())
		if err != nil {
			return res, fmt.Errorf("%s: recover at step boundary %d: %w", w.Name, i, err)
		}
		if !allowedSet[fp] {
			allowedSet[fp] = true
			allowed = append(allowed, fp)
		}
		if i == len(w.Steps) {
			break
		}
		if err := w.Steps[i](cur); err != nil {
			return res, fmt.Errorf("%s: step %d: %w", w.Name, i, err)
		}
	}

	// Record the workload's operation trace.
	work := base.Clone()
	for i, step := range w.Steps {
		if err := step(work); err != nil {
			return res, fmt.Errorf("%s: step %d (traced): %w", w.Name, i, err)
		}
	}
	trace := work.Trace()

	for _, k := range samplePoints(len(trace), opt.MaxCrashPoints) {
		res.CrashPoints++
		prefix := trace[:k]
		plans := []vfs.CrashPlan{
			{LoseUnsynced: false, TearFinalWrite: -1},
			{LoseUnsynced: true, TearFinalWrite: -1},
		}
		if k > 0 && prefix[k-1].Kind == vfs.OpWrite && len(prefix[k-1].Data) > 0 {
			for _, n := range tearLengths(len(prefix[k-1].Data), opt.MaxTearLengths) {
				plans = append(plans,
					vfs.CrashPlan{LoseUnsynced: false, TearFinalWrite: n},
					vfs.CrashPlan{LoseUnsynced: true, TearFinalWrite: n})
			}
		}
		for _, plan := range plans {
			res.Cases++
			sim := base.Clone()
			sim.ReplayCrash(prefix, plan)
			fp, err := w.Recover(sim)
			if err != nil {
				res.Violations = append(res.Violations, Violation{
					Workload: w.Name, CrashPoint: k, Plan: plan, Err: err, Allowed: allowed})
				continue
			}
			if !allowedSet[fp] {
				res.Violations = append(res.Violations, Violation{
					Workload: w.Name, CrashPoint: k, Plan: plan, Fingerprint: fp, Allowed: allowed})
				continue
			}
			// Recovery must be a fixpoint: running it again on the
			// recovered filesystem must land on the same state.
			fp2, err2 := w.Recover(sim)
			if err2 != nil || fp2 != fp {
				res.Violations = append(res.Violations, Violation{
					Workload: w.Name, CrashPoint: k, Plan: plan,
					Fingerprint: fmt.Sprintf("not idempotent: %q then %q", fp, fp2),
					Err:         err2, Allowed: allowed})
			}
		}
	}
	return res, nil
}

// samplePoints returns the crash points to sweep: every 0..n when max
// is zero, else an evenly-strided sample that always includes 0 and n.
func samplePoints(n, max int) []int {
	if max <= 0 || n+1 <= max {
		out := make([]int, n+1)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := []int{0}
	for i := 1; i < max-1; i++ {
		out = append(out, i*n/(max-1))
	}
	out = append(out, n)
	// De-duplicate (integer stride can repeat for small n).
	uniq := out[:1]
	for _, k := range out[1:] {
		if k != uniq[len(uniq)-1] {
			uniq = append(uniq, k)
		}
	}
	return uniq
}

// tearLengths returns the torn-write lengths to try for a final write
// of n bytes: every 0..n-1 when max is zero, else a sample including
// the empty and almost-complete tears.
func tearLengths(n, max int) []int {
	if max <= 0 || n <= max {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := []int{0}
	for i := 1; i < max-1; i++ {
		out = append(out, i*(n-1)/(max-1))
	}
	out = append(out, n-1)
	uniq := out[:1]
	for _, k := range out[1:] {
		if k != uniq[len(uniq)-1] {
			uniq = append(uniq, k)
		}
	}
	return uniq
}
