package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"github.com/midas-graph/midas/internal/vfs"
)

// writeSim seeds a file on a simulated filesystem and makes it durable.
func writeSim(t *testing.T, sim *vfs.Sim, path, content string) {
	t.Helper()
	f, err := sim.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(f, content); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sim.SetDurable()
}

// TestSimFailAtReplacesFileFailpoints demonstrates the VFS failure
// schedule that supersedes ad-hoc file failpoints: arm the simulated
// filesystem to fail at each mutating op of a bundle save and check the
// previous generation always survives — the same guarantee the old
// error-injection style asserted, but exhaustively over the op trace.
func TestSimFailAtReplacesFileFailpoints(t *testing.T) {
	seed := func() *vfs.Sim {
		sim := vfs.NewSim()
		if err := SaveBundle(sim, "bundle", func(w io.Writer) error {
			_, err := io.WriteString(w, "v1")
			return err
		}); err != nil {
			t.Fatal(err)
		}
		sim.SetDurable()
		sim.ResetTrace()
		return sim
	}
	// Count the ops of an unimpeded save.
	probe := seed()
	if err := SaveBundle(probe, "bundle", func(w io.Writer) error {
		_, err := io.WriteString(w, "v2")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	ops := probe.Ops()
	if ops == 0 {
		t.Fatal("save produced no ops to fail")
	}

	for k := 0; k < ops; k++ {
		sim := seed()
		sim.FailAt(k, fmt.Errorf("injected fault at op %d", k))
		err := SaveBundle(sim, "bundle", func(w io.Writer) error {
			_, err := io.WriteString(w, "v2")
			return err
		})
		if err == nil {
			t.Fatalf("op %d: injected fault not surfaced", k)
		}
		data, _, err := LoadBundle(sim, "bundle", func([]byte) error { return nil })
		if err != nil {
			t.Fatalf("op %d: recovery failed: %v", k, err)
		}
		if got := string(data); got != "v1" && got != "v2" {
			t.Fatalf("op %d: hybrid bundle %q", k, got)
		}
	}
}

// TestLoadBundleWrapsErrCorruptWithPath pins the error contract: when
// every generation is damaged the error names the bundle path and
// unwraps to ErrCorrupt.
func TestLoadBundleWrapsErrCorruptWithPath(t *testing.T) {
	sim := vfs.NewSim()
	writeSim(t, sim, "d-bundle", "garbage")
	bad := errors.New("checksum mismatch")
	_, rep, err := LoadBundle(sim, "d-bundle", func([]byte) error { return bad })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "d-bundle") {
		t.Fatalf("error does not name the offending path: %v", err)
	}
	if len(rep.Quarantined) == 0 {
		t.Fatal("damaged bundle not quarantined")
	}
	if _, err := sim.ReadFile("d-bundle" + corruptSuffix); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
}
