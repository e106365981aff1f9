package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/replica"
)

// serveAsMain, when set in the environment, makes the test binary run
// as midas-serve itself: the smoke test re-executes it with server
// flags, so the process under test is the real main.
const serveAsMain = "MIDAS_SERVE_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(serveAsMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// serveProc is one midas-serve process started from the test binary.
type serveProc struct {
	cmd  *exec.Cmd
	base string
	log  string
}

// startServe launches midas-serve with args on a free local port and
// waits until /readyz answers 200.
func startServe(t *testing.T, dir string, args ...string) *serveProc {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	logPath := filepath.Join(dir, fmt.Sprintf("serve-%d.log", time.Now().UnixNano()))
	logf, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close()
	cmd := exec.Command(os.Args[0], append(args, "-addr", addr)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), serveAsMain+"=1")
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &serveProc{cmd: cmd, base: "http://" + addr, log: logPath}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(p.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("midas-serve never became ready\n%s", p.logText())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (p *serveProc) logText() string {
	b, _ := os.ReadFile(p.log)
	return string(b)
}

// stop sends SIGTERM and requires a clean exit 0.
func (p *serveProc) stop(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("midas-serve exited with %v after SIGTERM\n%s", err, p.logText())
	}
}

func (p *serveProc) get(t *testing.T, path string) []byte {
	t.Helper()
	resp, err := http.Get(p.base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d (%v): %s", path, resp.StatusCode, err, body)
	}
	return body
}

// maintain POSTs a batch to /maintain and requires 200.
func (p *serveProc) maintain(t *testing.T, batch string) {
	t.Helper()
	resp, err := http.Post(p.base+"/maintain", "text/plain", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /maintain = %d\n%s", resp.StatusCode, p.logText())
	}
}

// TestServeSmoke drives single-tenant midas-serve as a process: boot
// from -db with -save and -watch, apply one HTTP and one spool batch,
// stop with SIGTERM (exit 0), restart from the saved -state, and
// require the restarted panel to be byte-identical. A twin server that
// never restarts takes the same two batches; then both take one more
// major batch, and the restarted server must serve the twin's panel
// byte for byte — a restart decodes the maintained state, so it does
// not change the panel's future. (Re-deriving the clusters and
// summaries on restart made this batch swap differently.)
func TestServeSmoke(t *testing.T) {
	dir := t.TempDir()
	spool := filepath.Join(dir, "spool")
	twinDir := filepath.Join(dir, "twin")
	for _, d := range []string{spool, twinDir} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	db := graph.Marshal(dataset.EMolLike().GenerateDB(16, 3).Graphs())
	for _, d := range []string{dir, twinDir} {
		if err := os.WriteFile(filepath.Join(d, "db.graphs"), []byte(db), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	engine := []string{"-gamma", "4", "-min", "2", "-max", "4", "-workers", "1"}

	p := startServe(t, dir, append([]string{"-db", "db.graphs", "-save", "panel.state",
		"-watch", "spool", "-interval", "20ms"}, engine...)...)
	twin := startServe(t, twinDir, append([]string{"-db", "db.graphs"}, engine...)...)

	batch := graph.Marshal(dataset.BoronicEsters().Generate(2, 0, 7))
	p.maintain(t, batch)
	twin.maintain(t, batch)

	spoolBatch := graph.Marshal(dataset.BoronicEsters().Generate(2, 5000, 9))
	if err := os.WriteFile(filepath.Join(spool, "b1.graphs"), []byte(spoolBatch), 0o644); err != nil {
		t.Fatal(err)
	}
	twin.maintain(t, spoolBatch)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(filepath.Join(spool, "b1.graphs.done")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("spool batch never applied\n%s", p.logText())
		}
		time.Sleep(20 * time.Millisecond)
	}
	patterns, quality := p.get(t, "/patterns"), p.get(t, "/quality")
	p.stop(t)

	q := startServe(t, dir, append([]string{"-state", "panel.state"}, engine...)...)
	if !strings.Contains(q.logText(), "patterns, decoded in") {
		t.Fatalf("restart did not decode the saved state\n%s", q.logText())
	}
	if m := q.get(t, "/metrics"); !bytes.Contains(m, []byte(`midas_bootstrap_stage_seconds{stage="decode"}`)) {
		t.Fatalf("/metrics after a restart lacks the decode stage:\n%s", m)
	}
	if got := q.get(t, "/patterns"); !bytes.Equal(got, patterns) {
		t.Fatalf("restarted /patterns differs:\nbefore %s\nafter  %s", patterns, got)
	}
	if got := q.get(t, "/quality"); !bytes.Equal(got, quality) {
		t.Fatalf("restarted /quality differs:\nbefore %s\nafter  %s", quality, got)
	}

	major := graph.Marshal(dataset.AIDSLike().Generate(6, 9000, 3))
	q.maintain(t, major)
	twin.maintain(t, major)
	if got, want := q.get(t, "/patterns"), twin.get(t, "/patterns"); !bytes.Equal(got, want) {
		t.Fatalf("after the next batch, restarted /patterns differs from the twin's:\nrestarted %s\ntwin      %s", got, want)
	}
	if got, want := q.get(t, "/quality"), twin.get(t, "/quality"); !bytes.Equal(got, want) {
		t.Fatalf("after the next batch, restarted /quality differs from the twin's:\nrestarted %s\ntwin      %s", got, want)
	}
	q.stop(t)
	twin.stop(t)
}

// TestReplicaServeSmoke drives replicated midas-serve as two
// processes: a primary (-replica-dir -db) and a pull-only follower
// (-replicate-from). One POST /maintain to the primary must reach the
// follower, after which both serve byte-identical /patterns and
// /quality; a follower write is fenced with 503 + X-Midas-Primary;
// both exit 0 on SIGTERM; and a follower restarted from its directory
// serves the same panel.
func TestReplicaServeSmoke(t *testing.T) {
	dir := t.TempDir()
	db := dataset.EMolLike().GenerateDB(16, 3)
	if err := os.WriteFile(filepath.Join(dir, "db.graphs"), []byte(graph.Marshal(db.Graphs())), 0o644); err != nil {
		t.Fatal(err)
	}
	engine := []string{"-gamma", "4", "-min", "2", "-max", "4", "-workers", "1"}

	p := startServe(t, dir, append([]string{"-replica-dir", "p", "-db", "db.graphs"}, engine...)...)
	follower := append([]string{"-replica-dir", "f", "-replicate-from", p.base}, engine...)
	f := startServe(t, dir, follower...)

	batch := graph.Marshal(dataset.BoronicEsters().Generate(2, 0, 7))
	resp, err := http.Post(p.base+"/maintain", "text/plain", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("primary POST /maintain = %d", resp.StatusCode)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st replica.StatusJSON
		if err := json.Unmarshal(f.get(t, "/replica/status"), &st); err != nil {
			t.Fatal(err)
		}
		if st.LSN == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at LSN %d\n%s", st.LSN, f.logText())
		}
		time.Sleep(20 * time.Millisecond)
	}

	patterns, quality := p.get(t, "/patterns"), p.get(t, "/quality")
	if got := f.get(t, "/patterns"); !bytes.Equal(got, patterns) {
		t.Fatalf("follower /patterns differs:\nprimary  %s\nfollower %s", patterns, got)
	}
	if got := f.get(t, "/quality"); !bytes.Equal(got, quality) {
		t.Fatalf("follower /quality differs:\nprimary  %s\nfollower %s", quality, got)
	}

	resp, err = http.Post(f.base+"/maintain", "text/plain", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("X-Midas-Primary") != p.base {
		t.Fatalf("follower write = %d with X-Midas-Primary %q, want 503 and %q",
			resp.StatusCode, resp.Header.Get("X-Midas-Primary"), p.base)
	}

	f.stop(t)
	f2 := startServe(t, dir, follower...)
	if got := f2.get(t, "/patterns"); !bytes.Equal(got, patterns) {
		t.Fatalf("restarted follower /patterns differs:\nbefore %s\nafter  %s", patterns, got)
	}
	if got := f2.get(t, "/quality"); !bytes.Equal(got, quality) {
		t.Fatalf("restarted follower /quality differs:\nbefore %s\nafter  %s", quality, got)
	}
	f2.stop(t)
	p.stop(t)
}
