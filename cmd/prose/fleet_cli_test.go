package main

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
)

// TestMain lets this test binary stand in for the prose executable when
// `cmdTune -workers` spawns workers: the coordinator re-execs
// os.Executable() — the test binary — with "worker" argv and
// PROSE_FLEET_WORKER=1 in the environment, and this hook routes that
// invocation into the real cmdWorker.
func TestMain(m *testing.M) {
	if os.Getenv("PROSE_FLEET_WORKER") == "1" && len(os.Args) > 1 && os.Args[1] == "worker" {
		if err := cmdWorker(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "prose worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestTuneWorkersJournalMatchesInProcess runs the full CLI path: `tune
// -workers 2` with injected worker kills must write the same journal
// bytes as the plain in-process tune.
func TestTuneWorkersJournalMatchesInProcess(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.jsonl")
	if err := cmdTune([]string{"-model", "funarc", "-journal", ref}); err != nil {
		t.Fatalf("in-process tune: %v", err)
	}
	fleetPath := filepath.Join(dir, "fleet.jsonl")
	if err := cmdTune([]string{"-model", "funarc", "-journal", fleetPath,
		"-workers", "2", "-fleet-kill-rate", "0.15", "-fleet-fault-seed", "7"}); err != nil {
		t.Fatalf("fleet tune: %v", err)
	}
	a, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(fleetPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("fleet journal differs from in-process journal")
	}
	// The fleet trail must be inspectable after the fact.
	if err := cmdJournal([]string{fleetPath}); err != nil {
		t.Fatalf("journal summary: %v", err)
	}
}

// pickPort reserves a free loopback port and releases it for the CLI
// under test to bind. (The small race with another process is
// acceptable in a test.)
func pickPort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestTuneListenJournalMatchesInProcess runs the full network CLI path:
// `tune -listen` with chaos injection, plus two `worker -connect`
// subprocesses (this test binary re-execed, exactly as a remote host
// would run them), must write the same journal bytes as the plain
// in-process tune.
func TestTuneListenJournalMatchesInProcess(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.jsonl")
	if err := cmdTune([]string{"-model", "funarc", "-journal", ref}); err != nil {
		t.Fatalf("in-process tune: %v", err)
	}

	addr := pickPort(t)
	netPath := filepath.Join(dir, "net.jsonl")
	tuneDone := make(chan error, 1)
	go func() {
		tuneDone <- cmdTune([]string{"-model", "funarc", "-journal", netPath,
			"-workers", "2", "-listen", addr,
			"-lease-ttl", "2s", "-worker-heartbeat", "50ms",
			"-fleet-chaos-drop", "0.02", "-fleet-chaos-dup", "0.05",
			"-fleet-chaos-reorder", "0.02", "-fleet-chaos-seed", "7"})
	}()

	var workers []*exec.Cmd
	for i := 1; i <= 2; i++ {
		cmd := exec.Command(os.Args[0], "worker",
			"-connect", addr, "-model", "funarc", "-seed", "1",
			"-session", fmt.Sprintf("w%d", i), "-heartbeat", "50ms",
			"-reconnect-backoff", "20ms", "-max-dials", "50")
		cmd.Stderr = os.Stderr
		cmd.Env = append(os.Environ(), "PROSE_FLEET_WORKER=1")
		if err := cmd.Start(); err != nil {
			t.Fatalf("start worker %d: %v", i, err)
		}
		workers = append(workers, cmd)
	}

	select {
	case err := <-tuneDone:
		if err != nil {
			t.Fatalf("network tune: %v", err)
		}
	case <-time.After(5 * time.Minute):
		t.Fatal("network tune did not finish")
	}
	for i, cmd := range workers {
		if err := cmd.Wait(); err != nil {
			t.Errorf("worker %d exit: %v", i+1, err)
		}
	}

	a, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(netPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("network-fleet journal differs from in-process journal")
	}
	if err := cmdJournal([]string{netPath}); err != nil {
		t.Fatalf("journal summary: %v", err)
	}
}

// TestListenHintJoinsCoordinator: the connect line `tune -listen`
// prints must start a worker whose fingerprint matches the
// coordinator's and which beats at the coordinator's -worker-heartbeat
// (the coordinator drops a worker after HeartbeatMisses of its own
// intervals of silence, so a worker at the default would be lost).
func TestListenHintJoinsCoordinator(t *testing.T) {
	var tuneOpts core.Options
	fs := flag.NewFlagSet("tune", flag.ContinueOnError)
	sf := newStreamFlags(fs, &tuneOpts)
	heartbeat := fs.Duration("worker-heartbeat", fleet.DefaultHeartbeat, "")
	if err := fs.Parse(strings.Fields("-model funarc -seed 3 -budget 5 -whole-model -worker-heartbeat 50ms")); err != nil {
		t.Fatal(err)
	}
	hint := strings.Fields(sf.connectHint("127.0.0.1:7431", *heartbeat))
	if len(hint) < 2 || hint[0] != "prose" || hint[1] != "worker" {
		t.Fatalf("hint is not a prose worker command line: %q", hint)
	}
	wsf, nc, err := parseWorker(hint[2:])
	if err != nil {
		t.Fatal(err)
	}
	if nc.Addr != "127.0.0.1:7431" {
		t.Errorf("worker connects to %q", nc.Addr)
	}
	if nc.Heartbeat != 50*time.Millisecond {
		t.Errorf("worker heartbeat %v, want the coordinator's 50ms", nc.Heartbeat)
	}
	fingerprint := func(sf streamFlags) string {
		m, err := getModel(*sf.model)
		if err != nil {
			t.Fatal(err)
		}
		tn, err := core.New(m, *sf.opts)
		if err != nil {
			t.Fatal(err)
		}
		return tn.Fingerprint()
	}
	if tf, wf := fingerprint(sf), fingerprint(wsf); tf != wf {
		t.Errorf("worker fingerprint %.12s differs from the coordinator's %.12s", wf, tf)
	}
}
