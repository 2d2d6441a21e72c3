package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/search"
)

// TestGenerateReferences regenerates ref/digests.json with the AST
// reference engine, so the outcome check does not trust the engine the
// benchmark measures. Run it after a documented fidelity fix changes a
// journal or a sweep outcome:
//
//	cd perfbench && PERFBENCH_GENREF=1 go test -run TestGenerateReferences -timeout 60m .
func TestGenerateReferences(t *testing.T) {
	if os.Getenv("PERFBENCH_GENREF") != "1" {
		t.Skip("set PERFBENCH_GENREF=1 to regenerate ref/digests.json")
	}
	ref := &refFile{
		Note:    "Outcome digests produced by the AST reference engine: sha256 of the tune's journal bytes (mpas-a, mom6) or of the sweep's ordered per-variant status, speedup, relative error and detail (funarc-fleet), per Eq. (1) noise seed. Regenerate: cd perfbench && PERFBENCH_GENREF=1 go test -run TestGenerateReferences -timeout 60m .",
		Engine:  interp.EngineAST.String(),
		Digests: map[string]map[string]string{},
	}
	var mu sync.Mutex
	for _, w := range workloads {
		ref.Digests[w.name] = map[string]string{}
		for _, seed := range refSeeds {
			w, seed := w, seed
			t.Run(w.name+"/"+strconv.FormatInt(seed, 10), func(t *testing.T) {
				t.Parallel()
				d := referenceDigest(t, w, seed)
				mu.Lock()
				ref.Digests[w.name][strconv.FormatInt(seed, 10)] = d
				mu.Unlock()
			})
		}
	}
	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(ref); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("ref", "digests.json"), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

// referenceDigest runs one workload's outcome on the AST engine, in
// process: the tune with the benchmark's options, or the plain sweep.
func referenceDigest(t *testing.T, w workload, seed int64) string {
	opts := core.Options{Seed: seed, Engine: interp.EngineAST}
	if w.fleet {
		tu, err := core.New(w.model(), opts)
		if err != nil {
			t.Fatal(err)
		}
		log, err := search.BruteForce(context.Background(), tu, tu.Atoms(), 1)
		if err != nil {
			t.Fatal(err)
		}
		return sweepDigest(log.Evals)
	}
	opts.Parallelism = 1
	opts.MaxEvaluations = w.budget
	opts.JournalPath = filepath.Join(t.TempDir(), "journal.jsonl")
	tu, err := core.New(w.model(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tu.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	d, err := fileDigest(opts.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
