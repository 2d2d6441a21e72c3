package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"repro/internal/search"
)

// refSeeds are the Eq. (1) noise seeds that have reference digests. The
// benchmark's --seed selects one of them (seed 1 is the default and
// prose's own default; the others are held out), so every run can be
// checked against outcomes the AST reference engine produced.
var refSeeds = []int64{1, 2, 3, 4, 5, 6}

// noiseSeed maps a benchmark seed onto refSeeds; seeds 1..6 map to
// themselves.
func noiseSeed(seed int64) int64 {
	n := int64(len(refSeeds))
	return refSeeds[((seed-1)%n+n)%n]
}

// refFile is the reference-digest file stored beside the benchmark.
type refFile struct {
	Note   string `json:"note"`
	Engine string `json:"engine"`
	// Digests maps workload name -> noise seed -> sha256 hex digest of
	// the workload's outcome.
	Digests map[string]map[string]string `json:"digests"`
}

func loadRef(path string) (*refFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reference digests: %w", err)
	}
	var r refFile
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("reference digests %s: %w", path, err)
	}
	return &r, nil
}

// check compares one outcome digest with the stored reference.
func (r *refFile) check(workload string, seed int64, got string) error {
	want, ok := r.Digests[workload][strconv.FormatInt(seed, 10)]
	if !ok {
		return fmt.Errorf("no reference digest for %s at noise seed %d", workload, seed)
	}
	if got != want {
		return fmt.Errorf("%s at noise seed %d: outcome digest %.16s… differs from reference %.16s…", workload, seed, got, want)
	}
	return nil
}

// fileDigest hashes a file's bytes (a tune's journal).
func fileDigest(path string) (string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// sweepDigest hashes a sweep's ordered per-variant outcomes: status,
// speedup, relative error and detail (which carries the error text of
// failed variants), floats in their exact shortest form.
func sweepDigest(evals []*search.Evaluation) string {
	h := sha256.New()
	for _, ev := range evals {
		fmt.Fprintf(h, "%d %s %s %s %q\n", ev.Index, ev.Status,
			strconv.FormatFloat(ev.Speedup, 'g', -1, 64),
			strconv.FormatFloat(ev.RelError, 'g', -1, 64), ev.Detail)
	}
	return hex.EncodeToString(h.Sum(nil))
}
