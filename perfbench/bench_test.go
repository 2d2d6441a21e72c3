package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/search"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 19, ok: false}, // even the median has 9.5 beyond it
		{n: 20, want: 50, ok: true},
		{n: 39, want: 50, ok: true}, // p75 would leave 9.75
		{n: 40, want: 75, ok: true},
		{n: 100, want: 90, ok: true},
		{n: 199, want: 90, ok: true},
		{n: 200, want: 95, ok: true},
		{n: 999, want: 95, ok: true},
		{n: 1792, want: 95, ok: true}, // the ladder stops at p95
		{n: 10000, want: 95, ok: true},
	} {
		p, ok := tailPercentile(c.n)
		if ok != c.ok || (ok && p != c.want) {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestTailValue(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	v, desc := tail(xs)
	if want := quantile(xs, 0.90); v != want || v < 90 || v > 91 {
		t.Errorf("tail of 1..100 = %g, want p90 %g", v, want)
	}
	if desc != "p90 over 100 samples" {
		t.Errorf("description %q", desc)
	}
	// The samples beyond the reported value must number at least ten.
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond < minBeyond {
		t.Errorf("%d samples beyond the tail value, want >= %d", beyond, minBeyond)
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "eval", parent: -1, start: 0, end: 100 * ms},
		{name: "a", parent: 0, start: 10 * ms, end: 30 * ms},
		{name: "b", parent: 0, start: 25 * ms, end: 50 * ms},    // overlaps a
		{name: "c", parent: 0, start: 90 * ms, end: 120 * ms},   // runs past its parent
		{name: "leaf", parent: 2, start: 30 * ms, end: 40 * ms}, // grandchild
		{name: "other", parent: -1, start: 200 * ms, end: 210 * ms},
	}
	self := selfTimes(spans)
	want := []time.Duration{
		100*ms - 40*ms - 10*ms, // children cover 10..50 and 90..100
		20 * ms,
		25*ms - 10*ms,
		30 * ms,
		10 * ms,
		10 * ms,
	}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%s] = %v, want %v", spans[i].name, self[i], want[i])
		}
	}
	if got := sumSelf(spans, "a", "b"); got != 35*ms {
		t.Errorf("sumSelf(a, b) = %v, want 35ms", got)
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder()
	outer := r.begin("outer")
	r.timed("inner", func() {})
	r.begin("left-open")
	r.end(outer) // closes left-open too
	for i, s := range r.spans {
		if s.end < s.start {
			t.Errorf("span %d (%s) not closed", i, s.name)
		}
	}
	if r.spans[1].parent != 0 || r.spans[2].parent != 0 {
		t.Errorf("parents = %d, %d; want 0, 0", r.spans[1].parent, r.spans[2].parent)
	}
	var nilRec *recorder
	if id := nilRec.begin("x"); nilRec.end(id) != 0 {
		t.Error("a nil recorder must record nothing")
	}
}

func TestNoiseSeed(t *testing.T) {
	for seed, want := range map[int64]int64{1: 1, 6: 6, 7: 1, 0: 6, -1: 5, 12: 6} {
		if got := noiseSeed(seed); got != want {
			t.Errorf("noiseSeed(%d) = %d, want %d", seed, got, want)
		}
	}
}

// TestStoredReferencesCoverEverySeed guards the file the benchmark
// ships: every workload has a digest for every noise seed.
func TestStoredReferencesCoverEverySeed(t *testing.T) {
	ref, err := loadRef(filepath.Join("ref", "digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Engine != "ast" {
		t.Errorf("references made by engine %q, want ast", ref.Engine)
	}
	for _, w := range workloads {
		for _, s := range refSeeds {
			if err := ref.check(w.name, s, ref.Digests[w.name][strconv.FormatInt(s, 10)]); err != nil || len(ref.Digests[w.name][strconv.FormatInt(s, 10)]) != 64 {
				t.Errorf("%s seed %d: missing or malformed digest (%v)", w.name, s, err)
			}
		}
	}
}

func TestTamperedReferenceFailsTheRun(t *testing.T) {
	evals := []*search.Evaluation{
		{Index: 1, Status: search.StatusPass, Speedup: 1.25, RelError: 1e-7, Detail: "wrappers=0 casts=3"},
		{Index: 2, Status: search.StatusError, Detail: "non-finite"},
	}
	good := sweepDigest(evals)
	path := filepath.Join(t.TempDir(), "digests.json")
	write := func(d string) *refFile {
		raw, _ := json.Marshal(refFile{Engine: "ast", Digests: map[string]map[string]string{"funarc-fleet": {"3": d}}})
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		ref, err := loadRef(path)
		if err != nil {
			t.Fatal(err)
		}
		return ref
	}

	r := newResult()
	r.account(len(evals), write(good).check("funarc-fleet", 3, good))
	if !r.Correct || r.Failed != 0 || r.Attempted != 2 {
		t.Fatalf("untampered: correct=%v failed=%d attempted=%d", r.Correct, r.Failed, r.Attempted)
	}

	tampered := []byte(good)
	tampered[10] ^= 1
	r.account(len(evals), write(string(tampered)).check("funarc-fleet", 3, good))
	if r.Correct || r.Failed != 2 || r.Attempted != 4 {
		t.Fatalf("tampered: correct=%v failed=%d attempted=%d; want false, 2, 4", r.Correct, r.Failed, r.Attempted)
	}

	// A changed outcome is caught the same way: every float digit counts.
	evals[0].Speedup = 1.2500000000000002
	if err := write(good).check("funarc-fleet", 3, sweepDigest(evals)); err == nil {
		t.Fatal("a one-ulp speedup change went unnoticed")
	}
	if err := write(good).check("funarc-fleet", 4, good); err == nil {
		t.Fatal("a seed without a reference passed the check")
	}
	if _, err := loadRef(filepath.Join(t.TempDir(), "missing.json")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing reference file: %v", err)
	}
}
