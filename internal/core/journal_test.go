package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/journal"
	"repro/internal/models"
	"repro/internal/search"
)

// runJournaled runs a full funarc tune against the given journal path,
// recovering an injected-fault panic into the third return value.
func runJournaled(t *testing.T, opts Options) (res *Result, err error, fault *search.InjectedFault) {
	t.Helper()
	tn, err := New(models.Funarc(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(*search.InjectedFault)
			if !ok {
				panic(r)
			}
			fault = f
		}
	}()
	res, err = tn.Run(nil)
	return
}

// TestJournalKillResumeByteIdentical is the acceptance test for the
// crash-safe journal: a tune killed after ANY number of evaluations and
// resumed with -resume must leave a journal byte-identical to an
// uninterrupted run's, find the same 1-minimal set, and never re-run a
// journaled evaluation. The kill is injected in-process so the "kill" can
// land between an evaluation's journal fsync and the next evaluation —
// the paper's 12-hour MOM6 job death, compressed.
func TestJournalKillResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.jsonl")
	res, err, fault := runJournaled(t, Options{Seed: 1, JournalPath: refPath})
	if err != nil || fault != nil {
		t.Fatalf("reference run: err=%v fault=%v", err, fault)
	}
	refBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	total := len(res.Outcome.Log.Evals)
	refMin := fmt.Sprint(res.Outcome.Minimal)

	// Kill at the first evaluation, early, mid-search, and at the very
	// last evaluation. (The search layer sweeps every kill point
	// exhaustively in its own tests; here the full stack — journal file,
	// checkpoint, tuner lifecycle — is exercised at the interesting ones.)
	for _, kill := range []int{0, 1, total / 2, total - 1} {
		path := filepath.Join(dir, fmt.Sprintf("kill%d.jsonl", kill))
		_, err, fault := runJournaled(t, Options{
			Seed: 1, JournalPath: path,
			WrapEvaluator: func(inner search.Evaluator) search.Evaluator {
				return &search.FaultInjector{Inner: inner, Limit: int64(kill)}
			},
		})
		if err != nil {
			t.Fatalf("kill=%d: unexpected error %v", kill, err)
		}
		if fault == nil {
			t.Fatalf("kill=%d: fault did not fire", kill)
		}

		res2, err, fault := runJournaled(t, Options{Seed: 1, JournalPath: path, Resume: true})
		if err != nil || fault != nil {
			t.Fatalf("kill=%d: resume failed: err=%v fault=%v", kill, err, fault)
		}
		gotBytes, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotBytes) != string(refBytes) {
			t.Errorf("kill=%d: resumed journal differs from uninterrupted journal (%d vs %d bytes)",
				kill, len(gotBytes), len(refBytes))
		}
		if got := fmt.Sprint(res2.Outcome.Minimal); got != refMin {
			t.Errorf("kill=%d: minimal %s, want %s", kill, got, refMin)
		}
		if res2.Resumed > kill {
			t.Errorf("kill=%d: %d evaluations replayed, at most %d were journaled", kill, res2.Resumed, kill)
		}
		if len(res2.Outcome.Log.Evals) != total {
			t.Errorf("kill=%d: resumed log holds %d evals, want %d", kill, len(res2.Outcome.Log.Evals), total)
		}

		ck, ok, err := journal.LoadCheckpoint(journal.CheckpointPath(path))
		if err != nil || !ok {
			t.Fatalf("kill=%d: no checkpoint after resume: %v", kill, err)
		}
		if !ck.Done || ck.Evaluations != total || fmt.Sprint(ck.Minimal) != refMin {
			t.Errorf("kill=%d: final checkpoint %+v", kill, ck)
		}
	}
}

// TestJournalResumeOfFinishedRun: resuming a journal from a run that
// completed replays everything and evaluates nothing new.
func TestJournalResumeOfFinishedRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	res1, err, fault := runJournaled(t, Options{Seed: 1, JournalPath: path})
	if err != nil || fault != nil {
		t.Fatalf("err=%v fault=%v", err, fault)
	}
	before, _ := os.ReadFile(path)

	res2, err, fault := runJournaled(t, Options{Seed: 1, JournalPath: path, Resume: true})
	if err != nil || fault != nil {
		t.Fatalf("resume: err=%v fault=%v", err, fault)
	}
	if res2.Resumed != len(res1.Outcome.Log.Evals) {
		t.Errorf("Resumed = %d, want all %d", res2.Resumed, len(res1.Outcome.Log.Evals))
	}
	if fmt.Sprint(res2.Outcome.Minimal) != fmt.Sprint(res1.Outcome.Minimal) {
		t.Errorf("minimal changed across replay: %v vs %v", res2.Outcome.Minimal, res1.Outcome.Minimal)
	}
	after, _ := os.ReadFile(path)
	if string(before) != string(after) {
		t.Error("replaying a finished run modified the journal")
	}
}

// TestCheckpointWriteFailureStopsRun: a failed checkpoint write stops
// the run before its next evaluation. Run returns no result and the
// write error, the journal keeps the one record written before the
// failure and nothing after it, and once the fault is cleared -resume
// finishes with a journal byte-identical to an uninterrupted run's.
func TestCheckpointWriteFailureStopsRun(t *testing.T) {
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.jsonl")
	if _, err, fault := runJournaled(t, Options{Seed: 1, Parallelism: 2, JournalPath: refPath}); err != nil || fault != nil {
		t.Fatalf("reference run: err=%v fault=%v", err, fault)
	}
	refBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	// A non-empty directory at the checkpoint path makes the rename in
	// SaveCheckpoint fail, even for root.
	path := filepath.Join(dir, "j.jsonl")
	ckpt := journal.CheckpointPath(path)
	if err := os.MkdirAll(filepath.Join(ckpt, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	evaluated := 0
	res, err, fault := runJournaled(t, Options{
		Seed: 1, Parallelism: 2, JournalPath: path,
		Progress: func(*search.Evaluation) { evaluated++ },
	})
	if fault != nil {
		t.Fatalf("unexpected fault %v", fault)
	}
	var le *os.LinkError
	if res != nil || !errors.As(err, &le) || le.Op != "rename" {
		t.Fatalf("Run = (%v, %v), want (nil, the rename error)", res, err)
	}
	if evaluated != 2 {
		t.Errorf("%d evaluations reached Progress, want the first batch's 2", evaluated)
	}
	if _, recs, err := journal.Inspect(path); err != nil || len(recs) != 1 {
		t.Errorf("journal holds %d record(s) (err %v), want exactly 1", len(recs), err)
	}

	if err := os.RemoveAll(ckpt); err != nil {
		t.Fatal(err)
	}
	if _, err, fault := runJournaled(t, Options{Seed: 1, Parallelism: 2, JournalPath: path, Resume: true}); err != nil || fault != nil {
		t.Fatalf("resume: err=%v fault=%v", err, fault)
	}
	gotBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotBytes) != string(refBytes) {
		t.Errorf("resumed journal differs from uninterrupted journal (%d vs %d bytes)", len(gotBytes), len(refBytes))
	}
}

// TestJournalRejectsForeignConfiguration: a journal recorded under one
// seed (or any other fingerprinted option) must not silently poison a
// differently-configured run.
func TestJournalRejectsForeignConfiguration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if _, err, fault := runJournaled(t, Options{Seed: 1, JournalPath: path}); err != nil || fault != nil {
		t.Fatalf("err=%v fault=%v", err, fault)
	}
	tn, err := New(models.Funarc(), Options{Seed: 2, JournalPath: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Run(nil); err == nil {
		t.Error("resume with a different seed accepted a stale journal")
	}
	// Without -resume, an existing journal holding evaluations must not
	// be clobbered even by an identically-configured run.
	tn2, err := New(models.Funarc(), Options{Seed: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn2.Run(nil); err == nil {
		t.Error("fresh run overwrote a journal holding evaluations")
	}
}

// TestFingerprintSensitivity: the fingerprint must change with any
// option that shapes the evaluation stream, and must NOT change with
// parallelism (logs are parallelism-invariant by construction).
func TestFingerprintSensitivity(t *testing.T) {
	fp := func(opts Options) string {
		tn, err := New(models.Funarc(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return tn.Fingerprint()
	}
	base := fp(Options{Seed: 1})
	if fp(Options{Seed: 1}) != base {
		t.Error("fingerprint not deterministic")
	}
	if fp(Options{Seed: 2}) == base {
		t.Error("seed not fingerprinted")
	}
	if fp(Options{Seed: 1, WholeModel: true}) == base {
		t.Error("whole-model guidance not fingerprinted")
	}
	if fp(Options{Seed: 1, MaxEvaluations: 3}) == base {
		t.Error("evaluation budget not fingerprinted")
	}
	if fp(Options{Seed: 1, MinSpeedup: 1.5}) == base {
		t.Error("acceptance criteria not fingerprinted")
	}
	if fp(Options{Seed: 1, Parallelism: 8}) != base {
		t.Error("parallelism must not be fingerprinted: journals resume at any level")
	}
}
