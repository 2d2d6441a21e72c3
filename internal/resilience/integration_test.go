package resilience

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/search"
	"repro/internal/transform"
)

// simEval mirrors the search package's test target: pass iff every
// critical atom stays 64-bit, error if a fragile atom is lowered.
type simEval struct {
	atoms    []transform.Atom
	critical map[string]bool
	fragile  map[string]bool
	calls    atomic.Int64
}

func (f *simEval) Evaluate(a transform.Assignment) *search.Evaluation {
	f.calls.Add(1)
	lowered := 0
	bad, boom := false, false
	for _, at := range f.atoms {
		if a.KindOf(at.QName, 8) == 4 {
			lowered++
			bad = bad || f.critical[at.QName]
			boom = boom || f.fragile[at.QName]
		}
	}
	ev := &search.Evaluation{Lowered: lowered, TotalAtoms: len(f.atoms), Speedup: 1 + float64(lowered)*0.05}
	switch {
	case boom:
		ev.Status = search.StatusError
	case bad:
		ev.Status = search.StatusFail
		ev.RelError = 10
	default:
		ev.Status = search.StatusPass
		ev.RelError = 1e-6 * float64(lowered)
	}
	return ev
}

func simTarget() ([]transform.Atom, *simEval, search.Options) {
	atoms := make([]transform.Atom, 24)
	for i := range atoms {
		atoms[i] = transform.Atom{QName: fmt.Sprintf("m.p.v%02d", i)}
	}
	fe := &simEval{
		atoms:    atoms,
		critical: map[string]bool{"m.p.v05": true, "m.p.v17": true},
		fragile:  map[string]bool{"m.p.v09": true},
	}
	return atoms, fe, search.Options{Criteria: search.Criteria{MaxRelError: 1e-3, MinSpeedup: 1}}
}

func logKeys(l *search.Log) []string {
	out := make([]string, len(l.Evals))
	for i, ev := range l.Evals {
		out[i] = fmt.Sprintf("%s|%v|%g|%g|%d", ev.Assignment.Key(), ev.Status, ev.Speedup, ev.RelError, ev.Index)
	}
	return out
}

// TestSupervisedSearchLogIdenticalUnderFlakyFaults is the headline
// resilience property at the search layer: a supervised search whose
// workers die transiently (30% per attempt) produces the SAME evaluation
// log, in the same order with the same values, as a fault-free run —
// retries absorb the noise without distorting Table II data.
func TestSupervisedSearchLogIdenticalUnderFlakyFaults(t *testing.T) {
	atoms, fe, opts := simTarget()
	ref, err := search.Precimonious(nil, fe, atoms, opts)
	if err != nil {
		t.Fatal(err)
	}
	refKeys := logKeys(ref.Log)

	for _, par := range []int{1, 8} {
		atoms2, fe2, opts2 := simTarget()
		opts2.Parallelism = par
		inj := &search.FaultInjector{Inner: fe2, Mode: search.FaultFlaky, Rate: 0.3, Seed: 7}
		s := &Supervised{Inner: inj, MaxRetries: 8, Sleep: func(time.Duration) {}}
		out, err := search.Precimonious(nil, s, atoms2, opts2)
		if err != nil {
			t.Fatal(err)
		}

		st := s.Stats()
		if st.Quarantined != 0 {
			t.Fatalf("par=%d: flaky faults quarantined %d assignment(s); pick a different injector seed", par, st.Quarantined)
		}
		if st.Retried == 0 {
			t.Fatalf("par=%d: no faults fired — the test is vacuous", par)
		}
		got := logKeys(out.Log)
		if len(got) != len(refKeys) {
			t.Fatalf("par=%d: %d evals, want %d", par, len(got), len(refKeys))
		}
		for i := range got {
			if got[i] != refKeys[i] {
				t.Fatalf("par=%d: eval %d = %s, want %s", par, i, got[i], refKeys[i])
			}
		}
		if fmt.Sprint(out.Minimal) != fmt.Sprint(ref.Minimal) {
			t.Errorf("par=%d: minimal %v, want %v", par, out.Minimal, ref.Minimal)
		}
	}
}

// TestSupervisedSearchQuarantinesPoisonedAssignment: a persistently
// crashing assignment is quarantined as a StatusInfra record — excluded
// from the Table II counts — and the search still finds the reference
// 1-minimal set.
func TestSupervisedSearchQuarantinesPoisonedAssignment(t *testing.T) {
	atoms, fe, opts := simTarget()
	ref, err := search.Precimonious(nil, fe, atoms, opts)
	if err != nil {
		t.Fatal(err)
	}
	refTotal, _, _, _, _ := ref.Log.Counts()

	// Poison the all-32 variant: it is the very first proposal, and in
	// the reference run it fails (critical atoms lowered), so replacing
	// its outcome with "unknown" must not steer the search differently.
	all32 := transform.Uniform(atoms, 4)
	atoms2, fe2, opts2 := simTarget()
	inj := &search.FaultInjector{Inner: fe2, Mode: search.FaultCrashKey, CrashKey: all32.Key()}
	s := &Supervised{Inner: inj, MaxRetries: 2, Sleep: func(time.Duration) {}}
	out, err := search.Precimonious(nil, s, atoms2, opts2)
	if err != nil {
		t.Fatal(err)
	}

	if got := out.Log.InfraCount(); got != 1 {
		t.Fatalf("InfraCount = %d, want 1", got)
	}
	total, _, _, _, _ := out.Log.Counts()
	if total != refTotal-1 {
		t.Errorf("Counts total = %d, want %d (infra record must be excluded)", total, refTotal-1)
	}
	if fmt.Sprint(out.Minimal) != fmt.Sprint(ref.Minimal) {
		t.Errorf("minimal %v, want %v", out.Minimal, ref.Minimal)
	}
	if inj.Calls() != int64(1)+fe2.calls.Load() {
		t.Errorf("injector admitted %d calls for %d inner evaluations: persistent fault must be attempted exactly once", inj.Calls(), fe2.calls.Load())
	}
	if s.Stats().Retried != 0 {
		t.Error("persistent fault was retried")
	}
}

// gatedCrash panics persistently on one key — but only after at least
// one other evaluation has completed, so a concurrent sibling's result
// is always there to salvage when the breaker trips.
type gatedCrash struct {
	inner   search.Evaluator
	crash   string
	sibling chan struct{}
	once    sync.Once
}

func (g *gatedCrash) Evaluate(a transform.Assignment) *search.Evaluation {
	if a.Key() == g.crash {
		<-g.sibling
		panic(fmt.Sprintf("injected: persistent crash on %q", g.crash))
	}
	ev := g.inner.Evaluate(a)
	g.once.Do(func() { close(g.sibling) })
	return ev
}

// TestBreakerTripSalvagesSiblingsAndResumes: when the breaker fails the
// search fast mid-batch, completed sibling evaluations are salvaged, and
// a later run seeded with them (plus the quarantine) reproduces the
// fault-free log without re-paying for the salvaged work.
func TestBreakerTripSalvagesSiblingsAndResumes(t *testing.T) {
	atoms, fe, opts := simTarget()
	ref, err := search.Precimonious(nil, fe, atoms, opts)
	if err != nil {
		t.Fatal(err)
	}
	refKeys := logKeys(ref.Log)

	// Trip on the all-32 variant — slot 0 of the opening 2-candidate
	// batch — so its sibling (all-64) completes and must be salvaged.
	// The crash is gated on the sibling's completion, making "the
	// completed sibling is salvaged" a deterministic property instead of
	// a scheduler race.
	all32 := transform.Uniform(atoms, 4)
	atoms2, fe2, opts2 := simTarget()
	opts2.Parallelism = 2
	var salvaged []*search.Evaluation
	opts2.OnSalvage = func(ev *search.Evaluation) {
		cp := *ev
		salvaged = append(salvaged, &cp)
	}
	crash := &gatedCrash{inner: fe2, crash: all32.Key(), sibling: make(chan struct{})}
	s := &Supervised{Inner: crash, Breaker: 1, Sleep: func(time.Duration) {}}

	stopped, err := search.Precimonious(nil, s, atoms2, opts2)
	log := stopped.Log
	var abort *AbortError
	errors.As(err, &abort)
	if abort == nil || abort.Reason != AbortBreaker {
		t.Fatalf("abort = %+v, want breaker trip", abort)
	}
	if len(log.Evals) != 0 {
		t.Fatalf("trip at slot 0 left %d journaled evals", len(log.Evals))
	}
	if len(salvaged) != 1 || len(log.Salvaged) != 1 {
		t.Fatalf("salvaged %d evals (observer saw %d), want 1 — the completed all-64 sibling", len(log.Salvaged), len(salvaged))
	}
	if salvaged[0].Status != search.StatusPass || salvaged[0].Lowered != 0 {
		t.Fatalf("salvaged evaluation = %+v, want the all-64 pass", salvaged[0])
	}

	// "Fix the infrastructure" and rerun, seeding the salvage and the
	// quarantine the way the tuner replays them from the events sidecar.
	atoms3, fe3, opts3 := simTarget()
	salv := make(map[string]*search.Evaluation)
	for _, ev := range salvaged {
		cp := *ev
		key := cp.Assignment.Key()
		cp.Assignment = nil
		salv[key] = &cp
	}
	opts3.Salvaged = salv
	var replayedFresh []bool
	opts3.OnAdd = func(ev *search.Evaluation, replayed bool) { replayedFresh = append(replayedFresh, replayed) }
	s3 := &Supervised{Inner: fe3, MaxRetries: 2, Sleep: func(time.Duration) {}}
	s3.Quarantine(all32.Key(), "search: injected crash on "+fmt.Sprintf("%q", all32.Key()))
	out, err := search.Precimonious(nil, s3, atoms3, opts3)
	if err != nil {
		t.Fatal(err)
	}

	got := logKeys(out.Log)
	if len(got) != len(refKeys) {
		t.Fatalf("resumed run logged %d evals, want %d", len(got), len(refKeys))
	}
	for i := range got {
		want := refKeys[i]
		if i == 0 {
			// The poisoned slot is an infra record instead of the
			// reference failure; everything after it must match exactly.
			if out.Log.Evals[0].Status != search.StatusInfra {
				t.Fatalf("slot 0 status = %v, want infra", out.Log.Evals[0].Status)
			}
			continue
		}
		if got[i] != want {
			t.Fatalf("resumed eval %d = %s, want %s", i, got[i], want)
		}
	}
	// The salvaged all-64 evaluation was served from the sidecar: the
	// evaluator never re-ran it, and it journaled as fresh.
	for _, ev := range []*search.Evaluation{out.Log.Evals[1]} {
		if ev.Lowered != 0 {
			t.Fatalf("slot 1 is not the all-64 variant: %+v", ev)
		}
	}
	if replayedFresh[1] {
		t.Error("salvaged evaluation reported as replayed; it must journal as fresh")
	}
	want := len(refKeys) - 2 // all-32 quarantined, all-64 salvaged
	if int(fe3.calls.Load()) != want {
		t.Errorf("evaluator ran %d times, want %d (salvage must not be re-paid)", fe3.calls.Load(), want)
	}
	if fmt.Sprint(out.Minimal) != fmt.Sprint(ref.Minimal) {
		t.Errorf("minimal %v, want %v", out.Minimal, ref.Minimal)
	}
}
