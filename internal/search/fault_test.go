package search

import (
	"fmt"
	"testing"

	"repro/internal/transform"
)

// searchAtoms and searchOpts give every crash test the same non-trivial
// target: two critical atoms and one fragile atom over 24 atoms.
func crashTarget() ([]transform.Atom, *fakeEval, Options) {
	atoms := mkAtoms(24)
	fe := &fakeEval{
		atoms:    atoms,
		critical: map[string]bool{"m.p.v05": true, "m.p.v17": true},
		fragile:  map[string]bool{"m.p.v09": true},
	}
	opts := Options{Criteria: Criteria{MaxRelError: 1e-3, MinSpeedup: 1}}
	return atoms, fe, opts
}

// journaled runs Precimonious while collecting every log append through
// OnAdd — the same observation point the crash journal uses — and
// recovers an injected-fault panic. Collected records survive the panic,
// exactly as fsynced journal lines survive a kill.
func journaled(atoms []transform.Atom, eval Evaluator, opts Options) (out *Outcome, seen []*Evaluation, replays []bool, fault *InjectedFault) {
	prev := opts.OnAdd
	opts.OnAdd = func(ev *Evaluation, replayed bool) {
		cp := *ev
		seen = append(seen, &cp)
		replays = append(replays, replayed)
		if prev != nil {
			prev(ev, replayed)
		}
	}
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(*InjectedFault)
			if !ok {
				panic(r)
			}
			fault = f
		}
	}()
	out, err := Precimonious(nil, eval, atoms, opts)
	if err != nil {
		panic(err)
	}
	return
}

func sameEval(a, b *Evaluation) bool {
	return a.Assignment.Key() == b.Assignment.Key() && a.Status == b.Status &&
		a.Speedup == b.Speedup && a.RelError == b.RelError &&
		a.Lowered == b.Lowered && a.Index == b.Index
}

// warmFrom rebuilds a Warm cache from collected records, the way the
// tuner rebuilds it from journal lines: the assignment itself is not
// stored (only its canonical key), so replayed records re-enter the log
// without one until batchEval re-attaches it.
func warmFrom(seen []*Evaluation) map[string]*Evaluation {
	warm := make(map[string]*Evaluation, len(seen))
	for _, ev := range seen {
		cp := *ev
		key := cp.Assignment.Key()
		cp.Assignment = nil
		warm[key] = &cp
	}
	return warm
}

// TestKillAtEveryEvaluationThenResume is the search-level crash-safety
// contract: kill the search after ANY number of evaluations, resume from
// the records observed so far, and the concatenated evaluation sequence
// is identical to an uninterrupted run — same order, same values, same
// 1-minimal set — with the replayed prefix never re-evaluated.
func TestKillAtEveryEvaluationThenResume(t *testing.T) {
	atoms, fe, opts := crashTarget()
	ref, refSeen, _, fault := journaled(atoms, fe, opts)
	if fault != nil {
		t.Fatal("reference run faulted")
	}
	total := len(ref.Log.Evals)
	if total < 10 {
		t.Fatalf("reference run too small to be interesting: %d evals", total)
	}

	for kill := 0; kill < total; kill++ {
		atoms2, _, opts2 := crashTarget()
		_, fe2, _ := crashTarget()
		inj := &FaultInjector{Inner: fe2, Limit: int64(kill)}
		out1, seen1, _, fault1 := journaled(atoms2, inj, opts2)
		if fault1 == nil {
			t.Fatalf("kill=%d: fault did not fire (out=%v)", kill, out1 != nil)
		}
		// The surviving records are a prefix of the reference sequence.
		if len(seen1) > kill {
			t.Fatalf("kill=%d: %d records survived past the fault", kill, len(seen1))
		}
		for i, ev := range seen1 {
			if !sameEval(ev, refSeen[i]) {
				t.Fatalf("kill=%d: surviving record %d diverges from reference", kill, i)
			}
		}

		// Resume from the survivors with a fresh evaluator.
		atoms3, fe3, opts3 := crashTarget()
		opts3.Warm = warmFrom(seen1)
		out2, seen2, replays2, fault2 := journaled(atoms3, fe3, opts3)
		if fault2 != nil {
			t.Fatalf("kill=%d: resumed run faulted", kill)
		}
		if len(seen2) != total {
			t.Fatalf("kill=%d: resumed run logged %d evals, want %d", kill, len(seen2), total)
		}
		for i := range seen2 {
			if !sameEval(seen2[i], refSeen[i]) {
				t.Fatalf("kill=%d: resumed eval %d = %+v, reference %+v", kill, i, seen2[i], refSeen[i])
			}
			if replays2[i] && i >= len(seen1) {
				t.Fatalf("kill=%d: eval %d marked replayed but was never journaled", kill, i)
			}
			if !replays2[i] && i < len(seen1) {
				t.Fatalf("kill=%d: journaled eval %d re-evaluated on resume", kill, i)
			}
		}
		if int(fe3.calls.Load()) != total-len(seen1) {
			t.Fatalf("kill=%d: evaluator ran %d times on resume, want %d fresh",
				kill, fe3.calls.Load(), total-len(seen1))
		}
		if fmt.Sprint(out2.Minimal) != fmt.Sprint(ref.Minimal) {
			t.Fatalf("kill=%d: minimal %v, reference %v", kill, out2.Minimal, ref.Minimal)
		}
		if out2.Converged != ref.Converged {
			t.Fatalf("kill=%d: converged %v, reference %v", kill, out2.Converged, ref.Converged)
		}
	}
}

// TestKillUnderParallelism: with concurrent evaluation the fault fires at
// a nondeterministic point, but the flushed records must still be an
// exact prefix of the deterministic evaluation order, and resume must
// still reproduce the reference sequence.
func TestKillUnderParallelism(t *testing.T) {
	atoms, fe, opts := crashTarget()
	ref, refSeen, _, fault := journaled(atoms, fe, opts)
	if fault != nil {
		t.Fatal("reference run faulted")
	}
	for _, kill := range []int64{1, 3, 7, 12} {
		atoms2, _, opts2 := crashTarget()
		_, fe2, _ := crashTarget()
		opts2.Parallelism = 8
		inj := &FaultInjector{Inner: fe2, Limit: kill}
		_, seen1, _, fault1 := journaled(atoms2, inj, opts2)
		if fault1 == nil {
			t.Fatalf("kill=%d: fault did not fire", kill)
		}
		for i, ev := range seen1 {
			if !sameEval(ev, refSeen[i]) {
				t.Fatalf("kill=%d par=8: flushed record %d is not the reference prefix", kill, i)
			}
		}

		atoms3, fe3, opts3 := crashTarget()
		opts3.Warm = warmFrom(seen1)
		opts3.Parallelism = 8
		out2, seen2, _, fault2 := journaled(atoms3, fe3, opts3)
		if fault2 != nil {
			t.Fatalf("kill=%d: resumed run faulted", kill)
		}
		if len(seen2) != len(refSeen) {
			t.Fatalf("kill=%d par=8: resumed %d evals, want %d", kill, len(seen2), len(refSeen))
		}
		for i := range seen2 {
			if !sameEval(seen2[i], refSeen[i]) {
				t.Fatalf("kill=%d par=8: resumed eval %d diverges", kill, i)
			}
		}
		if fmt.Sprint(out2.Minimal) != fmt.Sprint(ref.Minimal) {
			t.Fatalf("kill=%d par=8: minimal %v, want %v", kill, out2.Minimal, ref.Minimal)
		}
	}
}

// TestFullWarmReplayNeverEvaluates: resuming a journal of a *finished*
// search replays the whole log without a single evaluator call.
func TestFullWarmReplayNeverEvaluates(t *testing.T) {
	atoms, fe, opts := crashTarget()
	ref, refSeen, _, _ := journaled(atoms, fe, opts)

	atoms2, fe2, opts2 := crashTarget()
	opts2.Warm = warmFrom(refSeen)
	out, seen, replays, fault := journaled(atoms2, fe2, opts2)
	if fault != nil {
		t.Fatal("replay faulted")
	}
	if fe2.calls.Load() != 0 {
		t.Errorf("full replay called the evaluator %d times", fe2.calls.Load())
	}
	if len(seen) != len(refSeen) {
		t.Fatalf("replayed %d evals, want %d", len(seen), len(refSeen))
	}
	for i, r := range replays {
		if !r {
			t.Fatalf("eval %d not marked replayed", i)
		}
	}
	if fmt.Sprint(out.Minimal) != fmt.Sprint(ref.Minimal) {
		t.Errorf("replayed minimal %v, want %v", out.Minimal, ref.Minimal)
	}
}

// TestFaultErrorMode: in FaultError mode the injector degrades to
// returning error-status evaluations, which the search records and
// rejects without crashing.
func TestFaultErrorMode(t *testing.T) {
	atoms, fe, opts := crashTarget()
	inj := &FaultInjector{Inner: fe, Limit: 4, Mode: FaultError}
	out, seen, _, fault := journaled(atoms, inj, opts)
	if fault != nil {
		t.Fatal("FaultError mode must not panic")
	}
	if out == nil {
		t.Fatal("no outcome")
	}
	nerr := 0
	for _, ev := range seen {
		if ev.Status == StatusError && ev.Detail == "injected fault" {
			nerr++
		}
	}
	if nerr == 0 {
		t.Error("no injected error evaluations recorded")
	}
	if inj.Calls() <= 4 {
		t.Errorf("Calls() = %d, want > limit", inj.Calls())
	}
}

// TestFlakyModeDeterministicPerAttempt: the flaky kill decision is a
// pure function of (seed, key, attempt): two injectors with the same
// seed agree everywhere, attempt numbers advance per key, and the
// boundary rates behave (0 never fires, 1 always fires).
func TestFlakyModeDeterministicPerAttempt(t *testing.T) {
	a := transform.Assignment{"m.p.v01": 4}
	probe := func(inj *FaultInjector) (killed []bool) {
		for i := 0; i < 8; i++ {
			func() {
				defer func() {
					if r := recover(); r != nil {
						f := r.(*InjectedFault)
						if f.Key != a.Key() || f.Attempt != int64(i+1) {
							t.Fatalf("fault = %+v at attempt %d", f, i+1)
						}
						if f.Persistent {
							t.Fatal("flaky fault marked persistent")
						}
						killed = append(killed, true)
					}
				}()
				inj.Evaluate(a)
				killed = append(killed, false)
			}()
		}
		return
	}
	atoms, fe, _ := crashTarget()
	_ = atoms
	i1 := &FaultInjector{Inner: fe, Mode: FaultFlaky, Rate: 0.5, Seed: 9}
	i2 := &FaultInjector{Inner: fe, Mode: FaultFlaky, Rate: 0.5, Seed: 9}
	k1, k2 := probe(i1), probe(i2)
	if fmt.Sprint(k1) != fmt.Sprint(k2) {
		t.Errorf("same seed, different kill pattern: %v vs %v", k1, k2)
	}
	varies := false
	for _, k := range k1 {
		if k != k1[0] {
			varies = true
		}
	}
	if !varies {
		t.Errorf("kill pattern %v does not vary across attempts (rate 0.5, 8 attempts)", k1)
	}
	for _, k := range probe(&FaultInjector{Inner: fe, Mode: FaultFlaky, Rate: 0, Seed: 9}) {
		if k {
			t.Fatal("rate 0 fired")
		}
	}
	for _, k := range probe(&FaultInjector{Inner: fe, Mode: FaultFlaky, Rate: 1, Seed: 9}) {
		if !k {
			t.Fatal("rate 1 did not fire")
		}
	}
}

// TestCrashKeyMode: the poisoned key panics with a persistent fault on
// every attempt and a stable message; other keys evaluate normally.
func TestCrashKeyMode(t *testing.T) {
	_, fe, _ := crashTarget()
	poison := transform.Assignment{"m.p.v01": 4}
	inj := &FaultInjector{Inner: fe, Mode: FaultCrashKey, CrashKey: poison.Key()}
	if ev := inj.Evaluate(transform.Assignment{"m.p.v02": 4}); ev.Status != StatusPass {
		t.Fatalf("healthy key status = %v", ev.Status)
	}
	var msgs []string
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("poisoned key did not panic")
				}
				f := r.(*InjectedFault)
				if !f.Persistent || f.Transient() {
					t.Fatalf("crash-key fault = %+v, want persistent", f)
				}
				msgs = append(msgs, f.Error())
			}()
			inj.Evaluate(poison)
		}()
	}
	if msgs[0] != msgs[1] {
		t.Errorf("persistent fault message unstable across attempts: %q vs %q — quarantine details must be byte-identical across resumes", msgs[0], msgs[1])
	}
}

// TestBruteForceRejectsHugeAtomCount pins the 1<<n overflow guard.
func TestBruteForceRejectsHugeAtomCount(t *testing.T) {
	atoms := mkAtoms(MaxBruteForceAtoms + 1)
	fe := &fakeEval{atoms: atoms}
	log, err := BruteForce(nil, fe, atoms, 1)
	if err == nil {
		t.Fatal("BruteForce accepted 25 atoms (2^25 variants)")
	}
	if log != nil {
		t.Error("failed BruteForce returned a log")
	}
	if fe.calls.Load() != 0 {
		t.Errorf("evaluator ran %d times before the guard", fe.calls.Load())
	}
	// Far over the limit — the pre-fix code would compute 1<<64 == 0 or
	// panic on makeslice; now it must error cleanly.
	if _, err := BruteForce(nil, fe, mkAtoms(64), 1); err == nil {
		t.Error("BruteForce accepted 64 atoms")
	}
}
