package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/search"
	"repro/internal/transform"
)

// leaseTimer times every evaluation it passes to the fleet. A worker
// fault reaches it as a panic (there is no supervisor in front of the
// coordinator); it is counted and recorded as an infrastructure
// outcome, which also makes the sweep's digest mismatch.
type leaseTimer struct {
	inner  search.Evaluator
	rec    *recorder // nil for an untraced sweep
	leases []time.Duration
	faults []string
	// hook, if set, runs after each lease, outside its timing; hookTime
	// is left out of the sweep's wall time.
	hook     func(a transform.Assignment, leased *search.Evaluation, lease time.Duration)
	hookTime time.Duration
}

func (l *leaseTimer) Evaluate(a transform.Assignment) *search.Evaluation {
	id := l.rec.begin(spanLease)
	start := time.Now()
	ev := l.lease(a)
	d := time.Since(start)
	l.rec.end(id)
	l.leases = append(l.leases, d)
	if l.hook != nil {
		l.hook(a, ev, d)
		l.hookTime += time.Since(start) - d
	}
	return ev
}

func (l *leaseTimer) lease(a transform.Assignment) (ev *search.Evaluation) {
	defer func() {
		if p := recover(); p != nil {
			l.faults = append(l.faults, fmt.Sprint(p))
			ev = &search.Evaluation{Assignment: a, Status: search.StatusInfra, Detail: fmt.Sprint(p)}
		}
	}()
	return l.inner.Evaluate(a)
}

// fleetRig is a started one-worker fleet in front of an in-process tuner.
type fleetRig struct {
	tuner      *core.Tuner
	coord      *fleet.Coordinator
	pid        int           // the worker process
	firstLease time.Duration // spawn, handshake and one evaluation
}

// startFleet spawns one `prose worker` over pipes and waits for its
// first lease, so that the sweeps that follow measure a warm worker.
func startFleet(w workload, seed int64, prose string) (*fleetRig, error) {
	t, err := core.New(w.model(), core.Options{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("%s: core.New: %w", w.name, err)
	}
	m := w.model()
	coord, err := fleet.New(fleet.Config{
		Workers: 1,
		Spawn:   fleet.Command(prose, "worker", "-model", m.Name, fmt.Sprintf("-seed=%d", seed)),
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := coord.Start(context.Background(), fleet.Runtime{Local: t, Fingerprint: t.Fingerprint()}); err != nil {
		coord.Close()
		return nil, err
	}
	rig := &fleetRig{tuner: t, coord: coord}
	warm := &leaseTimer{inner: coord}
	warm.Evaluate(transform.Uniform(t.Atoms(), 8))
	rig.firstLease = time.Since(start)
	if len(warm.faults) > 0 {
		coord.Close()
		return nil, fmt.Errorf("%s: first lease failed: %s", w.name, warm.faults[0])
	}
	for _, h := range coord.Health() {
		rig.pid = h.Pid
	}
	return rig, nil
}

// cpu is the CPU time of this process plus the live worker's.
func (f *fleetRig) cpu() time.Duration { return cpuTime() + procCPU(f.pid) }

// sweep runs the paper's Fig. 2 exhaustive sweep through the fleet,
// timed by lt, and checks its ordered outcomes against the reference
// digest. The wall time leaves out lt's hook.
func (f *fleetRig) sweep(w workload, seed int64, ref *refFile, lt *leaseTimer) ([]*search.Evaluation, time.Duration, error) {
	lt.inner = f.coord
	start := time.Now()
	log, err := search.BruteForce(context.Background(), lt, f.tuner.Atoms(), 1)
	wall := time.Since(start) - lt.hookTime
	if err != nil {
		return nil, 0, err
	}
	if len(lt.faults) > 0 {
		return log.Evals, wall, fmt.Errorf("%s: %d worker fault(s), first: %s", w.name, len(lt.faults), lt.faults[0])
	}
	return log.Evals, wall, ref.check(w.name, seed, sweepDigest(log.Evals))
}

// settle closes the fleet and reports a degrade: evaluations answered
// in-process were not leased, so the run did not measure the fleet.
func (f *fleetRig) settle() (fleet.Stats, error) {
	f.coord.Close()
	st := f.coord.Stats()
	if st.Degraded || st.LocalEvals > 0 {
		return st, fmt.Errorf("fleet degraded to in-process evaluation (%d local): %s", st.LocalEvals, st.DegradeDetail)
	}
	return st, nil
}

// measureFleet is the untraced funarc-fleet workload: sweeps through
// one warm worker.
func measureFleet(w workload, seed int64, seconds time.Duration, prose string, ref *refFile) (*result, error) {
	r := newResult()
	rig, err := startFleet(w, seed, prose)
	if err != nil {
		return nil, err
	}
	defer rig.coord.Close()
	var setups, sweeps, rates, cpus, leaseMs []float64
	for i := 0; i < w.iterations(seconds); i++ {
		batch, err := setupSamples(w.model(), seed, w.setups)
		if err != nil {
			return nil, err
		}
		setups = append(setups, mean(batch))
		cpu0 := rig.cpu()
		lt := &leaseTimer{}
		evals, wall, err := rig.sweep(w, seed, ref, lt)
		if evals == nil {
			return nil, err
		}
		cpus = append(cpus, (rig.cpu() - cpu0).Seconds())
		sweeps = append(sweeps, wall.Seconds())
		rates = append(rates, float64(len(evals))/wall.Seconds())
		leaseMs = append(leaseMs, msAll(lt.leases)...)
		r.account(len(evals), err)
	}
	rss := peakRSSMB() + procPeakRSSMB(rig.pid)
	if st, err := rig.settle(); err != nil {
		r.Failed += int(st.LocalEvals)
		r.account(0, err)
	}
	r.note("%d sweep(s) of %d leases each through 1 pipe worker", len(sweeps), len(leaseMs)/len(sweeps))
	r.note("tune_s samples %.3f; cpu_s samples %.3f", sweeps, cpus)
	r.endToEnd(setups, sweeps, rates, cpus, leaseMs, rss)
	return r, nil
}
