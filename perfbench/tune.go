package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/search"
)

// tuneRun is one crash-safe tune: core.New, then Tuner.Run with a
// journal and a decision log, at Parallelism 1.
type tuneRun struct {
	tuner *core.Tuner
	setup time.Duration   // core.New
	wall  time.Duration   // Tuner.Run, less a traced tune's time in its hook
	cpu   time.Duration   // process CPU during Run
	evals []time.Duration // between successive Progress completions
	log   []*search.Evaluation
	err   error // Run's error, or a mismatching outcome digest
}

// tuneTrace instruments a traced tune: spans go to rec, and hook runs
// after every evaluation, right after the tuner's own, so that the two
// are measured on the same host conditions. The hook's time is left out
// of the evaluation intervals and of the tune's wall time.
type tuneTrace struct {
	rec      *recorder
	hook     func(ev *search.Evaluation)
	hookTime time.Duration
}

// tune runs one tune of w in dir and checks its journal against the
// reference digest. tt is nil for an untraced tune.
func tune(w workload, seed int64, dir string, ref *refFile, tt *tuneTrace) (*tuneRun, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tr := &tuneRun{}
	journalPath := filepath.Join(dir, "journal.jsonl")
	var rec *recorder
	if tt != nil {
		rec = tt.rec
	}
	var last time.Time
	runSpan := -1
	opts := core.Options{
		Seed:           seed,
		Parallelism:    1,
		MaxEvaluations: w.budget,
		JournalPath:    journalPath,
		DecisionPath:   filepath.Join(dir, "decisions.jsonl"),
		Progress: func(ev *search.Evaluation) {
			now := time.Now()
			tr.evals = append(tr.evals, now.Sub(last))
			if tt != nil {
				rec.add(spanTuneEval, runSpan, last, now)
				tt.hook(ev)
				after := time.Now()
				tt.hookTime += after.Sub(now)
				now = after
			}
			last = now
		},
	}
	runtime.GC()
	t0 := time.Now()
	id := rec.begin(spanCoreNew)
	t, err := core.New(w.model(), opts)
	rec.end(id)
	tr.setup = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("%s: core.New: %w", w.name, err)
	}
	tr.tuner = t
	runtime.GC()
	cpu0 := cpuTime()
	runSpan = rec.begin(spanTuneRun)
	last = time.Now()
	start := last
	res, err := t.Run(context.Background())
	tr.wall = time.Since(start)
	rec.end(runSpan)
	if tt != nil {
		tr.wall -= tt.hookTime
	}
	tr.cpu = cpuTime() - cpu0
	if err != nil {
		tr.err = fmt.Errorf("%s: Run: %w", w.name, err)
		return tr, nil
	}
	tr.log = res.Outcome.Log.Evals
	if len(tr.log) != len(tr.evals) {
		tr.err = fmt.Errorf("%s: %d evaluations logged, %d reported to Progress", w.name, len(tr.log), len(tr.evals))
		return tr, nil
	}
	d, err := fileDigest(journalPath)
	if err != nil {
		return nil, err
	}
	tr.err = ref.check(w.name, seed, d)
	return tr, nil
}

// setupSamples times n extra core.New calls. The workloads interleave
// them with their tunes or sweeps and take one sample per tune or sweep,
// the mean of its batch: the host's speed switches between two levels
// every few hundred milliseconds, so single short set-ups are bimodal,
// and batch means spread over the run are not.
func setupSamples(m *models.Model, seed int64, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		if _, err := core.New(m, core.Options{Seed: seed}); err != nil {
			return nil, fmt.Errorf("%s: core.New: %w", m.Name, err)
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// measureTunes is the untraced tune workload.
func measureTunes(w workload, seed int64, seconds time.Duration, work string, ref *refFile) (*result, error) {
	r := newResult()
	var setups, tunes, rates, cpus, evalMs []float64
	for i := 0; i < w.iterations(seconds); i++ {
		batch, err := setupSamples(w.model(), seed, w.setups)
		if err != nil {
			return nil, err
		}
		dir := filepath.Join(work, fmt.Sprintf("tune-%d", i))
		tr, err := tune(w, seed, dir, ref, nil)
		if err != nil {
			return nil, err
		}
		os.RemoveAll(dir)
		setups = append(setups, mean(append(batch, tr.setup.Seconds())))
		tunes = append(tunes, tr.wall.Seconds())
		rates = append(rates, float64(len(tr.evals))/tr.wall.Seconds())
		cpus = append(cpus, tr.cpu.Seconds())
		evalMs = append(evalMs, msAll(tr.evals)...)
		r.account(len(tr.evals), tr.err)
	}
	r.note("%d tune(s) of %d evaluation(s) each", len(tunes), len(evalMs)/len(tunes))
	r.note("tune_s samples %.3f; cpu_s samples %.3f", tunes, cpus)
	r.endToEnd(setups, tunes, rates, cpus, evalMs, peakRSSMB())
	return r, nil
}
