package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	ft "repro/internal/fortran"
	"repro/internal/interp"
	"repro/internal/journal"
	"repro/internal/models"
	"repro/internal/perfmodel"
	"repro/internal/search"
	"repro/internal/transform"
)

// Layer span names. They are the repository's package names, so a
// per-layer figure points at the code that produced it.
const (
	spanParse     = "fortran.parse"
	spanBaseline  = "core.baseline"
	spanUniform32 = "core.uniform32"
	spanEval      = "eval"
	spanApply     = "transform.apply"
	spanNew       = "interp.new"
	spanRun       = "interp.run"
	spanExtract   = "models.extract_compare"
	spanAppend    = "journal.append"
)

// evalLayers are the layers an evaluation passes through in process.
var evalLayers = []string{spanApply, spanNew, spanRun, spanExtract}

// replayer re-executes a tuner's set-up and evaluations through the
// program's public layers, one span per call, and counts interpreter
// work. It mirrors what core.New and Tuner.Evaluate do, except the
// Eq. (1) noise model, whose speedups it therefore does not check.
type replayer struct {
	m         *models.Model
	rec       *recorder
	machine   *perfmodel.Model
	prog      *ft.Program
	baseOut   []float64
	cycles    float64 // baseline simulated cycles
	threshold float64

	runs, steps     int64
	runTime         time.Duration
	mallocs, allocB uint64
}

// replaySetup replays core.New's layers: parse, the profiled baseline
// run and, for models whose threshold comes from it, the uniform 32-bit
// build. It checks the result against the tuner's own baseline.
func replaySetup(m *models.Model, t *core.Tuner, rec *recorder) (*replayer, error) {
	r := &replayer{m: m, rec: rec, machine: perfmodel.Default(), threshold: t.BaselineInfo().Threshold}
	var err error
	rec.timed(spanParse, func() { r.prog, err = m.Parse() })
	if err != nil {
		return nil, err
	}
	rec.timed(spanBaseline, func() {
		var in *interp.Interp
		var res *interp.Result
		if in, err = interp.New(r.prog, interp.Config{Model: r.machine, TrapNonFinite: true, Profile: true}); err != nil {
			return
		}
		if res, err = in.Run(); err != nil {
			return
		}
		r.cycles = res.Cycles
		r.baseOut, err = m.Extract(in)
	})
	if err != nil {
		return nil, fmt.Errorf("%s: baseline replay: %w", m.Name, err)
	}
	if want := t.BaselineInfo().TotalCycles; r.cycles != want {
		return nil, fmt.Errorf("%s: baseline replay took %g simulated cycles, the tuner %g", m.Name, r.cycles, want)
	}
	if m.ThresholdMode == models.ThresholdUniform32 {
		rec.timed(spanUniform32, func() {
			var v *transform.Result
			var in *interp.Interp
			var out []float64
			if v, err = transform.Apply(r.prog, transform.Uniform(transform.Atoms(r.prog), 4)); err != nil {
				return
			}
			if in, err = interp.New(v.Prog, interp.Config{Model: r.machine, TrapNonFinite: true}); err != nil {
				return
			}
			if _, err = in.Run(); err != nil {
				return
			}
			if out, err = m.Extract(in); err != nil {
				return
			}
			_, err = m.Compare(r.baseOut, out)
		})
		if err != nil {
			return nil, fmt.Errorf("%s: uniform-32 replay: %w", m.Name, err)
		}
	}
	return r, nil
}

// evaluate replays one evaluation inside an "eval" span and returns
// its outcome (without a speedup).
func (r *replayer) evaluate(a transform.Assignment) *search.Evaluation {
	eid := r.rec.begin(spanEval)
	defer r.rec.end(eid)
	ev := &search.Evaluation{Assignment: a, Lowered: a.Lowered()}
	var v *transform.Result
	var err error
	r.rec.timed(spanApply, func() { v, err = transform.Apply(r.prog, a) })
	if err != nil {
		ev.Status, ev.Detail = search.StatusError, "transform: "+err.Error()
		return ev
	}
	var in *interp.Interp
	r.rec.timed(spanNew, func() {
		in, err = interp.New(v.Prog, interp.Config{
			Model: r.machine, TrapNonFinite: true, Profile: true, CycleBudget: 3 * r.cycles,
		})
	})
	if err != nil {
		ev.Status, ev.Detail = search.StatusError, err.Error()
		return ev
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var res *interp.Result
	r.runTime += r.rec.timed(spanRun, func() { res, err = in.Run() })
	runtime.ReadMemStats(&ms1)
	r.runs++
	r.mallocs += ms1.Mallocs - ms0.Mallocs
	r.allocB += ms1.TotalAlloc - ms0.TotalAlloc
	if res != nil {
		r.steps += res.Steps
	}
	if err != nil {
		ev.Status = search.StatusError
		if re, ok := err.(*interp.RunError); ok && re.Kind == interp.FailTimeout {
			ev.Status = search.StatusTimeout
		}
		ev.Detail = err.Error()
		return ev
	}
	r.rec.timed(spanExtract, func() {
		var out []float64
		if out, err = r.m.Extract(in); err == nil {
			ev.RelError, err = r.m.Compare(r.baseOut, out)
		}
	})
	switch {
	case err != nil:
		ev.Status, ev.Detail = search.StatusError, err.Error()
	case ev.RelError <= r.threshold:
		ev.Status = search.StatusPass
	default:
		ev.Status = search.StatusFail
	}
	if err == nil {
		ev.Detail = fmt.Sprintf("wrappers=%d casts=%d", v.Wrappers, res.Casts)
	}
	return ev
}

// sameOutcome reports whether a replayed outcome equals the recorded
// one in everything the replay reproduces; seq numbers the evaluation
// in the error.
func sameOutcome(got, want *search.Evaluation, seq int) error {
	if got.Status != want.Status || got.Detail != want.Detail || got.Lowered != want.Lowered ||
		math.Float64bits(got.RelError) != math.Float64bits(want.RelError) {
		return fmt.Errorf("evaluation %d: replayed %s %g %q, recorded %s %g %q",
			seq, got.Status, got.RelError, got.Detail, want.Status, want.RelError, want.Detail)
	}
	return nil
}

// replayJournal appends every recorded evaluation to a fresh journal at
// path, one span per append, and returns the journal's digest: equal to
// the tune's own journal when the records round-trip.
func replayJournal(path string, t *core.Tuner, m *models.Model, log []*search.Evaluation, rec *recorder) (string, error) {
	fp := t.Fingerprint()
	j, err := journal.Create(path, journal.Header{Fingerprint: fp, Model: m.Name})
	if err != nil {
		return "", err
	}
	for _, ev := range log {
		rec.timed(spanAppend, func() { err = j.Append(journal.FromEvaluation(fp, ev)) })
		if err != nil {
			j.Close()
			return "", err
		}
	}
	if err := j.Close(); err != nil {
		return "", err
	}
	return fileDigest(path)
}
