// Package core is the public face of the PROSE-Go precision tuner: it
// wires the paper's tuning cycle together (Fig. 1 / artifact tasks
// T0-T4) for a given model:
//
//	T0  parse the model, enumerate search atoms, profile the baseline;
//	T1  the delta-debugging search proposes precision assignments;
//	T2  the transformer generates each mixed-precision variant
//	    (kind rewriting + wrapper insertion);
//	T3  the interpreter + machine model evaluate the variant's
//	    performance (simulated cycles, GPTL regions) and correctness
//	    (§IV-A metrics vs. the baseline);
//	T4  outcomes feed back into the search until a 1-minimal variant
//	    is found or the budget expires.
package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/fleet"
	ft "repro/internal/fortran"
	"repro/internal/gptl"
	"repro/internal/interp"
	"repro/internal/journal"
	"repro/internal/ledger"
	"repro/internal/models"
	"repro/internal/numerics"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/resilience"
	"repro/internal/search"
	"repro/internal/transform"
)

// Options configures a tuning run.
type Options struct {
	// WholeModel guides the search by whole-model time instead of
	// hotspot CPU time (the §IV-C / Fig. 7 experiment).
	WholeModel bool
	// MaxEvaluations overrides the model's evaluation budget (0 keeps
	// the model default; negative means unlimited).
	MaxEvaluations int
	// MinSpeedup is the performance criterion (default 1.0: variants
	// slower than the baseline are rejected, as in the paper).
	MinSpeedup float64
	// Seed drives the Eq. (1) runtime-noise model. Each variant's noise
	// stream is derived from Seed and the variant's canonical key, so
	// results are independent of evaluation order and parallelism.
	Seed int64
	// Parallelism bounds concurrent variant evaluations (default 1).
	Parallelism int
	// Machine overrides the default machine model.
	Machine *perfmodel.Model
	// Progress, if non-nil, receives one call per distinct variant.
	// Evaluations replayed from a resumed journal are not re-run and do
	// not reach Progress.
	Progress func(ev *search.Evaluation)

	// JournalPath, if non-empty, makes the search crash-safe: every
	// distinct variant evaluation is appended to an append-only JSONL
	// journal at this path and fsync'd before the search proceeds, and
	// an atomic checkpoint of search progress is kept at
	// JournalPath+".ckpt". A run killed at any point (the paper's
	// 12-hour job limit killed the MOM6 search and lost everything)
	// leaves a journal from which Resume continues without re-running
	// any evaluated variant.
	JournalPath string
	// Resume warm-starts from an existing journal at JournalPath: the
	// search replays the journaled evaluations to the point the
	// previous run died, then continues. The journal's baseline
	// fingerprint (program source, machine model, seed, search options)
	// must match this run's, or it is rejected as stale rather than
	// silently reused. Parallelism is deliberately not fingerprinted:
	// evaluation logs are identical at every parallelism level.
	Resume bool

	// WrapEvaluator, if non-nil, wraps the tuner's variant evaluator
	// before the search runs — the instrumentation seam used by the
	// crash-safety fault-injection tests, and available for caching or
	// screening layers.
	WrapEvaluator func(search.Evaluator) search.Evaluator

	// Retries enables the resilience supervisor and bounds retries of
	// transient infrastructure faults (worker panics) per evaluation.
	// Variant outcomes — fail/timeout/error evaluations *returned* by
	// the evaluator — are deterministic properties of the assignment and
	// are never retried, so Table II statistics are unaffected. Like
	// Parallelism, the resilience knobs are not fingerprinted: they do
	// not shape the evaluation stream, so a journal recorded under one
	// retry policy resumes correctly under any other.
	Retries int
	// FailFast trips the circuit breaker on the first hard
	// infrastructure failure (equivalent to Breaker=1).
	FailFast bool
	// Breaker trips the circuit breaker after this many consecutive
	// hard infrastructure failures, failing fast with a partial report
	// (0 disables unless FailFast is set). Setting it enables the
	// supervisor even with Retries=0.
	Breaker int
	// MaxQuarantined aborts the search once more than this many
	// distinct assignments are quarantined (0 = unlimited).
	MaxQuarantined int
	// RetryBackoff is the base retry delay (0 = the supervisor default;
	// tests set ~1ns to avoid real sleeps). Jitter is seeded per
	// assignment, so retried runs stay deterministic.
	RetryBackoff time.Duration
	// RetriesByClass overrides Retries per fault kind (see
	// resilience.FaultKindOf and resilience.DefaultRetryBudgets): a
	// scheduler kill usually deserves more retries than an OOM.
	RetriesByClass map[string]int
	// Watchdog bounds each evaluation attempt's wall-clock time; a hung
	// worker is abandoned and treated as a transient infrastructure
	// fault. Setting it enables the supervisor.
	Watchdog time.Duration
	// HalfOpen makes a tripped circuit breaker probe one evaluation
	// (after a cooldown) instead of aborting outright; the search
	// resumes if the probe succeeds.
	HalfOpen bool
	// DrainGrace is how long in-flight evaluations may keep running
	// after the run's context is cancelled before they are hard-stopped
	// mid-flight (interpreter unwinds with a cancellation fault). 0
	// lets in-flight evaluations drain to completion; the soft stop —
	// no *new* evaluation starts — always applies immediately.
	DrainGrace time.Duration

	// Trace, if non-nil, collects a hierarchical span trace of the run
	// (tune → search.round → batch → eval → interp.run, plus retry and
	// journal.append spans). Metrics, if non-nil, collects counters,
	// gauges, and histograms; the final snapshot lands in
	// Result.Metrics. Like Parallelism and the resilience knobs, neither
	// is fingerprinted, and neither may perturb the evaluation stream or
	// the journal bytes: they are strictly observational (test-enforced
	// by TestTracingDoesNotPerturbJournal).
	Trace   *obs.Tracer
	Metrics *obs.Registry

	// Numerics attaches a shadow-execution recorder to every
	// interpreter run: each evaluation's eval span gains numeric_*
	// attributes (FP error, cancellations, non-finite provenance) and
	// Metrics gains the numeric_* counters. Like Trace/Metrics it is
	// strictly observational — not fingerprinted, and it may not
	// perturb the evaluation stream or the journal bytes
	// (test-enforced by TestNumericsDoesNotPerturbJournal).
	Numerics bool

	// Engine selects the interpreter execution engine for every run the
	// tuner makes (baseline, uniform-32 build, variants). The zero value
	// (interp.EngineVM) is the compiled engine; interp.EngineAST keeps
	// the reference tree-walker. Deliberately not fingerprinted: the two
	// engines are bit-for-bit equivalent by contract, so a journal
	// recorded under one engine resumes byte-identically under the other
	// (test-enforced by TestEngineJournalByteIdentity).
	Engine interp.Engine

	// DecisionPath, if non-empty, streams the search's per-round decision
	// telemetry (candidate lifecycle, funnel tallies, best-so-far,
	// frontier) to an append-only JSONL sidecar at this path — see
	// internal/ledger. Like Trace/Metrics it is strictly observational:
	// not fingerprinted, journal bytes unchanged. The file is recreated
	// on every run, Resume included: the stream derives only from the
	// deterministic evaluation log, so a resumed run rewrites it
	// byte-identically to an uninterrupted run's (test-enforced by
	// TestDecisionLogKillResumeByteIdentical).
	DecisionPath string
	// LedgerDir, if non-empty, archives the run into the content-
	// addressed run ledger at this directory when Run returns: a
	// manifest carrying the fingerprint, machine, engine, result
	// summary, final metrics snapshot (with histogram quantiles), fleet
	// stats, and the decision-log digest. See internal/ledger and
	// `prose runs` / `prose compare`.
	LedgerDir string

	// Fleet, if non-nil, shards every variant evaluation across this
	// coordinator's worker subprocesses instead of running it in-process.
	// The tuner starts the coordinator when Run begins (handing it the
	// in-process evaluator as the degrade fallback and the run
	// fingerprint for the worker handshake) and closes it before Run
	// returns. Worker deaths, missed heartbeats, and expired leases
	// surface as transient infrastructure faults to the resilience
	// supervisor — a fleet run always supervises, and when no retry knob
	// is set it gets DefaultFleetRetries with the per-kind defaults — so
	// a lease reassignment is just a supervised retry. Like Parallelism,
	// the fleet is not fingerprinted: workers reproduce the
	// coordinator's evaluations bit for bit, so the journal is
	// byte-identical at any pool size, worker crashes included
	// (test-enforced by TestFleetJournalByteIdentity). ProcVariants
	// (Fig. 6) stays empty in fleet mode: per-procedure points are
	// accumulated inside each worker's tuner and are not shipped back.
	Fleet *fleet.Coordinator
}

// DefaultFleetRetries is the retry base a fleet run uses when no
// explicit retry knob is set: killed workers are routine, so the leases
// they held must be reassigned a few times before anyone concludes an
// assignment is poisoned.
const DefaultFleetRetries = 3

// supervising reports whether any resilience knob enables the
// supervisor.
func (o Options) supervising() bool {
	return o.Retries > 0 || o.FailFast || o.Breaker > 0 || o.MaxQuarantined > 0 ||
		o.Watchdog > 0 || len(o.RetriesByClass) > 0 || o.Fleet != nil
}

// Baseline summarizes the instrumented baseline run (Table I data).
type Baseline struct {
	TotalCycles   float64
	HotspotCycles float64
	HotspotShare  float64 // fraction of CPU time in the hotspot
	AtomCount     int
	Threshold     float64
	Regions       []*gptl.Region
}

// ProcPoint is one unique per-procedure variant measurement (Fig. 6):
// the average CPU time per call of a hotspot procedure under a unique
// precision assignment of that procedure's own variables.
type ProcPoint struct {
	Key        string  // canonical sub-assignment (lowered atoms of the proc)
	Lowered    int     // this procedure's atoms at 32-bit
	PerCall    float64 // cycles per call (self + its wrappers)
	Speedup    float64 // baseline per-call / variant per-call
	FromIndex  int     // evaluation that first produced this point
	CallsSeen  int64
	FailStatus search.Status // status of the producing variant
}

// Result is a completed tuning run.
type Result struct {
	Model    *models.Model
	Options  Options
	Baseline *Baseline
	Outcome  *search.Outcome
	// ProcVariants maps hotspot procedure qualified names to their
	// unique per-procedure variants (Fig. 6 series), each slice sorted
	// by FromIndex so results are independent of evaluation order.
	ProcVariants map[string][]ProcPoint
	// Criteria used by the search.
	Criteria search.Criteria
	// Resumed is the number of evaluations replayed from the journal
	// instead of re-run (0 unless Options.Resume found prior work).
	Resumed int
	// Salvaged is the number of evaluations recovered from the events
	// sidecar of an aborted prior run and replayed without re-running.
	Salvaged int
	// Resilience snapshots the supervisor counters (nil when the run
	// was not supervised).
	Resilience *resilience.Stats
	// Aborted is set when the supervisor terminated the search early
	// (circuit breaker / quarantine budget) and the search returned the
	// abort as its error; the Result then holds the partial work
	// completed before the abort, and Run returns the same value as its
	// error.
	Aborted *resilience.AbortError
	// Cancelled is set when the run's context was cancelled — a signal
	// or an expired wall-clock budget stopped the search in an orderly
	// fashion, and the search returned the stop as its error. The Result
	// holds the partial work completed (and journaled) before the stop,
	// and Run returns the same value as its error; with a journal, a
	// -resume run completes the search and produces a byte-identical
	// journal.
	Cancelled *search.Cancelled
	// Metrics is the final snapshot of Options.Metrics (nil when the run
	// collected no metrics); Render embeds it in the report.
	Metrics *obs.Snapshot
	// Fleet snapshots the worker-fleet counters (nil when the run did
	// not shard evaluations across worker subprocesses).
	Fleet *fleet.Stats
}

// Tuner runs the full tuning cycle for one model.
type Tuner struct {
	model   *models.Model
	machine *perfmodel.Model
	opts    Options

	prog          *ft.Program
	atoms         []transform.Atom
	hotspotProcs  map[string]bool
	entryProcs    map[string]bool // hotspot procs called from outside
	baseOut       []float64
	baseline      *Baseline
	baseProcPC    map[string]float64 // baseline per-call by proc
	baseProcCalls map[string]int64
	baseTimeEq1   float64 // Eq. (1) numerator (median of n noisy samples)

	mu         sync.Mutex // guards procPoints, evalSeq, Progress calls
	evalSeq    int
	procPoints map[string]map[string]*ProcPoint
	procAtoms  map[string][]string // proc -> its atom qnames

	// runCtx is the hard-cancellation context of the current Run: once
	// it is done, in-flight interpreter runs unwind with FailCancelled.
	// Written once before the search spawns workers (the go statement
	// establishes the happens-before), nil when Options.DrainGrace is 0.
	runCtx context.Context
}

// New prepares a tuner: parses the model, enumerates atoms, runs and
// profiles the baseline, and determines the error threshold.
func New(m *models.Model, opts Options) (*Tuner, error) {
	if opts.Machine == nil {
		opts.Machine = perfmodel.Default()
	}
	if opts.MinSpeedup == 0 {
		opts.MinSpeedup = 1.0
	}
	t := &Tuner{
		model:      m,
		machine:    opts.Machine,
		opts:       opts,
		procPoints: make(map[string]map[string]*ProcPoint),
	}
	prog, err := m.Parse()
	if err != nil {
		return nil, err
	}
	t.prog = prog
	t.atoms = transform.Atoms(prog, m.Hotspot)
	if len(t.atoms) == 0 {
		return nil, fmt.Errorf("core: model %s has no tunable atoms in module %q", m.Name, m.Hotspot)
	}

	t.hotspotProcs = make(map[string]bool)
	for _, q := range m.HotspotProcs(prog) {
		t.hotspotProcs[q] = true
	}
	t.entryProcs = entryProcs(prog, m.Hotspot)

	// Atom list per procedure, for the Fig. 6 sub-assignment keys.
	t.procAtoms = make(map[string][]string)
	for _, a := range t.atoms {
		var owner string
		if a.Decl.Proc != nil {
			owner = a.Decl.Proc.QName()
		} else {
			// Module-level variables influence every procedure that
			// could touch them; attribute them to the module pseudo-proc.
			owner = m.Hotspot + ".<module>"
		}
		t.procAtoms[owner] = append(t.procAtoms[owner], a.QName)
	}

	if err := t.runBaseline(); err != nil {
		return nil, err
	}
	t.baseTimeEq1 = t.noiseFor("baseline").MedianOfN(
		t.measuredTime(t.baseline.HotspotCycles, t.baseline.TotalCycles), m.NRuns)
	return t, nil
}

// noiseFor derives a deterministic runtime-noise stream for one variant
// from the tuner seed and the variant's canonical key, making measured
// speedups independent of evaluation order and parallelism.
func (t *Tuner) noiseFor(key string) *perfmodel.Noise {
	h := fnv.New64a()
	h.Write([]byte(key))
	return perfmodel.NewNoise(t.model.NoiseRel, t.opts.Seed^int64(h.Sum64()))
}

// Atoms returns the search atoms (hotspot real declarations).
func (t *Tuner) Atoms() []transform.Atom { return t.atoms }

// BaselineInfo returns the baseline profile.
func (t *Tuner) BaselineInfo() *Baseline { return t.baseline }

// Program returns the analyzed baseline program.
func (t *Tuner) Program() *ft.Program { return t.prog }

// entryProcs finds hotspot procedures invoked from outside the hotspot
// module in the baseline: wrappers of these procs marshal data across
// the hotspot boundary, and their cost is excluded from hotspot CPU time
// (the paper's GPTL timers sit inside the original routines).
func entryProcs(prog *ft.Program, hotspot string) map[string]bool {
	out := make(map[string]bool)
	info := ft.MustAnalyze(prog, ft.Options{})
	for _, cs := range info.CallSites {
		if cs.Callee.Module == nil || cs.Callee.Module.Name != hotspot {
			continue
		}
		callerMod := ""
		if cs.Caller != nil && cs.Caller.Module != nil {
			callerMod = cs.Caller.Module.Name
		}
		if callerMod != hotspot {
			out[cs.Callee.QName()] = true
		}
	}
	return out
}

func (t *Tuner) runBaseline() error {
	in, err := interp.New(t.prog, interp.Config{
		Model:         t.machine,
		TrapNonFinite: true,
		Profile:       true,
		Engine:        t.opts.Engine,
	})
	if err != nil {
		return err
	}
	res, err := in.Run()
	if err != nil {
		return fmt.Errorf("core: %s baseline run failed: %w", t.model.Name, err)
	}
	out, err := t.model.Extract(in)
	if err != nil {
		return err
	}
	t.baseOut = out

	hotspot := t.hotspotTime(res, nil)
	t.baseline = &Baseline{
		TotalCycles:   res.Cycles,
		HotspotCycles: hotspot,
		HotspotShare:  hotspot / res.Cycles,
		AtomCount:     len(t.atoms),
		Regions:       res.Timers.Regions(),
	}
	t.baseProcPC = make(map[string]float64)
	t.baseProcCalls = make(map[string]int64)
	for q := range t.hotspotProcs {
		if r := res.Timers.Region(q); r != nil {
			t.baseProcPC[q] = r.PerCall()
			t.baseProcCalls[q] = r.Calls
		}
	}

	// Threshold (§IV-A).
	switch t.model.ThresholdMode {
	case models.ThresholdUniform32:
		th, err := t.uniform32Error()
		if err != nil {
			return err
		}
		f := t.model.ThresholdFactor
		if f == 0 {
			f = 1
		}
		t.baseline.Threshold = th * f
	default:
		t.baseline.Threshold = t.model.Threshold
	}
	return nil
}

// uniform32Error measures the correctness metric of the whole-program
// uniform 32-bit build (the supported single-precision configuration).
func (t *Tuner) uniform32Error() (float64, error) {
	all := transform.Atoms(t.prog)
	v, err := transform.Apply(t.prog, transform.Uniform(all, 4))
	if err != nil {
		return 0, fmt.Errorf("core: uniform-32 build: %w", err)
	}
	in, err := interp.New(v.Prog, interp.Config{Model: t.machine, TrapNonFinite: true, Engine: t.opts.Engine})
	if err != nil {
		return 0, err
	}
	if _, err := in.Run(); err != nil {
		return 0, fmt.Errorf("core: uniform-32 run: %w", err)
	}
	out, err := t.model.Extract(in)
	if err != nil {
		return 0, err
	}
	return t.model.Compare(t.baseOut, out)
}

// hotspotTime computes the hotspot CPU time of a run: self time of the
// hotspot module's baseline procedures plus the wrappers of *internal*
// hotspot procedures. Boundary wrappers (around entry procedures) run in
// the caller and are excluded — the blindness that §IV-C exposes.
//
// wrapperOf is the variant's authoritative generated-wrapper map
// (transform.Result.WrapperOf; nil for the wrapper-free baseline).
// Matching against it, rather than against a "_wrapper_" substring,
// keeps a user procedure that merely *looks* like a wrapper (e.g. one
// literally named foo_wrapper_x) from corrupting the attribution.
func (t *Tuner) hotspotTime(res *interp.Result, wrapperOf map[string]string) float64 {
	var sum float64
	for _, r := range res.Timers.Regions() {
		name := r.Name
		if t.hotspotProcs[name] {
			sum += r.Self
			continue
		}
		if callee, ok := wrapperOf[name]; ok && t.hotspotProcs[callee] && !t.entryProcs[callee] {
			sum += r.Self
		}
	}
	return sum
}

// measuredTime selects the guiding time metric.
func (t *Tuner) measuredTime(hotspot, total float64) float64 {
	if t.opts.WholeModel {
		return total
	}
	return hotspot
}

// Evaluate implements search.Evaluator: it generates, "compiles"
// (analyzes), runs, and scores one variant.
func (t *Tuner) Evaluate(a transform.Assignment) *search.Evaluation {
	return t.EvaluateSpan(nil, a)
}

// AttachMetrics implements fleet.MetricsAttacher: a fleet worker's
// tuner starts without a registry and adopts one when the first lease
// arrives with trace context asking for metrics, so the interpreter
// counters it feeds can be shipped back to the coordinator. Worker
// leases run sequentially, so attaching between evaluations is safe.
// Metrics never influence evaluation outcomes or the journal.
func (t *Tuner) AttachMetrics(reg *obs.Registry) {
	t.opts.Metrics = reg
}

// EvaluateSpan implements search.SpanEvaluator: identical to Evaluate,
// additionally attributing the interpreter execution to an "interp.run"
// child of sp and feeding interpreter counters to Options.Metrics. sp
// may be nil; outcomes are identical with or without it.
func (t *Tuner) EvaluateSpan(sp *obs.Span, a transform.Assignment) *search.Evaluation {
	ev := &search.Evaluation{
		Assignment: a,
		Lowered:    a.Lowered(),
		TotalAtoms: len(t.atoms),
	}
	v, err := transform.Apply(t.prog, a)
	if err != nil {
		// The paper's uncompilable variants (ROSE unparsing failures)
		// land here: a variant the toolchain cannot build is an error
		// outcome.
		ev.Status = search.StatusError
		ev.Detail = "transform: " + err.Error()
		t.notify(ev)
		return ev
	}

	var nrec *numerics.Recorder
	if t.opts.Numerics {
		nrec = numerics.NewRecorder(t.model.Name+".ft", numerics.Options{})
	}
	in, err := interp.New(v.Prog, interp.Config{
		Model:         t.machine,
		TrapNonFinite: true,
		Profile:       true,
		CycleBudget:   3 * t.baseline.TotalCycles, // §IV-A: 3x baseline timeout
		Context:       t.runCtx,                   // hard cancellation after the drain grace
		Numerics:      nrec,                       // nil unless Options.Numerics
		Engine:        t.opts.Engine,
	})
	if err != nil {
		ev.Status = search.StatusError
		ev.Detail = err.Error()
		t.notify(ev)
		return ev
	}
	isp := sp.Child(obs.SpanInterpRun)
	res, runErr := in.Run()
	if res != nil {
		isp.AttrFloat("cycles", res.Cycles)
		isp.AttrInt("steps", res.Steps)
	}
	if runErr != nil {
		isp.Attr("error", runErr.Error())
	}
	prof := nrec.Profile() // nil recorder -> nil profile
	if prof != nil {
		isp.AttrInt("numeric_ops", prof.Ops)
		isp.AttrInt("numeric_cancellations", prof.Cancellations)
		isp.AttrInt("numeric_catastrophic", prof.Catastrophic)
		isp.AttrFloat("numeric_max_divergence", prof.MaxDivergence)
		if nf := prof.FirstNonFinite; nf != nil {
			isp.Attr("numeric_first_nonfinite",
				fmt.Sprintf("%s:%d in %s (op %s)", prof.File, nf.Line, nf.Proc, nf.Op))
		}
	}
	isp.End()
	if m := t.opts.Metrics; m != nil {
		m.Counter(obs.MetricInterpRuns).Add(1)
		if res != nil {
			m.Counter(obs.MetricInterpSteps).Add(res.Steps)
		}
		if prof != nil {
			m.Counter(obs.MetricNumericOps).Add(prof.Ops)
			m.Counter(obs.MetricNumericCancellations).Add(prof.Cancellations)
			m.Counter(obs.MetricNumericCatastrophic).Add(prof.Catastrophic)
			m.Counter(obs.MetricNumericBranchDiverg).Add(prof.BranchDivergences)
			m.Counter(obs.MetricNumericDiscretizations).Add(prof.Discretizations)
			m.Counter(obs.MetricNumericNonFinite).Add(prof.NonFinite)
			m.Histogram(obs.HistNumericDivergence).Observe(prof.MaxDivergence)
		}
	}
	if runErr != nil {
		if re, ok := runErr.(*interp.RunError); ok && re.Kind == interp.FailCancelled {
			// Hard cancellation cut this run short. A truncated
			// measurement says nothing about the assignment, so it must
			// never be journaled as a variant outcome: unwind as a
			// cancellation instead (a resumed run re-evaluates it).
			panic(search.NewCancelled(context.Cause(t.runCtx)))
		}
		if re, ok := runErr.(*interp.RunError); ok && re.Kind == interp.FailTimeout {
			ev.Status = search.StatusTimeout
		} else {
			ev.Status = search.StatusError
		}
		ev.Detail = runErr.Error()
		t.recordProcPoints(ev, res, v.WrapperOf)
		t.notify(ev)
		return ev
	}

	out, err := t.model.Extract(in)
	if err == nil {
		ev.RelError, err = t.model.Compare(t.baseOut, out)
	}
	if err != nil {
		ev.Status = search.StatusError
		ev.Detail = err.Error()
		t.recordProcPoints(ev, res, v.WrapperOf)
		t.notify(ev)
		return ev
	}

	varTime := t.noiseFor(a.Key()).MedianOfN(t.measuredTime(t.hotspotTime(res, v.WrapperOf), res.Cycles), t.model.NRuns)
	ev.Speedup = t.baseTimeEq1 / varTime
	if ev.RelError <= t.baseline.Threshold {
		ev.Status = search.StatusPass
	} else {
		ev.Status = search.StatusFail
	}
	ev.Detail = fmt.Sprintf("wrappers=%d casts=%d", v.Wrappers, res.Casts)
	t.recordProcPoints(ev, res, v.WrapperOf)
	t.notify(ev)
	return ev
}

func (t *Tuner) notify(ev *search.Evaluation) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.opts.Progress != nil {
		t.opts.Progress(ev)
	}
}

// recordProcPoints collects Fig. 6 data: for each hotspot procedure,
// the per-call CPU time under this variant's sub-assignment of that
// procedure's own variables (first observation of each unique
// sub-assignment is kept, matching the paper's "unique procedure
// variants"). wrapperOf is the variant's generated-wrapper map; only
// actual generated wrappers contribute to a procedure's wrapper time.
func (t *Tuner) recordProcPoints(ev *search.Evaluation, res *interp.Result, wrapperOf map[string]string) {
	if res == nil || res.Timers == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.evalSeq++
	// Per-proc wrapper self time.
	wrapSelf := make(map[string]float64)
	for _, r := range res.Timers.Regions() {
		if callee, ok := wrapperOf[r.Name]; ok {
			wrapSelf[callee] += r.Self
		}
	}
	for q := range t.hotspotProcs {
		r := res.Timers.Region(q)
		if r == nil || r.Calls == 0 {
			continue
		}
		// Partial runs (errors, timeouts) bias per-call averages when a
		// procedure was cut off mid-schedule; only keep measurements
		// from procedures that ran (most of) their baseline schedule.
		if ev.Status == search.StatusError || ev.Status == search.StatusTimeout {
			if base := t.baseProcCalls[q]; base > 0 && r.Calls*5 < base*4 {
				continue
			}
		}
		key, lowered := t.subKey(q, ev.Assignment)
		pts := t.procPoints[q]
		if pts == nil {
			pts = make(map[string]*ProcPoint)
			t.procPoints[q] = pts
		}
		if _, seen := pts[key]; seen {
			continue
		}
		perCall := (r.Self + wrapSelf[q]) / float64(r.Calls)
		pt := &ProcPoint{
			Key:        key,
			Lowered:    lowered,
			PerCall:    perCall,
			FromIndex:  t.evalSeq,
			CallsSeen:  r.Calls,
			FailStatus: ev.Status,
		}
		if base := t.baseProcPC[q]; base > 0 && perCall > 0 {
			pt.Speedup = base / perCall
		}
		pts[key] = pt
	}
}

// subKey canonicalizes the assignment restricted to one procedure's
// atoms (module-level atoms are included in every procedure's key since
// they affect all of them).
func (t *Tuner) subKey(proc string, a transform.Assignment) (string, int) {
	var parts []string
	lowered := 0
	add := func(qnames []string) {
		for _, q := range qnames {
			if a.KindOf(q, 8) == 4 {
				parts = append(parts, q)
				lowered++
			}
		}
	}
	add(t.procAtoms[proc])
	add(t.procAtoms[t.model.Hotspot+".<module>"])
	return strings.Join(parts, ";"), lowered
}

// Fingerprint identifies everything that shapes the evaluation stream:
// the program source, the machine model, the noise seed, and the search
// options. A journal whose fingerprint differs must not be reused —
// its cached evaluations belong to a different experiment. Parallelism
// is deliberately excluded: evaluation logs are identical at every
// parallelism level, so a journal recorded at one level resumes
// correctly at any other.
func (t *Tuner) Fingerprint() string {
	criteria, budget := t.searchParams()
	return journal.Fingerprint(
		"model="+t.model.Name,
		"source="+t.model.Source,
		"machine="+t.machine.Signature(),
		fmt.Sprintf("seed=%d", t.opts.Seed),
		fmt.Sprintf("wholemodel=%v", t.opts.WholeModel),
		fmt.Sprintf("budget=%d", budget),
		fmt.Sprintf("minspeedup=%g", criteria.MinSpeedup),
		fmt.Sprintf("maxrelerror=%g", criteria.MaxRelError),
		fmt.Sprintf("nruns=%d", t.model.NRuns),
		fmt.Sprintf("noiserel=%g", t.model.NoiseRel),
	)
}

// EvaluationBudget returns the run's resolved evaluation budget
// (0 = unlimited) — what the progress reporter shows as the total.
func (t *Tuner) EvaluationBudget() int {
	_, budget := t.searchParams()
	return budget
}

// searchParams resolves the acceptance criteria and evaluation budget.
func (t *Tuner) searchParams() (search.Criteria, int) {
	criteria := search.Criteria{
		MaxRelError: t.baseline.Threshold,
		MinSpeedup:  t.opts.MinSpeedup,
	}
	budget := t.model.BudgetEvals
	if t.opts.MaxEvaluations > 0 {
		budget = t.opts.MaxEvaluations
	} else if t.opts.MaxEvaluations < 0 {
		budget = 0
	}
	return criteria, budget
}

// journalState is everything openJournal replays from disk: the journal
// itself, warm-start evaluations, and — when the run is supervised —
// the events sidecar with its quarantine and salvage records.
type journalState struct {
	jnl    *journal.Journal
	events *journal.EventLog // nil when the run is not supervised
	warm   map[string]*search.Evaluation
	// salvaged holds evaluations rescued by an aborted prior run's
	// salvage events, for keys not already durable in the journal.
	salvaged map[string]*search.Evaluation
	// quarantined maps poisoned assignment keys to their rendered fault.
	quarantined map[string]string
}

func (s *journalState) close() {
	if s.events != nil {
		s.events.Close()
	}
	s.jnl.Close()
}

// openJournal opens (or creates) the evaluation journal per Options and
// returns it with the warm-start records replayed from it. When
// withEvents is set (a supervised run), the resilience events sidecar
// is opened alongside: on resume its quarantine records keep poisoned
// assignments from re-crashing the search, and its salvage records
// recover evaluations an aborted batch completed but never journaled.
func (t *Tuner) openJournal(withEvents bool) (*journalState, error) {
	hdr := journal.Header{Fingerprint: t.Fingerprint(), Model: t.model.Name}
	var (
		jnl *journal.Journal
		err error
	)
	if t.opts.Resume {
		jnl, err = journal.Open(t.opts.JournalPath, hdr)
	} else {
		jnl, err = journal.Create(t.opts.JournalPath, hdr)
	}
	if err != nil {
		return nil, err
	}
	ckptPath := journal.CheckpointPath(t.opts.JournalPath)
	if t.opts.Resume {
		if ck, ok, err := journal.LoadCheckpoint(ckptPath); err != nil {
			jnl.Close()
			return nil, err
		} else if ok {
			if err := journal.ValidateCheckpoint(ck, jnl); err != nil {
				jnl.Close()
				return nil, err
			}
		}
	}
	warm := make(map[string]*search.Evaluation, len(jnl.Records()))
	for _, r := range jnl.Records() {
		ev, err := r.Evaluation()
		if err != nil {
			jnl.Close()
			return nil, err
		}
		warm[r.AKey] = ev
	}
	js := &journalState{jnl: jnl, warm: warm}
	if !withEvents {
		return js, nil
	}

	epath := journal.EventsPath(t.opts.JournalPath)
	if t.opts.Resume {
		js.events, err = journal.OpenEvents(epath, hdr)
	} else {
		js.events, err = journal.CreateEvents(epath, hdr)
	}
	if err != nil {
		jnl.Close()
		return nil, err
	}
	js.quarantined = js.events.QuarantinedKeys()
	for _, rec := range js.events.SalvagedRecords() {
		if _, durable := warm[rec.AKey]; durable {
			continue // the journal proper wins over salvage events
		}
		ev, err := rec.Evaluation()
		if err != nil {
			js.close()
			return nil, err
		}
		if js.salvaged == nil {
			js.salvaged = make(map[string]*search.Evaluation)
		}
		js.salvaged[rec.AKey] = ev
	}
	return js, nil
}

// runSinks is everything a run writes besides its Result: the journal
// with its checkpoint and events sidecar, and the decision log. Every
// resume-critical write goes through write, which stops the run at the
// first failure: if the crash-safety layer cannot persist an evaluation,
// continuing to burn evaluations that would be lost on a crash defeats
// its purpose.
type runSinks struct {
	js   *journalState       // nil without a journal
	dlog *ledger.DecisionLog // nil without a decision log

	mu   sync.Mutex
	err  error                   // the first failed write, latched
	stop context.CancelCauseFunc // cancels the run's context with err
}

// write performs one durable append unless an earlier one failed. The
// first failure latches and cancels the run's context, and every later
// append is skipped, so the journal stays an exact, gap-free prefix of
// the evaluation order. write is safe for concurrent use: supervisor
// events arrive on evaluation goroutines.
func (s *runSinks) write(do func() error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if err := do(); err != nil {
		s.err = err
		s.stop(err)
	}
}

// failed returns the latched write failure, if any.
func (s *runSinks) failed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *runSinks) close() {
	if s.js != nil {
		s.js.close()
	}
	if s.dlog != nil {
		s.dlog.Close() // idempotent; settle's Close is the one that reports
	}
}

// openSinks opens the decision log and the journal, and hooks them into
// the search options: OnAdd journals each fresh evaluation and then
// rewrites the checkpoint, OnSalvage records salvaged siblings in the
// events sidecar.
func (t *Tuner) openSinks(stop context.CancelCauseFunc, root *obs.Span, sopts *search.Options) (*runSinks, error) {
	s := &runSinks{stop: stop}
	if t.opts.DecisionPath != "" {
		dl, err := ledger.CreateDecisionLog(t.opts.DecisionPath, t.Fingerprint(), t.model.Name)
		if err != nil {
			return nil, err
		}
		dl.SetMetrics(t.opts.Metrics)
		s.dlog = dl
		sopts.Decisions = dl
	}
	if t.opts.JournalPath == "" {
		return s, nil
	}
	js, err := t.openJournal(t.opts.supervising())
	if err != nil {
		s.close()
		return nil, err
	}
	s.js = js
	fp := js.jnl.Header().Fingerprint
	ckptPath := journal.CheckpointPath(t.opts.JournalPath)
	sopts.Warm = js.warm
	sopts.Salvaged = js.salvaged
	sopts.OnAdd = func(ev *search.Evaluation, replayed bool) {
		s.write(func() error {
			if !replayed {
				jsp := root.Child(obs.SpanJournalAppend)
				jsp.AttrInt("index", int64(ev.Index))
				err := js.jnl.Append(journal.FromEvaluation(fp, ev))
				jsp.End()
				if err != nil {
					return err
				}
				if m := t.opts.Metrics; m != nil {
					m.Counter(obs.MetricJournalAppends).Add(1)
				}
			}
			// The checkpoint is rewritten after the journal append is
			// durable, so it can lag the journal but never lead it.
			return journal.SaveCheckpoint(ckptPath, journal.Checkpoint{
				Fingerprint: fp, Model: t.model.Name, Evaluations: ev.Index,
			})
		})
	}
	if events := js.events; events != nil {
		sopts.OnSalvage = func(e *search.Evaluation) {
			rec := journal.FromEvaluation(fp, e)
			s.write(func() error {
				return events.Append(journal.EventRecord{Type: journal.EventSalvaged, AKey: rec.AKey, Rec: &rec})
			})
		}
	}
	return s, nil
}

// evaluatorStack builds the evaluator the search calls: the tuner itself,
// wrapped by Options.WrapEvaluator, sharded by the fleet coordinator
// (started here; the caller closes it), and supervised. The supervisor
// is returned too (nil when the run is not supervised) for its Stats.
func (t *Tuner) evaluatorStack(s *runSinks) (search.Evaluator, *resilience.Supervised, error) {
	evaluator := search.Evaluator(t)
	if t.opts.WrapEvaluator != nil {
		evaluator = t.opts.WrapEvaluator(evaluator)
	}
	var events *journal.EventLog
	if s.js != nil {
		events = s.js.events
	}
	if coord := t.opts.Fleet; coord != nil {
		rt := fleet.Runtime{
			// The wrapped in-process evaluator is the degrade fallback, so
			// a collapsed pool changes where evaluations run but never what
			// they compute.
			Local:       evaluator,
			Fingerprint: t.Fingerprint(),
			Metrics:     t.opts.Metrics,
			Trace:       t.opts.Trace,
		}
		if events != nil {
			rt.OnEvent = func(e fleet.Event) {
				// Fleet events are telemetry, not resume state (the
				// resume-critical quarantine/salvage records travel the
				// latched supervisor and salvage paths), so appends are
				// best-effort.
				rec := journal.EventRecord{
					Type: e.Type, AKey: e.Key, Attempt: e.Attempt,
					Fault: e.Detail, Kind: e.Kind,
				}
				rec.SetWorker(e.Worker)
				_ = events.Append(rec)
			}
		}
		if err := coord.Start(t.runCtx, rt); err != nil {
			return nil, nil, err
		}
		evaluator = coord
	}
	if !t.opts.supervising() {
		return evaluator, nil, nil
	}
	breaker := t.opts.Breaker
	if t.opts.FailFast && (breaker == 0 || breaker > 1) {
		breaker = 1
	}
	sup := &resilience.Supervised{
		Inner:          evaluator,
		MaxRetries:     t.opts.Retries,
		RetriesByKind:  t.opts.RetriesByClass,
		Watchdog:       t.opts.Watchdog,
		Breaker:        breaker,
		HalfOpen:       t.opts.HalfOpen,
		MaxQuarantined: t.opts.MaxQuarantined,
		Backoff:        resilience.Backoff{Base: t.opts.RetryBackoff, Seed: t.opts.Seed},
		Metrics:        t.opts.Metrics,
	}
	if t.opts.Fleet != nil && t.opts.Retries == 0 && len(t.opts.RetriesByClass) == 0 {
		// A fleet with no retry budget would quarantine an assignment
		// on its first worker death; give it the standard per-kind
		// budgets so routine kills become lease reassignments.
		sup.MaxRetries = DefaultFleetRetries
		sup.RetriesByKind = resilience.DefaultRetryBudgets(DefaultFleetRetries)
	}
	if events != nil {
		sup.OnEvent = func(e resilience.Event) {
			s.write(func() error {
				return events.Append(journal.EventRecord{
					Type: string(e.Type), AKey: e.Key, Attempt: e.Attempt,
					Fault: e.Fault, Kind: e.Kind, BackoffNS: int64(e.Backoff),
				})
			})
		}
		for k, fault := range s.js.quarantined {
			sup.Quarantine(k, fault)
		}
	}
	return sup, sup, nil
}

// armHardStop arms the second phase of cancellation: DrainGrace after
// ctx is done, t.runCtx is cancelled, and in-flight interpreter runs
// unwind mid-variant. With DrainGrace 0 there is no hard stop and
// t.runCtx stays nil. It returns the disarm function.
func (t *Tuner) armHardStop(ctx context.Context) (disarm func()) {
	t.runCtx = nil
	if t.opts.DrainGrace <= 0 {
		return func() {}
	}
	hard, cancelHard := context.WithCancelCause(context.Background())
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			timer := time.NewTimer(t.opts.DrainGrace)
			defer timer.Stop()
			select {
			case <-timer.C:
				cancelHard(context.Cause(ctx))
			case <-done:
			}
		case <-done:
		}
	}()
	t.runCtx = hard
	return func() {
		close(done)
		cancelHard(nil)
	}
}

// settle finishes the run once the search has stopped and assembles its
// Result. stopped is the search's Abort, nil when it finished. A
// finished run writes the Done checkpoint; a cancelled one records the
// stop in the events sidecar. The fleet and the decision log are closed
// before anything is snapshotted, so the fleet stats, the metrics
// snapshot and the decision digest are final.
func (t *Tuner) settle(s *runSinks, sup *resilience.Supervised, outcome *search.Outcome, stopped error) (*Result, error) {
	criteria, _ := t.searchParams()
	result := &Result{
		Model:        t.model,
		Options:      t.opts,
		Baseline:     t.baseline,
		Outcome:      outcome,
		Criteria:     criteria,
		ProcVariants: make(map[string][]ProcPoint),
	}
	errors.As(stopped, &result.Aborted)
	errors.As(stopped, &result.Cancelled)
	switch js := s.js; {
	case js == nil:
	case stopped == nil:
		if err := journal.SaveCheckpoint(journal.CheckpointPath(t.opts.JournalPath), journal.Checkpoint{
			Fingerprint: js.jnl.Header().Fingerprint,
			Model:       t.model.Name,
			Evaluations: len(outcome.Log.Evals),
			Done:        true,
			Converged:   outcome.Converged,
			Minimal:     append([]string(nil), outcome.Minimal...),
		}); err != nil {
			return nil, err
		}
	case result.Cancelled != nil:
		// The orderly-shutdown record goes to the events sidecar, never
		// the journal proper — an interrupted-then-resumed run must
		// reproduce the uninterrupted journal byte for byte. An
		// unsupervised run has no sidecar open; one is opened (or
		// created) just for this record, and a failure to write it is
		// tolerated: the journal and checkpoint already carry everything
		// resume needs.
		rec := journal.EventRecord{Type: journal.EventCancelled, Fault: result.Cancelled.Error()}
		if js.events != nil {
			_ = js.events.Append(rec)
		} else if e, err := journal.OpenEvents(journal.EventsPath(t.opts.JournalPath), js.jnl.Header()); err == nil {
			_ = e.Append(rec)
			e.Close()
		}
	}
	if js := s.js; js != nil {
		result.Resumed = len(js.warm)
		result.Salvaged = len(js.salvaged)
	}

	// Close is idempotent (the deferred Close becomes a no-op), and
	// waiting for the worker loops here counts late results and restarts
	// in flight at search end.
	if coord := t.opts.Fleet; coord != nil {
		coord.Close()
		fs := coord.Stats()
		result.Fleet = &fs
	}
	// The digest must cover the complete stream. A sidecar write failure
	// surfaces on an otherwise-successful run rather than vanish; a
	// stopped run's partial result matters more than its telemetry.
	if s.dlog != nil {
		if err := s.dlog.Close(); err != nil && stopped == nil {
			return nil, err
		}
	}

	if sup != nil {
		rs := sup.Stats()
		result.Resilience = &rs
	}
	if t.opts.Metrics != nil {
		snap := t.opts.Metrics.Snapshot()
		result.Metrics = &snap
	}
	for q, pts := range t.procPoints {
		list := make([]ProcPoint, 0, len(pts))
		for _, p := range pts {
			list = append(list, *p)
		}
		// procPoints is a map; iteration order varies run to run. Sort
		// by discovery index to honor the documented guarantee that
		// results are independent of evaluation order. FromIndex is
		// unique within a procedure: each evaluation contributes at most
		// one new sub-assignment point per procedure.
		sort.Slice(list, func(i, j int) bool { return list[i].FromIndex < list[j].FromIndex })
		result.ProcVariants[q] = list
	}
	return result, nil
}

// archive puts the run's manifest into the ledger at Options.LedgerDir.
// Stopped runs archive too — a ledger that only remembers successes
// can't explain a regression.
func (t *Tuner) archive(res *Result, start time.Time, dlog *ledger.DecisionLog) error {
	if t.opts.LedgerDir == "" {
		return nil
	}
	m := t.buildManifest(res, start, dlog)
	led, err := ledger.Open(t.opts.LedgerDir)
	if err == nil {
		_, err = led.Put(m)
	}
	return err
}

// Run performs the full search and assembles the result. With
// Options.JournalPath set, the search is crash-safe: every evaluation
// is journaled and fsync'd as it completes, and with Options.Resume a
// prior journal is replayed so no evaluated variant is ever re-run.
//
// ctx bounds the run's lifetime (nil never cancels). Cancellation is
// two-phase: the moment ctx is done no *new* evaluation starts (the
// soft stop), and after Options.DrainGrace in-flight evaluations are
// hard-stopped mid-interpretation (with DrainGrace 0 they drain to
// completion). Either way the search stops in an orderly fashion: the
// journal keeps the completed deterministic prefix, completed siblings
// are salvaged to the events sidecar, the stop itself is recorded as a
// sidecar "cancelled" event (never in the journal proper), and Run
// returns the partial Result together with the *search.Cancelled error.
// A -resume run completes the search and produces a journal
// byte-identical to an uninterrupted run's.
//
// With a resilience knob set (Retries/FailFast/Breaker/MaxQuarantined/
// Watchdog/RetriesByClass) the evaluator runs under a
// resilience.Supervised wrapper. If the supervisor aborts the search —
// circuit breaker tripped or quarantine budget exhausted — Run returns
// the partial Result *and* the *resilience.AbortError: the completed
// work (log, journal, best variant so far) is preserved for graceful
// degradation, while the error signals that the search did not finish.
//
// A failed journal, checkpoint, salvage or supervisor-event write stops
// the search before its next evaluation, and Run returns (nil, the
// write error); the journal holds the prefix written before it.
func (t *Tuner) Run(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, stop := context.WithCancelCause(ctx)
	defer stop(nil)
	start := time.Now()
	criteria, budget := t.searchParams()

	// The run's root trace span. Everything below hangs off it, so the
	// per-phase self times of the trace telescope to its duration.
	root := t.opts.Trace.Root(obs.SpanTune)
	root.Attr("model", t.model.Name)
	root.AttrInt("budget", int64(budget))
	defer root.End()
	defer t.armHardStop(ctx)()

	sopts := search.Options{
		Criteria:       criteria,
		MaxEvaluations: budget,
		Parallelism:    t.opts.Parallelism,
		Span:           root,
		Metrics:        t.opts.Metrics,
	}
	sinks, err := t.openSinks(stop, root, &sopts)
	if err != nil {
		return nil, err
	}
	defer sinks.close()
	evaluator, sup, err := t.evaluatorStack(sinks)
	if err != nil {
		return nil, err
	}
	if coord := t.opts.Fleet; coord != nil {
		defer coord.Close()
	}

	outcome, stopped := search.Precimonious(ctx, evaluator, t.atoms, sopts)
	if err := sinks.failed(); err != nil {
		return nil, err
	}

	result, err := t.settle(sinks, sup, outcome, stopped)
	if err != nil {
		return nil, err
	}
	if err := t.archive(result, start, sinks.dlog); err != nil && stopped == nil {
		return nil, err
	}
	return result, stopped
}

// buildManifest assembles the run's ledger manifest from the completed
// Result.
func (t *Tuner) buildManifest(res *Result, start time.Time, dlog *ledger.DecisionLog) *ledger.Manifest {
	criteria, budget := t.searchParams()
	m := &ledger.Manifest{
		Kind: ledger.ManifestKind, V: ledger.ManifestVersion,
		Model:       t.model.Name,
		Fingerprint: t.Fingerprint(),
		// The machine *name* is for humans; the full parameter signature
		// is already folded into the fingerprint above.
		Machine:     t.machine.Name,
		Engine:      t.opts.Engine.String(),
		Seed:        t.opts.Seed,
		WholeModel:  t.opts.WholeModel,
		Budget:      budget,
		MaxRelError: criteria.MaxRelError,
		MinSpeedup:  criteria.MinSpeedup,
		Parallelism: t.opts.Parallelism,

		StartUnixNS: start.UnixNano(),
		WallMS:      time.Since(start).Milliseconds(),

		Outcome:      "completed",
		Converged:    res.Outcome.Converged,
		Evaluations:  len(res.Outcome.Log.Evals),
		Resumed:      res.Resumed,
		Salvaged:     res.Salvaged,
		TotalAtoms:   len(t.atoms),
		MinimalAtoms: len(res.Outcome.Minimal),

		Fleet:   res.Fleet,
		Metrics: res.Metrics,

		JournalPath:  t.opts.JournalPath,
		DecisionPath: t.opts.DecisionPath,
	}
	if dlog != nil {
		m.DecisionDigest = dlog.Digest()
		m.DecisionEvents = dlog.Events()
	}
	if res.Aborted != nil {
		m.Outcome = "aborted"
	}
	if res.Cancelled != nil {
		m.Outcome = "cancelled"
	}
	if len(res.Outcome.Log.Evals) > 0 {
		m.Statuses = make(map[string]int)
		for _, ev := range res.Outcome.Log.Evals {
			m.Statuses[ev.Status.String()]++
		}
	}
	if best := res.Outcome.Log.Best(criteria); best != nil {
		m.BestSpeedup = best.Speedup
		m.BestRelError = best.RelError
		m.BestLowered = best.Lowered
	}
	if res.Metrics != nil {
		m.Quantiles = res.Metrics.QuantileSummary()
	}
	return m
}
