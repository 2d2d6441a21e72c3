// Package search implements the design-space exploration of the paper's
// tuning cycle (§III-B): the delta-debugging-based Precimonious search
// for a 1-minimal mixed-precision variant, plus the brute-force sweep
// used for the funarc motivating example (§II-B).
package search

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/transform"
)

// Status classifies a variant evaluation into the buckets of Table II.
type Status int

// Variant outcomes.
const (
	StatusPass    Status = iota // ran to completion, within the error threshold
	StatusFail                  // ran to completion, error above threshold
	StatusTimeout               // exceeded 3x the baseline budget
	StatusError                 // runtime failure (non-finite values, bounds, ...)

	// StatusInfra marks an evaluation whose variant outcome could not be
	// determined because the evaluation *infrastructure* failed
	// persistently — the assignment was quarantined by a resilience
	// supervisor after repeated worker panics. It is deliberately not one
	// of the four Table II buckets above: pass/fail/timeout/error are
	// deterministic properties of the assignment, while an infra record
	// says only "we could not find out". Counts excludes it so
	// retry/quarantine machinery cannot distort the paper's outcome
	// statistics.
	StatusInfra
)

func (s Status) String() string {
	switch s {
	case StatusPass:
		return "pass"
	case StatusFail:
		return "fail"
	case StatusTimeout:
		return "timeout"
	case StatusError:
		return "error"
	case StatusInfra:
		return "infra"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Abort is implemented by errors that represent a deliberate,
// supervised termination of the search (a tripped circuit breaker, an
// exhausted quarantine budget, a cancellation) rather than an
// uncontrolled crash. An evaluator raises one by panic, the only way
// out of Evaluate; the batched evaluation layer recovers it, salvages
// completed sibling results into Log.Salvaged, and returns it as the
// search's error, so paid-for evaluations survive to the next resume
// instead of being silently discarded.
type Abort interface {
	error
	// SearchAbort describes why the search was terminated.
	SearchAbort() string
}

// Evaluation is the outcome of dynamically evaluating one variant
// (stage T3 of the tuning cycle).
type Evaluation struct {
	Assignment transform.Assignment
	Status     Status
	Speedup    float64 // Eq. (1); valid when the run completed
	RelError   float64 // correctness metric relative error
	Lowered    int     // atoms at 32-bit
	TotalAtoms int
	Detail     string // failure detail, wrapper counts, etc.
	Index      int    // evaluation order (1-based), set by the searches
}

// Pct32 is the percentage of atoms at 32-bit (the x-axis of Fig. 5).
func (e *Evaluation) Pct32() float64 {
	if e.TotalAtoms == 0 {
		return 0
	}
	return 100 * float64(e.Lowered) / float64(e.TotalAtoms)
}

// Evaluator evaluates a precision assignment. Implementations transform,
// compile (analyze), and run the variant, returning its measured
// performance and correctness. Evaluations must be deterministic unless
// the underlying machine model injects seeded noise.
type Evaluator interface {
	Evaluate(a transform.Assignment) *Evaluation
}

// SpanEvaluator is optionally implemented by evaluators that can
// attribute sub-phases of an evaluation (interpreter runs, retries) to
// a parent trace span. The span may be nil — implementations must
// treat it as the no-op span, and the evaluation result must be
// identical either way (tracing never perturbs outcomes).
type SpanEvaluator interface {
	Evaluator
	EvaluateSpan(sp *obs.Span, a transform.Assignment) *Evaluation
}

// Evaluate runs one evaluation, threading the parent span through to
// evaluators that support attribution and falling back to the plain
// interface for those that do not (e.g. fault-injection wrappers).
func Evaluate(eval Evaluator, sp *obs.Span, a transform.Assignment) *Evaluation {
	if se, ok := eval.(SpanEvaluator); ok {
		return se.EvaluateSpan(sp, a)
	}
	return eval.Evaluate(a)
}

// Criteria decides whether an evaluation "passes" the search: correct
// within the threshold and at least as fast as required (the paper
// rejects variants less performant than the baseline).
type Criteria struct {
	MaxRelError float64
	MinSpeedup  float64
}

// Accept reports whether ev satisfies the criteria.
func (c Criteria) Accept(ev *Evaluation) bool {
	return ev.Status == StatusPass && ev.RelError <= c.MaxRelError && ev.Speedup >= c.MinSpeedup
}

// warmEntry is one warm-cache record. salvaged marks an evaluation
// recovered from a supervised abort's salvage sidecar rather than the
// journal proper: it is served without re-evaluation like any warm
// record, but is reported to OnAdd as fresh (replayed=false) so the
// journal hook persists it at its proper deterministic index.
type warmEntry struct {
	ev       *Evaluation
	salvaged bool
}

// Log records every variant explored by a search, for Table II and
// Figures 5–7.
type Log struct {
	Evals []*Evaluation
	cache map[string]*Evaluation

	// Salvaged holds completed evaluations that could not be appended to
	// Evals because a supervised abort stopped the batch before their
	// deterministic slot was reached (an earlier slot stopped). They are
	// recorded in batch order. A journal layer persists them out-of-band
	// (see SetOnSalvage) so a resumed search serves them from the warm
	// cache instead of paying for the evaluation again.
	Salvaged []*Evaluation

	// warm holds prior evaluations (typically replayed from a crash
	// journal) keyed by canonical assignment key. When the search
	// proposes an assignment found here, the prior record is appended to
	// the log in place of a fresh evaluation, so a resumed search
	// replays to the point of death without re-running anything.
	warm map[string]warmEntry
	// onAdd observes every Add in deterministic log order; replayed
	// marks records served from the warm cache. The crash journal hooks
	// in here.
	onAdd func(ev *Evaluation, replayed bool)
	// onSalvage observes every salvaged evaluation, in batch order.
	onSalvage func(ev *Evaluation)
	// metrics, when set, receives evaluation counters as records land in
	// the log. Purely observational: it never influences search behavior
	// or the journal (see SetMetrics).
	metrics *obs.Registry
}

// NewLog returns an empty evaluation log.
func NewLog() *Log {
	return &Log{cache: make(map[string]*Evaluation)}
}

// Lookup returns a prior evaluation of an identical assignment, if any.
func (l *Log) Lookup(a transform.Assignment) (*Evaluation, bool) {
	ev, ok := l.cache[a.Key()]
	return ev, ok
}

// SeedWarm registers a prior evaluation under a canonical assignment
// key; a later proposal of that assignment is served from it instead of
// being re-evaluated.
func (l *Log) SeedWarm(key string, ev *Evaluation) {
	if l.warm == nil {
		l.warm = make(map[string]warmEntry)
	}
	l.warm[key] = warmEntry{ev: ev}
}

// SeedSalvaged registers an evaluation salvaged from an aborted run's
// sidecar. Like SeedWarm it is served without re-evaluation, but it is
// reported to OnAdd as fresh (replayed=false) because it was never
// durable in the journal proper: the journal hook appends it at the
// deterministic index the resumed search assigns.
func (l *Log) SeedSalvaged(key string, ev *Evaluation) {
	if l.warm == nil {
		l.warm = make(map[string]warmEntry)
	}
	l.warm[key] = warmEntry{ev: ev, salvaged: true}
}

// SetOnAdd installs the add observer (nil to remove).
func (l *Log) SetOnAdd(fn func(ev *Evaluation, replayed bool)) { l.onAdd = fn }

// SetOnSalvage installs the salvage observer (nil to remove).
func (l *Log) SetOnSalvage(fn func(ev *Evaluation)) { l.onSalvage = fn }

// SetMetrics installs a metrics registry (nil to remove). The log bumps
// evaluation counters and the best-speedup gauge as records are added.
func (l *Log) SetMetrics(reg *obs.Registry) { l.metrics = reg }

// fromWarm returns the warm-cache record for an assignment, if any.
func (l *Log) fromWarm(a transform.Assignment) (warmEntry, bool) {
	ev, ok := l.warm[a.Key()]
	return ev, ok
}

// salvage records a completed evaluation that lost its slot to a
// supervised abort earlier in the batch.
func (l *Log) salvage(ev *Evaluation) {
	l.Salvaged = append(l.Salvaged, ev)
	if l.metrics != nil {
		l.metrics.Counter(obs.MetricSalvaged).Add(1)
	}
	if l.onSalvage != nil {
		l.onSalvage(ev)
	}
}

// Add records an evaluation.
func (l *Log) Add(ev *Evaluation) { l.add(ev, false) }

func (l *Log) add(ev *Evaluation, replayed bool) {
	ev.Index = len(l.Evals) + 1
	l.Evals = append(l.Evals, ev)
	l.cache[ev.Assignment.Key()] = ev
	if l.metrics != nil {
		l.metrics.Counter(obs.MetricEvals).Add(1)
		l.metrics.Counter(obs.MetricEvalsPrefix + ev.Status.String()).Add(1)
		if ev.Status == StatusPass {
			l.metrics.Gauge(obs.GaugeBestSpeedup).Max(ev.Speedup)
		}
	}
	if l.onAdd != nil {
		l.onAdd(ev, replayed)
	}
}

// Counts tallies variant outcomes as in Table II. StatusInfra records —
// assignments whose outcome is unknown because the infrastructure failed
// — are excluded entirely (see InfraCount), so retries and quarantines
// can never distort the paper's outcome statistics.
func (l *Log) Counts() (total int, pass, fail, timeout, errs int) {
	for _, ev := range l.Evals {
		switch ev.Status {
		case StatusPass:
			pass++
		case StatusFail:
			fail++
		case StatusTimeout:
			timeout++
		case StatusError:
			errs++
		default:
			continue // StatusInfra: not a variant outcome
		}
		total++
	}
	return
}

// InfraCount returns the number of logged evaluations whose variant
// outcome is unknown due to persistent infrastructure failure
// (StatusInfra).
func (l *Log) InfraCount() int {
	n := 0
	for _, ev := range l.Evals {
		if ev.Status == StatusInfra {
			n++
		}
	}
	return n
}

// Best returns the accepted evaluation with the highest speedup, or nil.
func (l *Log) Best(c Criteria) *Evaluation {
	var best *Evaluation
	for _, ev := range l.Evals {
		if !c.Accept(ev) {
			continue
		}
		if best == nil || ev.Speedup > best.Speedup {
			best = ev
		}
	}
	return best
}

// Frontier returns the evaluations on the speedup-error optimal frontier
// (no other completed variant is both faster and more accurate), sorted
// by increasing error. This is the "optimal frontier" of Fig. 2/5.
func (l *Log) Frontier() []*Evaluation {
	var done []*Evaluation
	for _, ev := range l.Evals {
		if ev.Status == StatusPass || ev.Status == StatusFail {
			done = append(done, ev)
		}
	}
	var out []*Evaluation
	for _, a := range done {
		dominated := false
		for _, b := range done {
			if b == a {
				continue
			}
			if b.Speedup >= a.Speedup && b.RelError <= a.RelError &&
				(b.Speedup > a.Speedup || b.RelError < a.RelError) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, a)
		}
	}
	// Insertion sort by error (frontiers are small).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].RelError < out[j-1].RelError; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
