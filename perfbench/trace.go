package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/search"
	"repro/internal/transform"
)

// Span names of the benchmark's own calls (the layer spans are in
// replay.go).
const (
	spanCoreNew   = "core.new"
	spanTuneRun   = "tuner.run"
	spanTuneEval  = "tune.eval" // between Progress completions
	spanLease     = "fleet.lease"
	spanLocalEval = "core.evaluate"
)

// setupReplays is how often the traced run replays core.New's layers.
const setupReplays = 3

// replaySetups replays core.New's layers setupReplays times.
func replaySetups(w workload, t *core.Tuner, rec *recorder) (*replayer, error) {
	var rp *replayer
	var err error
	for i := 0; i < setupReplays; i++ {
		if rp, err = replaySetup(w.model(), t, rec); err != nil {
			return nil, err
		}
	}
	return rp, nil
}

// traceTunes is the traced tune workload: an untraced tune, then a
// traced one (the ratio of their tune_s is the tracing overhead) that
// replays each evaluation through the layers as soon as the tuner
// reports it, then the replay of the journal appends.
func traceTunes(w workload, seed int64, work string, ref *refFile) (*result, error) {
	r := newResult()
	rec := newRecorder()
	plain, err := tune(w, seed, filepath.Join(work, "plain"), ref, nil)
	if err != nil {
		return nil, err
	}
	r.account(len(plain.evals), plain.err)
	rp, err := replaySetups(w, plain.tuner, rec)
	if err != nil {
		return nil, err
	}
	seq := 0
	tt := &tuneTrace{rec: rec, hook: func(ev *search.Evaluation) {
		seq++
		r.account(1, sameOutcome(rp.evaluate(ev.Assignment), ev, seq))
	}}
	traced, err := tune(w, seed, filepath.Join(work, "traced"), ref, tt)
	if err != nil {
		return nil, err
	}
	r.account(len(traced.evals), traced.err)
	d, err := replayJournal(filepath.Join(work, "replay.jsonl"), traced.tuner, w.model(), traced.log, rec)
	if err != nil {
		return nil, err
	}
	r.account(0, ref.check(w.name, seed, d))

	covered := sumSelf(rec.spans, append([]string{spanAppend}, evalLayers...)...)
	r.perLayer(rec, rp, traced.log, covered, sumDur(traced.evals))
	r.set("journal.append_ms.p50", medianMs(rec.spans, spanAppend), "ms")
	for _, name := range []string{"fleet.lease_ms.p50", "fleet.overhead_ms.p50", "fleet.first_lease_ms"} {
		r.set(name, 0, "ms")
	}
	r.set("fleet.leases", 0, "count")
	r.set("fleet.restarts", 0, "count")
	r.set("trace.overhead_pct", 100*(traced.wall.Seconds()/plain.wall.Seconds()-1), "%")
	r.note("tune_s untraced %.3f, traced %.3f", plain.wall.Seconds(), traced.wall.Seconds())
	return r, nil
}

// traceFleet is the traced funarc-fleet workload: a first lease to a
// fresh worker, an untraced sweep, then a traced one that follows each
// lease with the same assignment's in-process Tuner.Evaluate (the lease
// overhead is the difference) and its replay through the layers.
func traceFleet(w workload, seed int64, prose string, ref *refFile) (*result, error) {
	r := newResult()
	rec := newRecorder()
	rig, err := startFleet(w, seed, prose)
	if err != nil {
		return nil, err
	}
	defer rig.coord.Close()
	evals, plainWall, err := rig.sweep(w, seed, ref, &leaseTimer{})
	if evals == nil {
		return nil, err
	}
	r.account(len(evals), err)
	rp, err := replaySetups(w, rig.tuner, rec)
	if err != nil {
		return nil, err
	}

	var overheads []float64
	var overheadSum time.Duration
	seq := 0
	lt := &leaseTimer{rec: rec, hook: func(a transform.Assignment, leased *search.Evaluation, lease time.Duration) {
		seq++
		id := rec.begin(spanLocalEval)
		local := rig.tuner.Evaluate(a)
		over := lease - rec.end(id)
		overheads = append(overheads, ms(over))
		overheadSum += over
		err := sameOutcome(local, leased, seq)
		if err == nil && math.Float64bits(local.Speedup) != math.Float64bits(leased.Speedup) {
			err = fmt.Errorf("evaluation %d: speedup %g in process, %g leased", seq, local.Speedup, leased.Speedup)
		}
		r.account(1, err)
		r.account(1, sameOutcome(rp.evaluate(a), leased, seq))
	}}
	evals, tracedWall, err := rig.sweep(w, seed, ref, lt)
	if evals == nil {
		return nil, err
	}
	r.account(len(evals), err)
	st, err := rig.settle()
	if err != nil {
		r.Failed += int(st.LocalEvals)
		r.account(0, err)
	}

	covered := sumSelf(rec.spans, evalLayers...) + overheadSum
	r.perLayer(rec, rp, evals, covered, sumDur(lt.leases))
	r.set("journal.append_ms.p50", 0, "ms")
	r.set("fleet.lease_ms.p50", medianMs(rec.spans, spanLease), "ms")
	r.set("fleet.overhead_ms.p50", median(overheads), "ms")
	r.set("fleet.first_lease_ms", ms(rig.firstLease), "ms")
	r.set("fleet.leases", float64(st.Leases), "count")
	r.set("fleet.restarts", float64(st.Restarts), "count")
	r.set("trace.overhead_pct", 100*(tracedWall.Seconds()/plainWall.Seconds()-1), "%")
	r.note("sweep wall untraced %.3f s, traced %.3f s", plainWall.Seconds(), tracedWall.Seconds())
	return r, nil
}

// perLayer sets the metrics both traced workloads share. covered is the
// layers' summed self time, evalWall the summed evaluation wall time it
// is set against.
func (r *result) perLayer(rec *recorder, rp *replayer, log []*search.Evaluation, covered, evalWall time.Duration) {
	r.set("fortran.parse_ms", medianMs(rec.spans, spanParse), "ms")
	r.set("core.baseline_ms", medianMs(rec.spans, spanBaseline), "ms")
	r.set("core.uniform32_ms", medianMs(rec.spans, spanUniform32), "ms")
	r.set("transform.apply_ms.p50", medianMs(rec.spans, spanApply), "ms")
	r.set("interp.new_ms.p50", medianMs(rec.spans, spanNew), "ms")
	r.set("interp.run_ms.p50", medianMs(rec.spans, spanRun), "ms")
	r.set("models.extract_compare_ms.p50", medianMs(rec.spans, spanExtract), "ms")
	r.set("interp.ns_per_step", float64(rp.runTime)/float64(rp.steps), "ns")
	r.set("interp.allocs_per_eval", float64(rp.mallocs)/float64(rp.runs), "count")
	r.set("interp.bytes_per_eval", float64(rp.allocB)/float64(rp.runs), "B")
	r.set("interp.steps_per_eval", float64(rp.steps)/float64(rp.runs), "count")
	r.set("perfmodel.baseline_cycles", rp.cycles, "cycles")
	pass := 0
	for _, ev := range log {
		if ev.Status == search.StatusPass {
			pass++
		}
	}
	r.set("search.evals", float64(len(log)), "count")
	r.set("search.pass_share", float64(pass)/float64(len(log)), "ratio")
	r.set("trace.coverage_pct", 100*covered.Seconds()/evalWall.Seconds(), "%")

	self := selfByName(rec.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%.1fms", n, ms(self[n]))
	}
	r.note("self time by span:%s", b.String())
	r.note("layer self time covers %.1f%% of %.3f s of evaluation wall time", 100*covered.Seconds()/evalWall.Seconds(), evalWall.Seconds())
}

func medianMs(spans []span, name string) float64 {
	ds := durations(spans, name)
	if len(ds) == 0 {
		return 0
	}
	return median(msAll(ds))
}

func sumSelf(spans []span, names ...string) time.Duration {
	self := selfByName(spans)
	var sum time.Duration
	for _, n := range names {
		sum += self[n]
	}
	return sum
}

func sumDur(ds []time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum
}
