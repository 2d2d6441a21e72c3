// Command perfbench measures the host time it costs to tune a model,
// end to end and per layer. Simulated cycles are the tuner's result, so
// they are checked, never timed. It drives the program only through its
// public entry points, from one process at concurrency 1 (a closed loop
// with one caller); the funarc-fleet workload adds one pipe worker
// process. Run it through run.sh, which builds it and the worker:
//
//	bash perfbench/run.sh --workload mpas-a --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; earlier lines starting with
// "#" carry host facts and notes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/models"
)

// mom6Budget caps the MOM6 tune's distinct evaluations, the model's own
// stand-in for the 12-hour job limit, so one tune takes about ten
// seconds instead of eighty.
const mom6Budget = 16

// workload is one set of inputs the benchmark runs.
type workload struct {
	name   string
	model  func() *models.Model
	budget int  // core.Options.MaxEvaluations (0 = the model default)
	fleet  bool // exhaustive sweep over a one-worker fleet instead of a tune
	// nominal is about one tune's or sweep's duration on one CPU of a
	// 2-core Xeon in its slower spells. A run makes seconds/nominal of
	// them, a count that does not depend on how fast the host happens
	// to be, so every run of a given length has the same sample count
	// and the same tail percentile.
	nominal time.Duration
	// setups is how many extra core.New calls precede each tune or
	// sweep; with the tune's own core.New they make one set-up sample.
	setups int
}

var workloads = []workload{
	{name: "mpas-a", model: models.MPASA, nominal: 9 * time.Second, setups: 2},
	{name: "mom6", model: models.MOM6, budget: mom6Budget, nominal: 9 * time.Second, setups: 1},
	{name: "funarc-fleet", model: models.Funarc, fleet: true, nominal: 4 * time.Second, setups: 32},
}

// iterations is how many tunes or sweeps a run of the given length makes.
func (w workload) iterations(seconds time.Duration) int {
	if n := int(seconds / w.nominal); n > 1 {
		return n
	}
	return 1
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the contract's JSON line plus notes.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// account counts n attempted evaluations; when err reports a failed
// run or a mismatching outcome digest, all n count as failed.
func (r *result) account(n int, err error) {
	r.Attempted += n
	if err != nil {
		r.Failed += n
		r.Correct = false
		r.note("FAILED: %v", err)
	}
}

// endToEnd sets the end-to-end metrics from per-tune (or per-sweep)
// samples and per-evaluation latencies.
func (r *result) endToEnd(setups, tunes, rates, cpus, evalMs []float64, rss float64) {
	r.set("tune_s", median(tunes), "s")
	r.set("setup_s", median(setups), "s")
	r.note("setup_s samples (batch means) %.4f", setups)
	r.set("evals_per_s", median(rates), "1/s")
	r.set("eval_ms.p50", median(evalMs), "ms")
	v, desc := tail(evalMs)
	r.set("eval_ms.tail", v, "ms")
	r.note("eval_ms.tail is the %s", desc)
	r.set("cpu_s", median(cpus), "s")
	r.set("peak_rss_mb", rss, "MB")
}

func main() {
	name := flag.String("workload", "", "workload: mpas-a, mom6 or funarc-fleet")
	seed := flag.Int64("seed", 1, "workload seed; selects the Eq. (1) noise seed (seeds 1..6 map to themselves)")
	seconds := flag.Int("seconds", 30, "how long the untraced loop measures; fixes how many tunes or sweeps it makes")
	trace := flag.Int("trace", 0, "1: a traced run reporting per-layer metrics instead of end-to-end ones")
	prose := flag.String("prose", ".bench_build/prose", "prose binary serving as the fleet worker")
	refPath := flag.String("ref", "perfbench/ref/digests.json", "reference outcome digests")
	work := flag.String("work", ".bench_build/work", "scratch directory for journals")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *prose, *refPath, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds time.Duration, traced bool, prose, refPath, work string) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	ref, err := loadRef(refPath)
	if err != nil {
		return err
	}
	work = filepath.Join(work, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	host := startHostFacts()
	noise := noiseSeed(seed)
	var r *result
	switch {
	case w.fleet && traced:
		r, err = traceFleet(w, noise, prose, ref)
	case w.fleet:
		r, err = measureFleet(w, noise, seconds, prose, ref)
	case traced:
		r, err = traceTunes(w, noise, work, ref)
	default:
		r, err = measureTunes(w, noise, seconds, work, ref)
	}
	if err != nil {
		return err
	}
	host.finish()
	hj, _ := json.Marshal(host)
	fmt.Printf("# host %s\n", hj)
	fmt.Printf("# workload %s, seed %d, Eq. (1) noise seed %d, trace %v\n", w.name, seed, noise, traced)
	for _, n := range r.notes {
		fmt.Printf("# %s\n", n)
	}
	out, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
