package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/search"
	"repro/internal/staticeval"
	"repro/internal/transform"
)

// AblationResult compares the MPAS-A search with and without the §V
// static pre-filter (cast-flow cost model + vectorization report).
type AblationResult struct {
	Unfiltered        core.TableRow
	Filtered          core.TableRow
	DynamicEvalsSame  int     // dynamic evaluations in the unfiltered run
	DynamicEvalsFilt  int     // dynamic evaluations actually run when filtered
	StaticallySkipped int     // variants rejected without dynamic evaluation
	BestUnfiltered    float64 // best speedup found without the filter
	BestFiltered      float64 // best speedup found with the filter
	SameMinimal       bool    // both searches found the same 1-minimal set
}

// filteringEvaluator wraps a Tuner, consulting the static filter first;
// statically rejected variants are scored as failing without a run.
type filteringEvaluator struct {
	tuner  *core.Tuner
	filter *staticeval.Filter

	mu      sync.Mutex
	dynamic int
	skipped int
}

func (f *filteringEvaluator) Evaluate(a transform.Assignment) *search.Evaluation {
	v, err := f.filter.Evaluate(a)
	if err == nil && v.Reject {
		f.mu.Lock()
		f.skipped++
		f.mu.Unlock()
		return &search.Evaluation{
			Assignment: a,
			Status:     search.StatusFail,
			Lowered:    a.Lowered(),
			RelError:   1e30, // sentinel: never accepted
			Detail:     "static filter: " + strings.Join(v.Reasons, "; "),
		}
	}
	f.mu.Lock()
	f.dynamic++
	f.mu.Unlock()
	return f.tuner.Evaluate(a)
}

// Ablation runs the §V static-filter ablation on MPAS-A. ctx cancels
// both searches (nil never cancels).
func Ablation(ctx context.Context, seed int64) (*AblationResult, error) {
	m := models.MPASA()

	// Unfiltered search.
	plain, err := core.New(m, core.Options{Seed: seed, Parallelism: suiteParallelism()})
	if err != nil {
		return nil, err
	}
	plainRes, err := plain.Run(ctx)
	if err != nil {
		return nil, err
	}

	// Filtered search: same tuner machinery, static screen in front.
	tn, err := core.New(m, core.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	bl := tn.BaselineInfo()
	filter := staticeval.NewFilterFromRegions(tn.Program(), bl.Regions, bl.HotspotCycles)
	fe := &filteringEvaluator{tuner: tn, filter: filter}
	criteria := search.Criteria{MaxRelError: bl.Threshold, MinSpeedup: 1.0}
	outcome, err := search.Precimonious(ctx, fe, tn.Atoms(), search.Options{
		Criteria:       criteria,
		MaxEvaluations: m.BudgetEvals,
		Parallelism:    suiteParallelism(),
	})
	if err != nil {
		return nil, err
	}

	filtRow := core.TableRow{Model: m.Name, Converged: outcome.Converged}
	total, pass, fail, timeout, errs := outcome.Log.Counts()
	filtRow.Total = total
	if total > 0 {
		filtRow.PassPct = 100 * float64(pass) / float64(total)
		filtRow.FailPct = 100 * float64(fail) / float64(total)
		filtRow.TimeoutPct = 100 * float64(timeout) / float64(total)
		filtRow.ErrorPct = 100 * float64(errs) / float64(total)
	}
	bestF := outcome.Log.Best(criteria)
	if bestF != nil {
		filtRow.BestSpeedup = bestF.Speedup
	}

	res := &AblationResult{
		Unfiltered:        plainRes.TableIIRow(),
		Filtered:          filtRow,
		DynamicEvalsSame:  plainRes.TableIIRow().Total,
		DynamicEvalsFilt:  fe.dynamic,
		StaticallySkipped: fe.skipped,
		BestUnfiltered:    plainRes.TableIIRow().BestSpeedup,
		BestFiltered:      filtRow.BestSpeedup,
	}
	res.SameMinimal = sameSet(plainRes.Outcome.Minimal, outcome.Minimal)
	return res, nil
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[string]bool, len(a))
	for _, x := range a {
		m[x] = true
	}
	for _, x := range b {
		if !m[x] {
			return false
		}
	}
	return true
}

// RenderAblation formats the ablation.
func RenderAblation(r *AblationResult) string {
	var sb strings.Builder
	sb.WriteString("ABLATION (§V): static pre-filtering of variants before dynamic evaluation\n")
	fmt.Fprintf(&sb, "  unfiltered: %d dynamic evaluations, best %.2fx\n",
		r.DynamicEvalsSame, r.BestUnfiltered)
	fmt.Fprintf(&sb, "  filtered:   %d dynamic evaluations (+%d rejected statically), best %.2fx\n",
		r.DynamicEvalsFilt, r.StaticallySkipped, r.BestFiltered)
	saved := 0.0
	if r.DynamicEvalsSame > 0 {
		saved = 100 * (1 - float64(r.DynamicEvalsFilt)/float64(r.DynamicEvalsSame))
	}
	fmt.Fprintf(&sb, "  dynamic evaluations saved: %.0f%%; same 1-minimal set: %v\n", saved, r.SameMinimal)
	return sb.String()
}
