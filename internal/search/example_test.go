package search

import (
	"fmt"
	"sort"
)

// The Precimonious search finds the 1-minimal set of variables that must
// stay in 64-bit precision. Here the synthetic evaluator accepts a
// variant only when v02 stays high.
func ExamplePrecimonious() {
	atoms := mkAtoms(8)
	eval := &fakeEval{atoms: atoms, critical: map[string]bool{"m.p.v02": true}}
	out, _ := Precimonious(nil, eval, atoms, Options{
		Criteria: Criteria{MaxRelError: 1e-3, MinSpeedup: 1.0},
	})
	sort.Strings(out.Minimal)
	fmt.Println("must stay 64-bit:", out.Minimal)
	fmt.Printf("best variant lowers %d/%d atoms at %.2fx\n",
		out.Final.Lowered, out.Final.TotalAtoms, out.Final.Speedup)
	// Output:
	// must stay 64-bit: [m.p.v02]
	// best variant lowers 7/8 atoms at 1.35x
}
