package main

import (
	"fmt"
	"math"
)

// runAA runs n full end-to-end sets of the same code and prints, per
// metric and workload, the relative spread of the sets' medians —
// (max-min)/median — against the metric's bound. A pair past its bound
// means the benchmark cannot resolve a regression of that size here, and
// the check fails.
func runAA(p *plan, defs []*workloadDef, n int) error {
	if n < 2 {
		return fmt.Errorf("-aa wants at least 2 sets")
	}
	medians := map[string][]float64{} // "workload metric" -> one median per set
	for set := 0; set < n; set++ {
		results, err := runEndToEnd(p, defs)
		if err != nil {
			return fmt.Errorf("set %d: %w", set+1, err)
		}
		for _, e := range results {
			if e.failed > 0 {
				return fmt.Errorf("set %d: %s: %d operations failed or answered wrongly", set+1, e.workload, e.failed)
			}
			for _, m := range endToEndMetrics {
				_, med, _ := e.stat(m.Name)
				key := e.workload + " " + m.Name
				medians[key] = append(medians[key], med)
			}
		}
		fmt.Printf("set %d of %d done\n", set+1, n)
	}
	fmt.Printf("\nA/A over %d sets: spread of the set medians, (max-min)/median\n", n)
	fmt.Printf("%-16s %-18s %12s %8s %6s\n", "workload", "metric", "median", "spread", "bound")
	over := 0
	for _, d := range defs {
		for _, m := range endToEndMetrics {
			asc := sorted(medians[d.name+" "+m.Name])
			med := median(asc)
			spread := (asc[len(asc)-1] - asc[0]) / math.Abs(med)
			mark := ""
			if spread > m.Bound {
				mark = "  OVER"
				over++
			}
			fmt.Printf("%-16s %-18s %12.4f %8.3f %6.2f%s\n", d.name, m.Name, med, spread, m.Bound, mark)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d metric/workload pairs spread past their bound", over)
	}
	return nil
}
