package control

import (
	"sort"

	"ccp/internal/graph"
)

// DispersionReport quantifies how concentrated company control is — the
// "economic analysis of the control dispersion" use case of the paper's
// introduction.
type DispersionReport struct {
	// Companies is the number of live companies analyzed.
	Companies int
	// Grouped is the number of companies inside a multi-member control
	// group (i.e. with a majority-ownership chain above or below them).
	Grouped int
	// Groups is the number of multi-member control groups.
	Groups int
	// LargestGroup is the biggest group's size.
	LargestGroup int
	// TopShare[k] is the fraction of grouped companies inside the k+1
	// largest groups, for k = 0..len-1 (capped at 10 entries).
	TopShare []float64
	// Gini is the Gini coefficient of group sizes in [0, 1): 0 means all
	// groups equal, values near 1 mean control concentrates in few giants.
	Gini float64
}

// Dispersion computes the concentration of control in g from its control
// groups (chains of majority ownership).
func Dispersion(g *graph.Graph) DispersionReport {
	groups := Groups(g)
	rep := DispersionReport{
		Companies: g.NumNodes(),
		Groups:    len(groups),
	}
	if len(groups) == 0 {
		return rep
	}
	sizes := make([]int, len(groups))
	total := 0
	for i, gr := range groups {
		sizes[i] = len(gr.Members)
		total += len(gr.Members)
	}
	rep.Grouped = total
	rep.LargestGroup = sizes[0] // Groups returns largest first
	top := 10
	if top > len(sizes) {
		top = len(sizes)
	}
	cum := 0
	for k := 0; k < top; k++ {
		cum += sizes[k]
		rep.TopShare = append(rep.TopShare, float64(cum)/float64(total))
	}
	rep.Gini = gini(sizes)
	return rep
}

// gini computes the Gini coefficient of a positive integer distribution.
func gini(sizes []int) float64 {
	n := len(sizes)
	if n == 0 {
		return 0
	}
	asc := make([]int, n)
	copy(asc, sizes)
	sort.Ints(asc)
	var cumWeighted, sum float64
	for i, s := range asc {
		cumWeighted += float64(i+1) * float64(s)
		sum += float64(s)
	}
	if sum == 0 {
		return 0
	}
	return (2*cumWeighted)/(float64(n)*sum) - float64(n+1)/float64(n)
}

// ControlledSetsParallel computes the controlled set of every source with a
// bounded worker pool — the bulk computation behind group-register style
// data products ("thousands of control queries per minute", Section X).
// The result is indexed like sources.
func ControlledSetsParallel(g *graph.Graph, sources []graph.NodeID, workers int) []graph.NodeSet {
	if workers <= 0 {
		workers = 4
	}
	if workers > len(sources) {
		workers = len(sources)
	}
	out := make([]graph.NodeSet, len(sources))
	if len(sources) == 0 {
		return out
	}
	// Freeze once: the workers share a read-only CSR snapshot.
	fz := graph.Freeze(g)
	jobs := make(chan int)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			for i := range jobs {
				out[i] = ControlledSet(fz, sources[i])
			}
			done <- struct{}{}
		}()
	}
	for i := range sources {
		jobs <- i
	}
	close(jobs)
	for w := 0; w < workers; w++ {
		<-done
	}
	return out
}
