// Package spgraph implements the series-parallel decomposition GraphPipe's
// pipeline stage partitioner is built on (§5). Most DNNs structurally
// reflect series-parallel graphs; the partitioner's dynamic program
// repeatedly splits the computation graph into two subgraphs either in
// series (at a cut operator every source→sink path passes through) or in
// parallel (groups of branches with no mutual data dependencies).
//
// Subgraphs are represented as "zones": convex node sets of the underlying
// computation graph. A zone admits
//
//   - series splits (Z1, Z2) where every edge between the parts is directed
//     Z1 → Z2 and the boundary is a cut operator of the zone, and
//   - parallel splits (Z1, Z2) where the parts are unions of weakly
//     connected components of the zone and share no edges at all.
//
// Both sides of any split are again convex, so the partitioner can recurse.
// Parallel components are ordered canonically (by smallest operator id) and
// parallel splits are contiguous groupings in that order; for the paper's
// workloads all branches in a group are structurally identical, so this
// keeps the DP polynomial without discarding useful strategies (see
// docs/ARCHITECTURE.md, "The partition space").
package spgraph

import (
	"fmt"
	"sort"

	"graphpipe/internal/graph"
)

// Split is a binary decomposition of a zone into two disjoint parts whose
// union is the original zone.
type Split struct {
	Left, Right graph.NodeSet
	// Series is true for a series split (all edges Left → Right) and false
	// for a parallel split (no edges between the parts).
	Series bool
	// SinkAnchored marks a parallel split of a zone whose merge tail
	// (everything from the first cut operator onward, e.g. concat + head)
	// stays with the Right part, so a pipeline stage can contain both the
	// tail of a branch and the merge operator — §7.5: "one stage
	// necessarily contains the concatenation operator". Left's stages
	// feed the stage holding MergeOp inside Right.
	SinkAnchored bool
	// MergeOp is the tail's entry operator (the zone's first cut) for
	// sink-anchored splits.
	MergeOp graph.NodeID
}

// Decomposer computes and memoizes decompositions of zones of a single
// computation graph. It is not safe for concurrent use.
type Decomposer struct {
	g    *graph.Graph
	memo map[string]*zoneInfo
}

type zoneInfo struct {
	cuts     []graph.NodeID // cut operators in topological order
	comps    []graph.NodeSet
	series   []Split
	parallel []Split
}

// New returns a Decomposer for g.
func New(g *graph.Graph) *Decomposer {
	return &Decomposer{g: g, memo: make(map[string]*zoneInfo)}
}

// Graph returns the underlying computation graph.
func (d *Decomposer) Graph() *graph.Graph { return d.g }

// Root returns the zone covering the entire computation graph.
func (d *Decomposer) Root() graph.NodeSet { return d.g.AllNodes() }

func (d *Decomposer) info(zone graph.NodeSet) *zoneInfo {
	key := zone.Key()
	if zi, ok := d.memo[key]; ok {
		return zi
	}
	zi := d.analyze(zone)
	d.memo[key] = zi
	return zi
}

// sourcesIn returns the nodes of zone with no predecessor inside zone.
func (d *Decomposer) sourcesIn(zone graph.NodeSet) []graph.NodeID {
	var out []graph.NodeID
	for _, v := range zone.IDs() {
		has := false
		for _, p := range d.g.Pred(v) {
			if zone.Contains(p) {
				has = true
				break
			}
		}
		if !has {
			out = append(out, v)
		}
	}
	return out
}

// sinksIn returns the nodes of zone with no successor inside zone.
func (d *Decomposer) sinksIn(zone graph.NodeSet) []graph.NodeID {
	var out []graph.NodeID
	for _, v := range zone.IDs() {
		has := false
		for _, s := range d.g.Succ(v) {
			if zone.Contains(s) {
				has = true
				break
			}
		}
		if !has {
			out = append(out, v)
		}
	}
	return out
}

// Sources exposes the zone's internal sources (operators whose inputs all
// come from outside the zone).
func (d *Decomposer) Sources(zone graph.NodeSet) []graph.NodeID { return d.sourcesIn(zone) }

// Sinks exposes the zone's internal sinks.
func (d *Decomposer) Sinks(zone graph.NodeSet) []graph.NodeID { return d.sinksIn(zone) }

// reachableWithin returns nodes of zone reachable from start, staying inside
// zone and excluding the removed node.
func (d *Decomposer) reachableWithin(zone graph.NodeSet, start []graph.NodeID, removed graph.NodeID) graph.NodeSet {
	seen := graph.NewNodeSet(d.g.Len())
	stack := make([]graph.NodeID, 0, len(start))
	for _, s := range start {
		if s != removed && zone.Contains(s) {
			seen.Add(s)
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range d.g.Succ(v) {
			if w == removed || !zone.Contains(w) || seen.Contains(w) {
				continue
			}
			seen.Add(w)
			stack = append(stack, w)
		}
	}
	return seen
}

// Cuts returns the zone's cut operators in topological order: operators v
// such that every path from a source of the zone to a sink of the zone
// passes through v. A single source (or sink) is always a cut.
func (d *Decomposer) Cuts(zone graph.NodeSet) []graph.NodeID {
	return d.info(zone).cuts
}

// Components returns the weakly connected components of the zone in
// canonical order (ascending smallest operator id).
func (d *Decomposer) Components(zone graph.NodeSet) []graph.NodeSet {
	return d.info(zone).comps
}

// SeriesSplits returns the zone's series splits. The list is empty when the
// zone has no proper cut boundary (e.g. it is a single operator or a purely
// parallel bundle of branches).
func (d *Decomposer) SeriesSplits(zone graph.NodeSet) []Split {
	return d.info(zone).series
}

// ParallelSplits returns the zone's parallel splits: contiguous groupings
// of its weakly connected components. Empty when the zone is connected.
func (d *Decomposer) ParallelSplits(zone graph.NodeSet) []Split {
	return d.info(zone).parallel
}

// IsAtom reports whether the zone cannot be decomposed further and must be
// treated as a single pipeline stage.
func (d *Decomposer) IsAtom(zone graph.NodeSet) bool {
	zi := d.info(zone)
	return len(zi.series) == 0 && len(zi.parallel) == 0
}

// LinearizedSplits handles the unusual non-series-parallel zones (§5: "In
// the unusual cases where a DNN does not possess such a structural
// property, GraphPipe bypasses this issue by converting the DNN to an
// arithmetically identical one whose structure is a series-parallel
// graph"). The conversion here is a fixed topological linearization of the
// zone: every prefix/suffix cut of that order is a valid series boundary
// (all operator edges cross forward), which reduces the zone to the chain
// the baselines would plan — strictly better than treating it as one
// indivisible stage. Returns nil for zones that decompose normally.
func (d *Decomposer) LinearizedSplits(zone graph.NodeSet) []Split {
	if zone.Len() < 2 || !d.IsAtom(zone) {
		return nil
	}
	// Zone-local topological order: global topo restricted to the zone.
	var order []graph.NodeID
	for _, v := range d.g.Topo() {
		if zone.Contains(v) {
			order = append(order, v)
		}
	}
	var out []Split
	left := graph.NewNodeSet(d.g.Len())
	for i := 0; i+1 < len(order); i++ {
		left.Add(order[i])
		right := zone.Minus(left)
		out = append(out, Split{Left: left.Clone(), Right: right, Series: true})
	}
	return out
}

func (d *Decomposer) analyze(zone graph.NodeSet) *zoneInfo {
	zi := &zoneInfo{}
	n := zone.Len()
	if n == 0 {
		return zi
	}
	zi.comps = d.components(zone)
	if n == 1 {
		return zi
	}

	sources := d.sourcesIn(zone)
	sinks := d.sinksIn(zone)
	sinkSet := graph.NewNodeSet(d.g.Len())
	for _, s := range sinks {
		sinkSet.Add(s)
	}

	// Cut detection: v is a cut iff with v removed, no sink of the zone is
	// reachable from any source of the zone. O(|Z|·E) per zone; zones are
	// memoized and model graphs are small.
	var cuts []graph.NodeID
	if len(zi.comps) == 1 { // cuts only exist in connected zones
		for _, v := range zone.IDs() {
			reach := d.reachableWithin(zone, sources, v)
			if reach.Intersect(sinkSet).Empty() {
				cuts = append(cuts, v)
			}
		}
		sort.Slice(cuts, func(i, j int) bool {
			return d.g.TopoPos(cuts[i]) < d.g.TopoPos(cuts[j])
		})
	}
	zi.cuts = cuts

	// Series splits: each cut c partitions the zone into strict ancestors,
	// {c}, and strict descendants (every zone member is comparable to a
	// cut). Both (anc, {c} ∪ desc) and (anc ∪ {c}, desc) are valid series
	// boundaries; adjacent cuts produce duplicate splits, deduped by key.
	seenSplit := make(map[string]bool)
	for _, c := range cuts {
		descSelf := d.reachableWithin(zone, []graph.NodeID{c}, -1)
		anc := zone.Minus(descSelf)
		desc := descSelf.Clone()
		desc.Remove(c)

		if !anc.Empty() {
			right := descSelf
			if k := anc.Key(); !seenSplit[k] {
				seenSplit[k] = true
				zi.series = append(zi.series, Split{Left: anc, Right: right, Series: true})
			}
		}
		if !desc.Empty() {
			left := anc.Clone()
			left.Add(c)
			if k := left.Key(); !seenSplit[k] {
				seenSplit[k] = true
				zi.series = append(zi.series, Split{Left: left, Right: desc, Series: true})
			}
		}
	}
	sort.Slice(zi.series, func(i, j int) bool { return zi.series[i].Left.Len() < zi.series[j].Left.Len() })

	// Parallel splits: contiguous groupings of the canonical component
	// order.
	if m := len(zi.comps); m >= 2 {
		for k := 1; k < m; k++ {
			left := graph.NewNodeSet(d.g.Len())
			for i := 0; i < k; i++ {
				left = left.Union(zi.comps[i])
			}
			right := graph.NewNodeSet(d.g.Len())
			for i := k; i < m; i++ {
				right = right.Union(zi.comps[i])
			}
			zi.parallel = append(zi.parallel, Split{Left: left, Right: right})
		}
	}

	// Sink-anchored parallel splits: a connected zone whose merge tail
	// joins otherwise-independent branches also splits in parallel, with
	// the tail travelling with the last branch group. The tail is
	// everything from the zone's first cut operator onward (for a
	// branches→concat→head zone: {concat, head}); removing it leaves the
	// branch components. This lets a stage combine a branch tail with the
	// merge operator, as the paper's partitions do (§7.5), and lets a
	// whole branch group plus the merge tail form one balanced stage.
	if len(zi.comps) == 1 && len(cuts) > 0 {
		tail := d.reachableWithin(zone, cuts[:1], -1) // desc-or-self of first cut
		inner := zone.Minus(tail)
		if !inner.Empty() {
			branchComps := d.components(inner)
			if m := len(branchComps); m >= 2 {
				for k := 1; k < m; k++ {
					left := graph.NewNodeSet(d.g.Len())
					for i := 0; i < k; i++ {
						left = left.Union(branchComps[i])
					}
					right := tail.Clone()
					for i := k; i < m; i++ {
						right = right.Union(branchComps[i])
					}
					zi.parallel = append(zi.parallel, Split{Left: left, Right: right, SinkAnchored: true, MergeOp: cuts[0]})
				}
			}
		}
	}
	return zi
}

// components computes weakly connected components of zone in canonical
// order.
func (d *Decomposer) components(zone graph.NodeSet) []graph.NodeSet {
	ids := zone.IDs()
	if len(ids) == 0 {
		return nil
	}
	visited := graph.NewNodeSet(d.g.Len())
	var comps []graph.NodeSet
	for _, start := range ids {
		if visited.Contains(start) {
			continue
		}
		comp := graph.NewNodeSet(d.g.Len())
		stack := []graph.NodeID{start}
		comp.Add(start)
		visited.Add(start)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range d.g.Succ(v) {
				if zone.Contains(w) && !visited.Contains(w) {
					visited.Add(w)
					comp.Add(w)
					stack = append(stack, w)
				}
			}
			for _, w := range d.g.Pred(v) {
				if zone.Contains(w) && !visited.Contains(w) {
					visited.Add(w)
					comp.Add(w)
					stack = append(stack, w)
				}
			}
		}
		comps = append(comps, comp)
	}
	// ids are iterated ascending, so comps are already ordered by smallest
	// member; keep an explicit sort for clarity.
	sort.Slice(comps, func(i, j int) bool {
		return comps[i].IDs()[0] < comps[j].IDs()[0]
	})
	return comps
}

// Validate checks that the computation graph meets the partitioner's
// structural requirements: at least one source, and a single global sink
// (training has one loss). Multiple sources are natural — each branch of a
// multi-modal model reads its own modality — and the decomposer's cut and
// component machinery handles them directly.
func Validate(g *graph.Graph) error {
	if n := len(g.Sources()); n < 1 {
		return fmt.Errorf("spgraph: graph %q has no sources", g.Name())
	}
	if n := len(g.Sinks()); n != 1 {
		return fmt.Errorf("spgraph: graph %q has %d sinks, want 1 (add a virtual output)", g.Name(), n)
	}
	return nil
}

// CountZones exhaustively counts the distinct zones reachable from the root
// by recursive series/parallel splitting. It is the N of the partitioner's
// complexity analysis (§5) and is used in tests to confirm the DP state
// space stays polynomial.
func (d *Decomposer) CountZones() int {
	seen := map[string]bool{}
	var walk func(z graph.NodeSet)
	walk = func(z graph.NodeSet) {
		k := z.Key()
		if seen[k] {
			return
		}
		seen[k] = true
		for _, s := range d.SeriesSplits(z) {
			walk(s.Left)
			walk(s.Right)
		}
		for _, s := range d.ParallelSplits(z) {
			walk(s.Left)
			walk(s.Right)
		}
	}
	walk(d.Root())
	return len(seen)
}
