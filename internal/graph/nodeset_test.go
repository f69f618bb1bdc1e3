package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNodeSetBasics(t *testing.T) {
	s := NewNodeSet(10)
	if !s.Empty() || s.Len() != 0 {
		t.Fatal("new set not empty")
	}
	s.Add(3)
	s.Add(7)
	s.Add(3)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if !s.Contains(3) || !s.Contains(7) || s.Contains(4) {
		t.Fatal("Contains wrong")
	}
	s.Remove(3)
	if s.Contains(3) || s.Len() != 1 {
		t.Fatal("Remove failed")
	}
	s.Remove(200) // out of range: no-op
	if s.Len() != 1 {
		t.Fatal("Remove out-of-range changed set")
	}
}

func TestNodeSetGrowsBeyond64(t *testing.T) {
	var s NodeSet
	s.Add(130)
	if !s.Contains(130) || s.Contains(129) {
		t.Fatal("growth across words broken")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	ids := s.IDs()
	if len(ids) != 1 || ids[0] != 130 {
		t.Fatalf("IDs = %v", ids)
	}
}

func TestNodeSetOps(t *testing.T) {
	a := NodeSetOf(1, 2, 3)
	b := NodeSetOf(3, 4)
	if got := a.Union(b); got.Len() != 4 || !got.Contains(4) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); got.Len() != 1 || !got.Contains(3) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Minus(b); got.Len() != 2 || got.Contains(3) {
		t.Errorf("Minus = %v", got)
	}
	if a.Disjoint(b) {
		t.Error("Disjoint(a,b) = true")
	}
	if !a.Disjoint(NodeSetOf(9)) {
		t.Error("Disjoint(a,{9}) = false")
	}
	if !a.Equal(NodeSetOf(3, 2, 1)) {
		t.Error("Equal order-sensitive")
	}
	if a.Equal(b) {
		t.Error("Equal(a,b) = true")
	}
}

func TestNodeSetEqualAcrossCapacities(t *testing.T) {
	a := NewNodeSet(200)
	a.Add(5)
	b := NodeSetOf(5)
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("Equal must ignore trailing zero words")
	}
	if a.Key() != b.Key() {
		t.Fatalf("Key mismatch: %q vs %q", a.Key(), b.Key())
	}
}

func TestNodeSetCloneIndependence(t *testing.T) {
	a := NodeSetOf(1)
	c := a.Clone()
	c.Add(2)
	if a.Contains(2) {
		t.Fatal("Clone shares storage")
	}
}

func TestNodeSetString(t *testing.T) {
	if got := NodeSetOf(2, 5).String(); got != "{2,5}" {
		t.Errorf("String = %q", got)
	}
	var empty NodeSet
	if got := empty.String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

// Property: for random sets, Union/Intersect/Minus agree with a map-based
// model implementation.
func TestNodeSetQuickAgainstModel(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		var a, b NodeSet
		ma, mb := map[int]bool{}, map[int]bool{}
		for _, x := range xs {
			a.Add(NodeID(x))
			ma[int(x)] = true
		}
		for _, y := range ys {
			b.Add(NodeID(y))
			mb[int(y)] = true
		}
		u, in, mi := a.Union(b), a.Intersect(b), a.Minus(b)
		for v := 0; v < 256; v++ {
			id := NodeID(v)
			if u.Contains(id) != (ma[v] || mb[v]) {
				return false
			}
			if in.Contains(id) != (ma[v] && mb[v]) {
				return false
			}
			if mi.Contains(id) != (ma[v] && !mb[v]) {
				return false
			}
		}
		return a.Disjoint(b) == in.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: walking a set with Next visits exactly IDs, in order, from any
// starting point, across word boundaries and trailing zero words.
func TestNodeSetNextWalksIDs(t *testing.T) {
	f := func(xs []uint8, spare uint8, from int8) bool {
		s := NewNodeSet(int(spare) + 1)
		for _, x := range xs {
			s.Add(NodeID(x))
		}
		var want []NodeID
		for _, id := range s.IDs() {
			if id >= NodeID(from) {
				want = append(want, id)
			}
		}
		var got []NodeID
		for v, ok := s.Next(NodeID(from)); ok; v, ok = s.Next(v + 1) {
			got = append(got, v)
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	var empty NodeSet
	if _, ok := empty.Next(0); ok {
		t.Error("Next on the empty set returned an element")
	}
}

// Property: Key is injective on sets over a small universe.
func TestNodeSetKeyInjective(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	seen := map[string]string{}
	for i := 0; i < 500; i++ {
		var s NodeSet
		for j := 0; j < 10; j++ {
			if rng.Intn(2) == 1 {
				s.Add(NodeID(rng.Intn(100)))
			}
		}
		k := s.Key()
		if prev, ok := seen[k]; ok && prev != s.String() {
			t.Fatalf("Key collision: %q for %s and %s", k, prev, s)
		}
		seen[k] = s.String()
	}
}

// Fingerprint must agree on equal sets regardless of capacity and visit
// history, be invalidated by mutation, and travel with value copies.
func TestNodeSetFingerprint(t *testing.T) {
	a := NewNodeSet(200)
	a.Add(5)
	a.Add(70)
	b := NodeSetOf(70, 5)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("Fingerprint differs across capacities for equal sets")
	}
	var empty NodeSet
	grown := NewNodeSet(300)
	if empty.Fingerprint() != grown.Fingerprint() {
		t.Fatal("empty-set Fingerprint depends on capacity")
	}

	// Mutation invalidates the cache.
	fp := a.Fingerprint()
	a.Add(9)
	if a.Fingerprint() == fp {
		t.Fatal("Add did not change Fingerprint")
	}
	a.Remove(9)
	if a.Fingerprint() != fp {
		t.Fatal("Fingerprint not restored after Remove of the added id")
	}

	// Copies carry the cached value (same content, same fingerprint).
	c := a.Clone()
	if c.Fingerprint() != fp {
		t.Fatal("Clone changed Fingerprint")
	}

	// Derived sets must hash their own content, not the receiver's cache.
	u := a.Union(NodeSetOf(33))
	if u.Fingerprint() == fp {
		t.Fatal("Union reused the receiver's fingerprint")
	}
	m := a.Minus(NodeSetOf(5))
	if m.Fingerprint() == fp || !m.Equal(NodeSetOf(70)) {
		t.Fatalf("Minus fingerprint/content wrong: %v", m)
	}
	only70 := NodeSetOf(70)
	if m.Fingerprint() != only70.Fingerprint() {
		t.Fatal("Minus result disagrees with directly built equal set")
	}
}

// Property: Fingerprint is collision-free across the distinct small sets a
// model graph actually produces (Key injectivity is the ground truth).
func TestNodeSetFingerprintNoCollisionsOnSmallUniverse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	byFP := map[uint64]string{}
	for i := 0; i < 2000; i++ {
		var s NodeSet
		for j := 0; j < 12; j++ {
			if rng.Intn(2) == 1 {
				s.Add(NodeID(rng.Intn(200)))
			}
		}
		k, fp := s.Key(), s.Fingerprint()
		if prev, ok := byFP[fp]; ok && prev != k {
			t.Fatalf("fingerprint collision: %x for %q and %q", fp, prev, k)
		}
		byFP[fp] = k
	}
}

func TestInducedConvex(t *testing.T) {
	g, a, l, r, d := diamond(t)
	cases := []struct {
		set  NodeSet
		want bool
	}{
		{NodeSetOf(a), true},
		{NodeSetOf(a, l), true},
		{NodeSetOf(a, l, r), true},
		{NodeSetOf(l, r), true},
		{NodeSetOf(a, d), false}, // path a->b->d leaves and re-enters
		{NodeSetOf(l, d), true},
		{g.AllNodes(), true},
	}
	for _, c := range cases {
		if got := g.InducedConvex(c.set); got != c.want {
			t.Errorf("InducedConvex(%v) = %v, want %v", c.set, got, c.want)
		}
	}
}

func TestInducedConvexLongPath(t *testing.T) {
	// a -> b -> c -> d: {a, c} is not convex, {b, c} is.
	b := NewBuilder("path")
	var ids []NodeID
	for i := 0; i < 4; i++ {
		ids = append(ids, b.AddOp(Op{Kind: OpLinear}))
	}
	b.Chain(ids...)
	g := b.MustBuild()
	if g.InducedConvex(NodeSetOf(ids[0], ids[2])) {
		t.Error("non-contiguous chain subset reported convex")
	}
	if !g.InducedConvex(NodeSetOf(ids[1], ids[2])) {
		t.Error("contiguous chain subset reported non-convex")
	}
}

func TestReachabilityAndDownsets(t *testing.T) {
	g, a, l, r, d := diamond(t)
	reach := g.ReachableFrom(NodeSetOf(l))
	if !reach.Equal(NodeSetOf(l, d)) {
		t.Errorf("ReachableFrom(b) = %v", reach)
	}
	anc := g.AncestorsOf(NodeSetOf(d))
	if anc.Len() != 4 {
		t.Errorf("AncestorsOf(d) = %v", anc)
	}
	if !g.IsDownset(NodeSetOf(a, l)) {
		t.Error("{a,b} should be a downset")
	}
	if g.IsDownset(NodeSetOf(l)) {
		t.Error("{b} should not be a downset")
	}
	if !g.IsDownset(NodeSetOf(a, l, r, d)) {
		t.Error("full set should be a downset")
	}
}

// Property: every downset is convex... is NOT generally true; but every
// convex set that contains all ancestors of its members is a downset.
// Here we check the cheap invariant: the intersection of reachability and
// ancestry of a single node is convex (it is an interval of the DAG).
func TestIntervalConvexProperty(t *testing.T) {
	g := randomDAG(t, 24, 0.2, 7)
	for v := 0; v < g.Len(); v++ {
		for w := 0; w < g.Len(); w++ {
			iv := g.ReachableFrom(NodeSetOf(NodeID(v))).Intersect(g.AncestorsOf(NodeSetOf(NodeID(w))))
			if iv.Empty() {
				continue
			}
			if !g.InducedConvex(iv) {
				t.Fatalf("interval [%d..%d] = %v not convex", v, w, iv)
			}
		}
	}
}

// randomDAG builds a random DAG with edges only from lower to higher ids.
func randomDAG(t testing.TB, n int, p float64, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder("rand")
	var ids []NodeID
	for i := 0; i < n; i++ {
		ids = append(ids, b.AddOp(Op{Kind: OpLinear, FwdFLOPs: 1, OutputBytes: 1}))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.Connect(ids[i], ids[j])
			}
		}
	}
	// Make sure the graph is connected enough: chain the isolated nodes.
	g, err := b.Build()
	if err != nil {
		t.Fatalf("randomDAG: %v", err)
	}
	return g
}

func TestSortedIDs(t *testing.T) {
	in := []NodeID{5, 1, 3}
	out := SortedIDs(in)
	if out[0] != 1 || out[1] != 3 || out[2] != 5 {
		t.Errorf("SortedIDs = %v", out)
	}
	if in[0] != 5 {
		t.Error("SortedIDs mutated input")
	}
}

// Property: InducedConvex agrees with the brute-force definition (no path
// between two members leaves and re-enters the set) on random DAGs.
func TestInducedConvexAgainstBruteForce(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomDAG(t, 10, 0.3, seed)
		// Brute force: for every ordered pair (u,v) in S, DFS over paths
		// u→v and check whether any intermediate node is outside S.
		brute := func(set NodeSet) bool {
			ids := set.IDs()
			for _, u := range ids {
				// Nodes reachable from u via at least one edge with all
				// intermediates outside... simpler: compute nodes
				// reachable from u leaving S, then check none of them
				// re-enters S.
				outside := NewNodeSet(g.Len())
				stack := []NodeID{}
				for _, w := range g.Succ(u) {
					if !set.Contains(w) && !outside.Contains(w) {
						outside.Add(w)
						stack = append(stack, w)
					}
				}
				for len(stack) > 0 {
					x := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					for _, w := range g.Succ(x) {
						if set.Contains(w) {
							return false // left S and re-entered
						}
						if !outside.Contains(w) {
							outside.Add(w)
							stack = append(stack, w)
						}
					}
				}
			}
			return true
		}
		rng := rand.New(rand.NewSource(seed + 100))
		for trial := 0; trial < 200; trial++ {
			var set NodeSet
			for v := 0; v < g.Len(); v++ {
				if rng.Intn(3) == 0 {
					set.Add(NodeID(v))
				}
			}
			if set.Empty() {
				continue
			}
			if got, want := g.InducedConvex(set), brute(set); got != want {
				t.Fatalf("seed %d set %v: InducedConvex=%v brute=%v", seed, set, got, want)
			}
		}
	}
}
