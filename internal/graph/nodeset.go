package graph

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// NodeSet is a bitset over NodeIDs. Planners use NodeSets as DP memoization
// keys (via Key or the cheaper Fingerprint) and to represent pipeline-stage
// membership. The zero value is an empty set usable without initialization
// for graphs of up to 64 nodes; Add grows the backing storage on demand.
type NodeSet struct {
	words []uint64
	// fp caches Fingerprint (0 = not yet computed). Mutating methods reset
	// it; copies of a set carry the cache with them, so interning layers
	// (the planner's zone table, spgraph's split memo) hash each set once
	// and every downstream cost-cache lookup reuses the value.
	fp uint64
}

// NewNodeSet returns a set sized for n nodes.
func NewNodeSet(n int) NodeSet {
	return NodeSet{words: make([]uint64, (n+63)/64)}
}

// NodeSetOf builds a set containing exactly ids.
func NodeSetOf(ids ...NodeID) NodeSet {
	var s NodeSet
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

func (s *NodeSet) grow(id NodeID) {
	need := int(id)/64 + 1
	for len(s.words) < need {
		s.words = append(s.words, 0)
	}
}

// Add inserts id into the set.
func (s *NodeSet) Add(id NodeID) {
	s.grow(id)
	s.words[id/64] |= 1 << (uint(id) % 64)
	s.fp = 0
}

// Remove deletes id from the set if present.
func (s *NodeSet) Remove(id NodeID) {
	if int(id)/64 < len(s.words) {
		s.words[id/64] &^= 1 << (uint(id) % 64)
		s.fp = 0
	}
}

// Contains reports whether id is in the set.
func (s NodeSet) Contains(id NodeID) bool {
	w := int(id) / 64
	return w < len(s.words) && s.words[w]&(1<<(uint(id)%64)) != 0
}

// Len returns the number of elements.
func (s NodeSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no elements.
func (s NodeSet) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy (the cached fingerprint carries over:
// the content is identical).
func (s NodeSet) Clone() NodeSet {
	return NodeSet{words: append([]uint64(nil), s.words...), fp: s.fp}
}

// Union returns s ∪ t as a new set.
func (s NodeSet) Union(t NodeSet) NodeSet {
	out := s.Clone()
	out.fp = 0
	for i, w := range t.words {
		if i < len(out.words) {
			out.words[i] |= w
		} else {
			out.words = append(out.words, w)
		}
	}
	return out
}

// Intersect returns s ∩ t as a new set.
func (s NodeSet) Intersect(t NodeSet) NodeSet {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	out := NodeSet{words: make([]uint64, n)}
	for i := 0; i < n; i++ {
		out.words[i] = s.words[i] & t.words[i]
	}
	return out
}

// Minus returns s \ t as a new set.
func (s NodeSet) Minus(t NodeSet) NodeSet {
	out := s.Clone()
	out.fp = 0
	for i := range out.words {
		if i < len(t.words) {
			out.words[i] &^= t.words[i]
		}
	}
	return out
}

// Equal reports whether s and t contain the same elements.
func (s NodeSet) Equal(t NodeSet) bool {
	n := len(s.words)
	if len(t.words) > n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		var a, b uint64
		if i < len(s.words) {
			a = s.words[i]
		}
		if i < len(t.words) {
			b = t.words[i]
		}
		if a != b {
			return false
		}
	}
	return true
}

// Disjoint reports whether s ∩ t is empty.
func (s NodeSet) Disjoint(t NodeSet) bool {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return false
		}
	}
	return true
}

// IDs returns the elements in increasing order.
func (s NodeSet) IDs() []NodeID {
	var out []NodeID
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, NodeID(wi*64+b))
			w &^= 1 << uint(b)
		}
	}
	return out
}

// Key returns a compact string usable as a map key. Trailing zero words are
// ignored so equal sets with different capacities share a key.
func (s NodeSet) Key() string {
	last := len(s.words)
	for last > 0 && s.words[last-1] == 0 {
		last--
	}
	var sb strings.Builder
	for i := 0; i < last; i++ {
		fmt.Fprintf(&sb, "%016x", s.words[i])
	}
	return sb.String()
}

// Fingerprint returns a 64-bit content hash of the set, the allocation-free
// replacement for Key on hot map paths (costmodel.Cached): equal sets
// have equal fingerprints regardless of backing capacity, and distinct sets
// collide with probability ~n²/2⁶⁴ for n distinct sets — negligible against
// the few thousand zones of a model graph (callers that cannot tolerate any
// collision, like zone interning, still use Key). The value is cached on
// first call and invalidated by mutation, so sets interned once are hashed
// once; value copies carry the cache.
func (s *NodeSet) Fingerprint() uint64 {
	if s.fp != 0 {
		return s.fp
	}
	last := len(s.words)
	for last > 0 && s.words[last-1] == 0 {
		last--
	}
	// splitmix64-style mixing of each word with its index; trailing zero
	// words are excluded so equal sets with different capacities agree.
	h := uint64(last+1) * 0x9E3779B97F4A7C15
	for i := 0; i < last; i++ {
		x := s.words[i] + uint64(i)*0xBF58476D1CE4E5B9 + 0x9E3779B97F4A7C15
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
		h = (h ^ x) * 0x9E3779B97F4A7C15
	}
	if h == 0 {
		h = 0x9E3779B97F4A7C15 // keep 0 as the "not computed" sentinel
	}
	s.fp = h
	return h
}

// String renders the set as {a,b,c}.
func (s NodeSet) String() string {
	ids := s.IDs()
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprint(int(id))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// --- Graph algorithms over node sets ---

// InducedConvex reports whether the subgraph induced by set is convex in g:
// for every pair u, v in set, every directed path from u to v stays inside
// set. Convexity is condition C1 of a valid GPP strategy (§3): a pipeline
// stage must not be re-entered by data that left it.
func (g *Graph) InducedConvex(set NodeSet) bool {
	// A set S is convex iff no path leaves S and later re-enters it.
	// Walk nodes outside S in topological order, marking those reachable
	// from S; if any such node has an edge back into S, S is not convex.
	reachesFromS := make([]bool, g.Len())
	for _, v := range g.topo {
		inS := set.Contains(v)
		tainted := false
		for _, p := range g.pred[v] {
			if set.Contains(p) || reachesFromS[p] {
				tainted = true
				break
			}
		}
		if !inS {
			reachesFromS[v] = tainted
			continue
		}
		// v is in S: it must not be reachable from S via outside nodes.
		for _, p := range g.pred[v] {
			if !set.Contains(p) && reachesFromS[p] {
				return false
			}
		}
	}
	return true
}

// ReachableFrom returns the set of nodes reachable from any node of start
// (inclusive).
func (g *Graph) ReachableFrom(start NodeSet) NodeSet {
	out := start.Clone()
	out.grow(NodeID(g.Len() - 1))
	for _, v := range g.topo {
		if out.Contains(v) {
			for _, w := range g.succ[v] {
				out.Add(w)
			}
		}
	}
	return out
}

// AncestorsOf returns the set of nodes that can reach any node of start
// (inclusive).
func (g *Graph) AncestorsOf(start NodeSet) NodeSet {
	out := start.Clone()
	out.grow(NodeID(g.Len() - 1))
	for i := len(g.topo) - 1; i >= 0; i-- {
		v := g.topo[i]
		if out.Contains(v) {
			for _, p := range g.pred[v] {
				out.Add(p)
			}
		}
	}
	return out
}

// IsDownset reports whether set is closed under predecessors: if v ∈ set
// then every predecessor of v is in set. Downsets are the DP states of the
// Piper baseline.
func (g *Graph) IsDownset(set NodeSet) bool {
	for _, v := range set.IDs() {
		for _, p := range g.pred[v] {
			if !set.Contains(p) {
				return false
			}
		}
	}
	return true
}

// SortedIDs returns ids sorted ascending (a convenience for deterministic
// iteration in planners).
func SortedIDs(ids []NodeID) []NodeID {
	out := append([]NodeID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
