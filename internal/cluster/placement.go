package cluster

// PlacementTable numbers the cost-equivalence classes of contiguous device
// blocks. Two blocks of one size share a class exactly when every
// placement-aware cost the planner computes — per-op compute times
// (device-class sequence), boundary transfer rates (the level of the link
// feeding the block), and allreduce bandwidth (internal link levels) — is
// identical, so a DP memo entry keyed by (size, class) is valid for every
// block of that class.
//
// The class signature is hereditary under aligned sub-splits: splitting
// two same-class blocks at the same offset yields pairwise same-class
// halves (the halves see identical class/level sequences, and the right
// half's in-link is an internal link of the parent, also identical). That
// is what makes memo sharing across blocks sound.
//
// Classes are numbered per block size: a block's id is the rank of its
// signature among the distinct signatures of same-size blocks, taken in
// start order. An id therefore depends only on the devices up to the
// block, so a topology that is a device prefix of another (summit at n
// devices is one of summit at more) gives every block the two share the
// same id. A size-c block of an n-device topology has at most n-c+1
// classes. On a flat uniform topology every size is one class, so the
// placement dimension collapses and the table adds no search state.
type PlacementTable struct {
	n int
	// class[start*n + (count-1)] is the class id of Block{start, count}.
	class []int32
	// reps[count-1][id] is the start of the first block of that size and
	// class.
	reps [][]int
}

// NewPlacementTable builds the class table for every contiguous block of
// the topology. A block's signature is the signature of the block one
// device shorter plus the level of the link into its last device and that
// device's class, so each size interns (shorter block's id, level, class)
// triples, and building the table takes time linear in the number of
// blocks.
func NewPlacementTable(t *Topology) *PlacementTable {
	n := t.Len()
	pt := &PlacementTable{n: n, class: make([]int32, n*n), reps: make([][]int, n)}
	type sig struct{ prefix, level, class int32 }
	for count := 1; count <= n; count++ {
		seen := make(map[sig]int32)
		for start := 0; start+count <= n; start++ {
			last := start + count - 1
			k := sig{prefix: -1, level: int32(t.InLinkLevel(last)), class: int32(t.ClassOf(DeviceID(last)))}
			if count > 1 {
				k.prefix = pt.class[start*n+count-2]
			}
			id, ok := seen[k]
			if !ok {
				id = int32(len(pt.reps[count-1]))
				seen[k] = id
				pt.reps[count-1] = append(pt.reps[count-1], start)
			}
			pt.class[start*n+count-1] = id
		}
	}
	return pt
}

// Class returns the class id of the block [start, start+count) among the
// blocks of its size.
func (pt *PlacementTable) Class(start, count int) int {
	return int(pt.class[start*pt.n+count-1])
}

// NumClasses returns how many classes the blocks of the given size form.
func (pt *PlacementTable) NumClasses(count int) int { return len(pt.reps[count-1]) }

// Rep returns a block representative of the given class at the given
// count: any block of the class has identical costs, so cost queries use
// the representative and share cache entries.
func (pt *PlacementTable) Rep(class, count int) Block {
	return Block{Start: pt.reps[count-1][class], Count: count}
}
