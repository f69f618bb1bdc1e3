package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sync"

	"graphpipe/internal/costmodel"
	"graphpipe/internal/graph"
	"graphpipe/internal/memosnap"
	"graphpipe/internal/planner"
	"graphpipe/internal/schedule"
)

// This file translates the planner's in-memory DP memo to and from
// memosnap snapshots, so a search can warm-start from a prior one.
//
// Soundness rests on the same argument as the probe-spanning memo (see the
// span type): every DP value is a pure function of its packed key and of
// the per-stage costs the computation consulted, and its validity interval
// bounds the targets for which the [tps ≤ tmax] comparisons inside it come
// out identical. Costs depend on the graph, the structural options, the
// topology observables, and the mini-batch (through the TPS objective's
// allreduce term) — but not on the cluster size: a stage is costed
// against its device block, and a key names the block by its size and its
// placement class, whose signature (device classes, in-link and internal
// link levels) fixes every cost the stage can see. The snapshot key
// (graph hash + shape sig + cost sig) pins the graph/options/cost inputs;
// SearchMemos isolate mini-batches. The cost signature pins the exact
// topology, except on the summit preset, where it is the same at every
// device count. Summit at n devices is a device prefix of summit at more,
// and class ids are numbered per block size in start order, so every block
// the two sizes share carries the same id in both: an entry computed at 32
// devices is exactly what a 16-device search would have computed for the
// same key. Entries for degrees or classes the importer's cluster lacks
// are simply never queried.

// snapshotKey computes this planning question's compatibility identity.
func (p *partitioner) snapshotKey() memosnap.Key {
	return memosnap.Key{
		GraphHash: p.g.CanonicalHash(),
		ShapeSig:  p.shapeSig(),
		CostSig:   p.costSig(),
	}
}

// shapeSig hashes the options that change which DP states exist or how
// keys pack: candidate sets and split rules. The binary-search tolerance
// and Workers are deliberately excluded — the validity intervals make
// entries correct for any target, and the worker count never changes a
// value (both pinned by the determinism conformance invariant). The
// micro-batch cap is hashed as the search applies it, so leaving it unset
// and spelling out the default share a key.
func (p *partitioner) shapeSig() uint64 {
	maxMB := p.opts.MaxMicroBatch
	if maxMB == 0 {
		maxMB = planner.DefaultMaxMicroBatch
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "shape5\nmaxmb=%d\nforced=%d\nperstage=%t\nnoanchor=%t\n",
		maxMB, p.opts.ForcedMicroBatch, p.opts.PerStageMicroBatch, p.opts.DisableSinkAnchoredSplits)
	return h.Sum64()
}

// costSig hashes every cost input a DP computation can observe: the
// topology (its canonical spec, memory budget and link levels) and the
// cost model's behavior, fingerprinted through deterministic whole-graph
// probes at fixed configurations. The probes cover the three degree
// regimes a stage can occupy (no allreduce, intra-node allreduce,
// inter-node allreduce), so changed model parameters or bandwidths shift
// at least one probe output and the signatures diverge. The conformance
// warm≡cold invariant is the backstop for cost models whose behavior a
// whole-graph probe cannot distinguish.
func (p *partitioner) costSig() uint64 {
	h := fnv.New64a()
	// The canonical topology spec pins every placement-aware cost input:
	// device classes, level bandwidths (down and up), and the class
	// assignment. The summit preset canonicalizes to "" at every device
	// count, which is what keeps snapshots reusable across an elastic
	// summit resize (its placement class ids are stable across sizes);
	// any other topology pins snapshots to its exact spec.
	fmt.Fprintf(h, "cost2\ntopo=%s\nminmem=%x\n",
		p.topo.Canonical(), math.Float64bits(p.topo.MinMemory()))
	fmt.Fprintf(h, "intra=%x\ninter=%x\nlat=%x\n",
		math.Float64bits(p.topo.LevelDown(0)),
		math.Float64bits(p.topo.LevelDown(p.topo.LevelCount()-1)),
		math.Float64bits(p.topo.LevelLatency(0)))
	dev := p.topo.Device(0)
	fmt.Fprintf(h, "mem=%x\nflops=%x\nbw=%x\n",
		math.Float64bits(dev.MemoryBytes), math.Float64bits(dev.PeakFLOPS), math.Float64bits(dev.MemBandwidth))
	probes := []struct {
		b, d int
		arX  bool // inter-node allreduce
	}{
		{1, 1, false},
		{4, 2, false},
		{8, 8, true},
	}
	const probeMiniBatch = 64
	for _, pr := range probes {
		c := p.model.Stage(p.g, costmodel.StageConfig{
			Ops: p.g.AllNodes(), MicroBatch: pr.b, DataPar: pr.d, InterNodeAllreduce: pr.arX,
		})
		fmt.Fprintf(h, "probe b=%d d=%d: %x %x %x %x %x %x %x\n", pr.b, pr.d,
			math.Float64bits(c.ForwardTime), math.Float64bits(c.BackwardTime),
			math.Float64bits(c.CommInTime), math.Float64bits(c.AllreducePerIter),
			math.Float64bits(c.WeightBytes), math.Float64bits(c.ActivationBytesPerSample),
			math.Float64bits(c.TPS(pr.b, probeMiniBatch)))
	}
	fmt.Fprintf(h, "maxtps=%x\n", math.Float64bits(p.model.MaxTPS(p.g, probeMiniBatch)))
	return h.Sum64()
}

// --- export ---

// exportSnapshot flattens every per-micro-batch search's newly computed
// memo entries into a snapshot (imported entries are skipped — the
// accumulated snapshot already holds them, and memosnap.Merge unions this
// export into it). Entries are emitted sorted by (key, interval) and
// derivation trees are deduplicated in that traversal order, so export is
// a deterministic function of the memo contents; an imported-but-unprobed
// search exports nothing, which makes Merge accumulation drift-free
// (pinned by test).
//
// Each search, with its stage-cost table, is dropped from results as soon
// as it is exported: its memo is garbage while the later searches export
// and while the sink merges, so the planner's memo and the new snapshot
// are never both fully live.
func (p *partitioner) exportSnapshot(key memosnap.Key, results []perB) *memosnap.Snapshot {
	snap := &memosnap.Snapshot{Key: key}
	for i := range results {
		if s := results[i].search; s != nil {
			snap.Searches = append(snap.Searches, p.exportSearch(s))
			results[i].search = nil
		}
	}
	return snap
}

func snapConfig(c schedule.Config) memosnap.Config {
	return memosnap.Config{MicroBatch: int32(c.MicroBatch), K: int32(c.K)}
}

func snapConfigs(cs []schedule.Config) []memosnap.Config {
	out := make([]memosnap.Config, len(cs))
	for i, c := range cs {
		out[i] = snapConfig(c)
	}
	return out
}

func (p *partitioner) exportSearch(s *search) memosnap.SearchMemo {
	sm := memosnap.SearchMemo{
		MiniBatch: int32(s.miniBatch),
		RootB:     int32(s.rootB),
		NumZones:  int32(len(p.zones.sets)),
		Configs:   snapConfigs(s.cfgs),
		Boundary:  snapConfigs(s.boundary),
	}
	type kv struct {
		k dpKey
		e memoEntry
	}
	// Only entries this search computed are exported; imported entries are
	// already in the accumulated snapshot, which memosnap.Merge unions the
	// export into. Export cost therefore scales with the new work, not
	// with everything ever learned about the graph.
	n := 0
	s.memo.each(func(_ dpKey, e memoEntry) {
		if !e.imported {
			n++
		}
	})
	pairs := make([]kv, 0, n)
	s.memo.each(func(k dpKey, e memoEntry) {
		if !e.imported {
			pairs = append(pairs, kv{k, e})
		}
	})
	// A key exports every span variant it accumulated (primary plus
	// history), so the sort must be total over variants: by key, then by
	// the interval. Which variant happened to sit in the primary slot is a
	// lookup-order artifact and deliberately does not survive export.
	slices.SortFunc(pairs, func(a, b kv) int {
		switch {
		case a.k != b.k:
			if a.k < b.k {
				return -1
			}
			return 1
		case a.e.sp.lo != b.e.sp.lo:
			if a.e.sp.lo < b.e.sp.lo {
				return -1
			}
			return 1
		case a.e.sp.hi < b.e.sp.hi:
			return -1
		case a.e.sp.hi > b.e.sp.hi:
			return 1
		}
		return 0
	})

	// Derivation trees are deduplicated by tagging each arena node with
	// the id it was assigned this export (expGen distinguishes exports, so
	// re-exporting after another export never reuses stale ids). The tag
	// replaces a pointer-keyed map, which dominated export profiles.
	p.exportGen++
	gen := p.exportGen
	var emit func(r *dpResult) int32
	emit = func(r *dpResult) int32 {
		if r.expGen == gen {
			return r.expID
		}
		var n memosnap.Node
		if r.leaf != nil {
			n = memosnap.Node{
				Leaf: true, Zone: int32(r.leaf.zone), Devs: int32(r.leaf.devs), NStages: 1,
				Cfg: snapConfig(r.leaf.cfg), InFlight: int32(r.leaf.inFlight),
				Mem: r.leaf.memory, TPS: r.leaf.tps,
			}
		} else {
			l, rr := emit(r.left), emit(r.right)
			n = memosnap.Node{
				Left: l, Right: rr, NStages: int32(r.nStages),
				Cfg: snapConfig(r.srcCfg), InFlight: int32(r.inFlight),
				Mem: r.maxMem, TPS: r.maxTPS,
			}
		}
		id := int32(len(sm.Nodes))
		sm.Nodes = append(sm.Nodes, n)
		r.expGen, r.expID = gen, id
		return id
	}
	sm.Entries = make([]memosnap.Entry, 0, len(pairs))
	for _, pr := range pairs {
		val := memosnap.Infeasible
		if pr.e.res != memoInfeasible {
			val = emit(pr.e.res)
		}
		sm.Entries = append(sm.Entries, memosnap.Entry{Key: uint64(pr.k), Lo: pr.e.sp.lo, Hi: pr.e.sp.hi, Val: val})
	}
	return sm
}

// --- import ---

// importMemo seeds the search's memo from one SearchMemo, returning false
// — leaving the memo cold, never erroring — unless the memo passes every
// compatibility check: same mini-batch and root candidate, the identical
// frozen config and boundary lists (key packing indexes into them), the
// same zone-table size, and every node and key field in range. The checks
// make a stale or foreign snapshot a no-op rather than a wrong plan; the
// warm≡cold conformance invariant enforces that end to end. They cover
// every node and entry up front, so a bad snapshot is rejected whole;
// nothing is built here. Keys are used as exported: a placement class id
// names the same block signature at every device count that shares this
// cost signature.
func (s *search) importMemo(sm *memosnap.SearchMemo) bool {
	p := s.p
	if int(sm.MiniBatch) != s.miniBatch || int(sm.RootB) != s.rootB {
		return false
	}
	if int(sm.NumZones) != len(p.zones.sets) {
		return false
	}
	if !configsEqual(sm.Configs, s.cfgs) || !configsEqual(sm.Boundary, s.boundary) {
		return false
	}

	nodes := sm.Nodes
	for i := range nodes {
		n := &nodes[i]
		if n.InFlight < 0 || !validConfig(n.Cfg, s.cfgs) {
			return false
		}
		if n.Leaf {
			if n.Zone < 0 || int(n.Zone) >= len(p.zones.sets) || n.Devs < 1 || n.NStages != 1 {
				return false
			}
			continue
		}
		// Children precede parents (Decode proves it for wire input), which
		// keeps the on-demand build acyclic and its recursion no deeper
		// than the tree's stage count.
		if n.Left < 0 || int(n.Left) >= i || n.Right < 0 || int(n.Right) >= i {
			return false
		}
		l, r := &nodes[n.Left], &nodes[n.Right]
		if n.NStages != l.NStages+r.NStages || n.Mem != math.Max(l.Mem, r.Mem) || n.TPS != math.Max(l.TPS, r.TPS) {
			return false
		}
	}

	// Validate every packed key's fields against this search's tables
	// before accepting anything: a single bad key rejects the whole memo,
	// keeping "imported" an all-or-nothing property per search.
	for i := range sm.Entries {
		e := &sm.Entries[i]
		if !s.validKey(dpKey(e.Key)) || badSpan(e.Lo, e.Hi) || e.Val < memosnap.Infeasible || int(e.Val) >= len(nodes) {
			return false
		}
	}
	s.memo.warm = &importedMemo{
		entries: sm.Entries,
		nodes:   nodes,
		zones:   p.zones.sets,
		built:   make([]*dpResult, len(nodes)),
	}
	return true
}

// importedMemo is an accepted SearchMemo, read on demand. Its entries are
// not seeded into the memo: an accumulated snapshot holds everything ever
// learned about the graph, at every device count planned, and a replan
// reads a fraction of it. The memo table instead resolves a miss against
// the sorted entry list (lookup), and a derivation node becomes a dpResult
// the first time an entry that reaches it is used (node), so an import
// pays for what the search reads, not for the snapshot's size.
//
// Entries in different memo shards share nodes, so concurrent walkers
// build under one mutex: each node is built exactly once, and it is
// complete before the mutex — then the memo shard's lock — hands its
// pointer to any other walker.
type importedMemo struct {
	entries []memosnap.Entry
	nodes   []memosnap.Node
	zones   []graph.NodeSet

	mu    sync.Mutex
	built []*dpResult // by node index; nil until first used
	arena
}

// lookup returns the first variant of k, in (Lo, Hi) order, whose
// interval covers tmax, with its value built.
func (m *importedMemo) lookup(k dpKey, tmax float64) (memoEntry, bool) {
	entries := m.entries
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if entries[mid].Key < uint64(k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for ; lo < len(entries) && entries[lo].Key == uint64(k); lo++ {
		e := &entries[lo]
		if e.Lo <= tmax && tmax < e.Hi {
			r := memoInfeasible
			if e.Val != memosnap.Infeasible {
				r = m.node(e.Val)
			}
			return memoEntry{res: r, sp: span{lo: e.Lo, hi: e.Hi}, imported: true}, true
		}
	}
	return memoEntry{}, false
}

// node returns snapshot node i as a dpResult, building it on first use.
func (m *importedMemo) node(i int32) *dpResult {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.build(i)
}

// build materializes node i and whichever of its descendants are not yet
// built. The caller holds m.mu.
func (m *importedMemo) build(i int32) *dpResult {
	if r := m.built[i]; r != nil {
		return r
	}
	n := &m.nodes[i]
	r := m.newResult()
	*r = dpResult{
		inFlight: int(n.InFlight),
		srcCfg:   schedule.Config{MicroBatch: int(n.Cfg.MicroBatch), K: int(n.Cfg.K)},
		maxMem:   n.Mem, maxTPS: n.TPS, nStages: int(n.NStages),
	}
	if n.Leaf {
		r.leaf = m.newStage()
		*r.leaf = dpStage{
			ops: m.zones[n.Zone], zone: int(n.Zone), cfg: r.srcCfg,
			devs: int(n.Devs), inFlight: r.inFlight, memory: n.Mem, tps: n.TPS,
		}
	} else {
		r.left, r.right = m.build(n.Left), m.build(n.Right)
	}
	m.built[i] = r
	return r
}

func configsEqual(got []memosnap.Config, want []schedule.Config) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if int(got[i].MicroBatch) != want[i].MicroBatch || int(got[i].K) != want[i].K {
			return false
		}
	}
	return true
}

func validConfig(c memosnap.Config, frozen []schedule.Config) bool {
	want := schedule.Config{MicroBatch: int(c.MicroBatch), K: int(c.K)}
	for _, fc := range frozen {
		if fc == want {
			return true
		}
	}
	return false
}

func badSpan(lo, hi float64) bool {
	return math.IsNaN(lo) || math.IsNaN(hi)
}

// validKey range-checks every field of a packed DP key against this
// search's zone and config tables — the import-side counterpart of
// validateKeyRanges. Keys whose degree or placement class this cluster
// lacks are valid: the search never queries them.
func (s *search) validKey(k dpKey) bool {
	if k == 0 { // 0 is the empty-slot sentinel; a real key has devices ≥ 1
		return false
	}
	zone := int(uint64(k) & 0x3FFF)
	d := int(uint64(k) >> 14 & 0x7F)
	srcIdx := int(uint64(k) >> 29 & 0x3F)
	if zone >= len(s.p.zones.sets) || d < 1 || srcIdx >= len(s.cfgs) {
		return false
	}
	if uint64(k)>>35&1 == 0 {
		// No successor: the successor fields must be zero.
		return uint64(k)>>36 == 0
	}
	succIdx := int(uint64(k) >> 36 & 0x3F)
	return succIdx < len(s.cfgs)
}
