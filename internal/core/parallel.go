package core

import (
	"sync"
	"sync/atomic"
)

// workerPool is a bounded pool with inline fallback: Do never blocks
// waiting for a slot, it runs the task on the submitting goroutine instead.
// Tasks may therefore submit sub-tasks to the same pool (the per-probe root
// fan-out runs inside the per-micro-batch searches) without deadlock — the
// slot count bounds concurrency, not admission.
type workerPool struct {
	slots chan struct{}
}

func newWorkerPool(n int) *workerPool {
	return &workerPool{slots: make(chan struct{}, n)}
}

// Do runs every task and returns when all have finished.
func (p *workerPool) Do(tasks []func()) {
	var wg sync.WaitGroup
	for _, t := range tasks {
		select {
		case p.slots <- struct{}{}:
			wg.Add(1)
			go func(t func()) {
				defer wg.Done()
				defer func() { <-p.slots }()
				t()
			}(t)
		default:
			t()
		}
	}
	wg.Wait()
}

// memoInfeasible is the stored representation of a memoized nil dpResult
// (infeasible subproblem), so "absent" and "known infeasible" stay distinct.
var memoInfeasible = &dpResult{}

const memoShardCount = 64

// memoEntry is one memoized DP value together with the half-open interval
// of binary-search targets on which it is valid (see the span type). An
// entry is consulted by every probe of one micro-batch search; a probe
// whose target falls outside the span recomputes the state and overwrites
// the entry with the new value and its interval. imported marks a variant
// that get materialized from a warm snapshot when a probe first needed it;
// the exporter skips imported entries (the accumulated snapshot already
// holds them — memosnap.Merge unions the new export in), so export cost
// scales with the work this search actually did.
type memoEntry struct {
	res      *dpResult
	sp       span
	imported bool
}

// memoTable is the DP memo, sharded by key hash so concurrent walkers of
// one probe contend on 1/64th of the table instead of a single lock. A
// subproblem's value is a pure function of its key and validity interval,
// so two walkers racing to insert the same key at the same probe target
// write identical values — whichever lands is correct. The table lives
// across all probes of one micro-batch search; probes are sequential, so
// cross-probe overwrites never race. A search with no worker pool has
// exactly one walker, so it constructs the table unlocked and skips the
// mutexes entirely.
//
// Each key keeps every span variant it has ever held, not just the last
// write: a recompute at a new target moves the displaced (key, span,
// value) into the shard's history instead of discarding it. A lookup
// whose target misses the primary span consults the history before the
// caller recomputes — that path was a full DP recomputation, so a map
// probe there is nearly free, while the covered fast path is untouched.
// The history is what makes a warm-started search (importMemo) cheap:
// the exported snapshot carries every variant, so a replayed probe
// sequence finds a covering interval for essentially every state the
// original search visited instead of only the final probe's survivors.
//
// Each shard is a flat open-addressed table (Fibonacci hash, linear
// probing) rather than a Go map: the memo lookup is the single hottest
// operation of the whole search — one get per DP state visit, hundreds of
// millions for the largest models — and the flat probe sequence halves its
// cost in profiles. dpKey 0 doubles as the empty-slot sentinel, which is
// sound because every real key has its device field ≥ 1 (bits 14–20
// nonzero; validateKeyRanges caps devices at 127 so the field cannot wrap
// to zero).
type memoTable struct {
	locked bool
	// warmHits counts the variants materialized from the imported
	// snapshot, each once (planner.Stats.MemoEntriesReused).
	warmHits atomic.Int64
	// warm, when set by importMemo, resolves a (key, target) miss from
	// the imported snapshot: it returns a covering entry to materialize
	// into the table, or ok=false. get calls it under the key's shard
	// lock, and each materialized entry counts as a warm reuse exactly
	// once, because a variant already resident in the table is found by
	// the primary/history paths before the snapshot is consulted.
	warm   *importedMemo
	shards [memoShardCount]memoShard
}

type memoShard struct {
	mu   sync.Mutex
	keys []dpKey
	vals []memoEntry
	mask uint64
	n    int
	// hist holds the displaced span variants of keys that were recomputed
	// at a target outside their stored interval. A key has history only if
	// it also has a primary entry, so lookups that miss the table entirely
	// never touch the map. Allocated on first displacement.
	hist map[dpKey][]memoEntry
}

// spanSubsumes reports whether outer covers every target inner does, which
// makes inner redundant as a history variant.
func spanSubsumes(outer, inner span) bool {
	return outer.lo <= inner.lo && inner.hi <= outer.hi
}

// histAdd retains a displaced variant unless an existing variant (or the
// displacing entry itself, checked by the caller) already subsumes it.
func (sh *memoShard) histAdd(k dpKey, e memoEntry) {
	for _, v := range sh.hist[k] {
		if spanSubsumes(v.sp, e.sp) {
			return
		}
	}
	if sh.hist == nil {
		sh.hist = make(map[dpKey][]memoEntry)
	}
	sh.hist[k] = append(sh.hist[k], e)
}

// memoShardInitSize is each shard's starting capacity (slots). Must be a
// power of two.
const memoShardInitSize = 256

func newMemoTable(locked bool) *memoTable {
	t := &memoTable{locked: locked}
	for i := range t.shards {
		t.shards[i].keys = make([]dpKey, memoShardInitSize)
		t.shards[i].vals = make([]memoEntry, memoShardInitSize)
		t.shards[i].mask = memoShardInitSize - 1
	}
	return t
}

func (t *memoTable) shard(k dpKey) *memoShard {
	// Fibonacci hashing spreads the packed-bitfield keys, whose low bits
	// (zone id) cluster, across the shards.
	return &t.shards[(uint64(k)*0x9E3779B97F4A7C15)>>58]
}

// slotHash spreads keys within a shard; the low bits index the table.
func slotHash(k dpKey) uint64 {
	h := uint64(k) * 0x9E3779B97F4A7C15
	return h ^ h>>29
}

// lookup returns the entry and its slot index (so get can swap a covering
// history variant into the slot under the same lock acquisition).
func (sh *memoShard) lookup(k dpKey) (memoEntry, uint64, bool) {
	i := slotHash(k) & sh.mask
	for {
		switch sh.keys[i] {
		case k:
			return sh.vals[i], i, true
		case 0:
			return memoEntry{}, 0, false
		}
		i = (i + 1) & sh.mask
	}
}

func (sh *memoShard) store(k dpKey, e memoEntry) {
	if 2*(sh.n+1) >= len(sh.keys) { // grow at 50% load: shorter probe chains
		sh.grow()
	}
	i := slotHash(k) & sh.mask
	for {
		switch sh.keys[i] {
		case k:
			old := sh.vals[i]
			if spanSubsumes(old.sp, e.sp) {
				// The incumbent already answers every target the new
				// variant would; keep it (possible only when two walkers
				// raced to compute the key at one target — a lone
				// recompute's target is by construction uncovered).
				return
			}
			if !spanSubsumes(e.sp, old.sp) {
				sh.histAdd(k, old)
			}
			sh.vals[i] = e
			return
		case 0:
			sh.keys[i] = k
			sh.vals[i] = e
			sh.n++
			return
		}
		i = (i + 1) & sh.mask
	}
}

func (sh *memoShard) grow() {
	oldK, oldV := sh.keys, sh.vals
	size := 2 * len(oldK)
	sh.keys = make([]dpKey, size)
	sh.vals = make([]memoEntry, size)
	sh.mask = uint64(size - 1)
	for i, k := range oldK {
		if k == 0 {
			continue
		}
		j := slotHash(k) & sh.mask
		for sh.keys[j] != 0 {
			j = (j + 1) & sh.mask
		}
		sh.keys[j] = k
		sh.vals[j] = oldV[i]
	}
}

// get returns the memoized value for k if its validity interval covers the
// probe target tmax, plus the interval itself (callers intersect it into
// their own). When the primary entry's interval misses, the key's history
// is consulted before reporting a miss; a covering variant is swapped into
// the primary slot, so repeated queries at the same probe target stay on
// the fast path.
func (t *memoTable) get(k dpKey, tmax float64) (*dpResult, span, bool) {
	sh := t.shard(k)
	if t.locked {
		sh.mu.Lock()
	}
	e, i, ok := sh.lookup(k)
	if ok && !e.sp.covers(tmax) {
		for j, v := range sh.hist[k] {
			if v.sp.covers(tmax) {
				sh.hist[k][j] = e
				sh.vals[i] = v
				e = v
				break
			}
		}
	}
	if t.warm != nil && (!ok || !e.sp.covers(tmax)) {
		// Lazy warm start: materialize the covering variant, if the
		// imported snapshot has one, instead of recomputing. Still under
		// the shard lock, so concurrent walkers materialize each variant
		// (and count its reuse) exactly once.
		if v, found := t.warm.lookup(k, tmax); found {
			sh.store(k, v)
			t.warmHits.Add(1)
			e, ok = v, true
		}
	}
	if t.locked {
		sh.mu.Unlock()
	}
	if !ok || !e.sp.covers(tmax) {
		return nil, span{}, false
	}
	if e.res == memoInfeasible {
		return nil, e.sp, true
	}
	return e.res, e.sp, true
}

func (t *memoTable) put(k dpKey, r *dpResult, sp span) {
	if r == nil {
		r = memoInfeasible
	}
	sh := t.shard(k)
	if t.locked {
		sh.mu.Lock()
	}
	sh.store(k, memoEntry{res: r, sp: sp})
	if t.locked {
		sh.mu.Unlock()
	}
}

// each visits every memo entry — primary and history variants alike (any
// goroutine-safety is the caller's: the exporter runs after the search's
// fan-out has joined).
func (t *memoTable) each(f func(k dpKey, e memoEntry)) {
	for i := range t.shards {
		sh := &t.shards[i]
		for j, k := range sh.keys {
			if k != 0 {
				f(k, sh.vals[j])
			}
		}
		for k, vs := range sh.hist {
			for _, v := range vs {
				f(k, v)
			}
		}
	}
}

const evalShardCount = 16

// evalTable shards the per-(zone, micro-batch, devices) stage-cost cache.
// Unlike the memo it lives across all probes of one micro-batch size; cost
// evaluation happens outside the shard lock, so a race costs one duplicate
// evaluation of a deterministic value, never a wrong entry. Like the memo,
// a sequential search (no pool) constructs it unlocked.
type evalTable struct {
	locked bool
	shards [evalShardCount]evalShard
}

type evalShard struct {
	mu sync.Mutex
	m  map[stageEvalKey]stageEval
}

func newEvalTable(locked bool) *evalTable {
	t := &evalTable{locked: locked}
	for i := range t.shards {
		t.shards[i].m = make(map[stageEvalKey]stageEval)
	}
	return t
}

func (t *evalTable) shard(k stageEvalKey) *evalShard {
	h := uint64(k.zone)*0x9E3779B97F4A7C15 ^ uint64(k.b)<<32 ^ uint64(k.d)
	return &t.shards[(h*0x9E3779B97F4A7C15)>>60]
}

func (t *evalTable) get(k stageEvalKey) (stageEval, bool) {
	sh := t.shard(k)
	if t.locked {
		sh.mu.Lock()
	}
	ev, ok := sh.m[k]
	if t.locked {
		sh.mu.Unlock()
	}
	return ev, ok
}

func (t *evalTable) put(k stageEvalKey, ev stageEval) {
	sh := t.shard(k)
	if t.locked {
		sh.mu.Lock()
	}
	sh.m[k] = ev
	if t.locked {
		sh.mu.Unlock()
	}
}
