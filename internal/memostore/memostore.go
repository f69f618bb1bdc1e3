// Package memostore holds DP memo snapshots (internal/memosnap) between
// planning requests: a bounded in-memory LRU keyed by the snapshot's
// compatibility Key, optionally backed by one-file-per-key shards on disk
// under the daemon's cache directory. internal/service installs a snapshot
// after every successful graphpipe plan and looks one up before the next,
// so a request for the same canonical graph at a different device count or
// target warm-starts from a mostly-valid memo. Installs union into the
// stored snapshot, so a key's snapshot accumulates every device count and
// mini-batch planned under it; the store bounds how many snapshots it
// holds, not their bytes.
//
// The store follows the same discipline as the service's artifact cache:
// snapshots are immutable once installed (Install merges by building a new
// snapshot, never by mutating a stored one — readers can hold a returned
// pointer across a concurrent install without torn reads), disk writes are
// atomic temp-file-plus-rename, and every disk failure — IO error, corrupt
// shard, version mismatch — degrades to a miss, because a snapshot is a
// cache, never a source of truth.
package memostore

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"graphpipe/internal/faultinject"
	"graphpipe/internal/memosnap"
)

// entry is one stored snapshot.
type entry struct {
	key  memosnap.Key
	snap *memosnap.Snapshot
}

// Store is the two-tier snapshot holder. Create with New; safe for
// concurrent use.
type Store struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recently used; values are *entry
	items map[memosnap.Key]*list.Element
	dir   string

	faults *faultinject.DiskInjector // nil: healthy disk

	evictions    atomic.Uint64
	installs     atomic.Uint64
	diskFailures atomic.Uint64
}

// InjectFaults installs a deterministic disk-fault injector on the
// store's shard IO (nil: healthy; call before serving traffic). The
// GPMEMO checksum that memosnap.Decode verifies up front is what turns
// every injected corruption into a counted miss instead of a silently
// poisoned warm-start.
func (s *Store) InjectFaults(d *faultinject.DiskInjector) {
	if s != nil {
		s.faults = d
	}
}

// New builds a store holding at most max snapshots in memory (max <= 0
// defaults to 64). A non-empty dir enables the disk tier and is created if
// absent; snapshots then survive process restarts and memory evictions.
func New(max int, dir string) (*Store, error) {
	if max <= 0 {
		max = 64
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("memostore: %w", err)
		}
	}
	return &Store{
		max:   max,
		order: list.New(),
		items: make(map[memosnap.Key]*list.Element),
		dir:   dir,
	}, nil
}

// path names a key's disk shard. The graph hash is already hex; the two
// signatures disambiguate option/cost variants of the same graph.
func (s *Store) path(k memosnap.Key) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s-%016x-%016x.memo", k.GraphHash, k.ShapeSig, k.CostSig))
}

// Lookup returns the stored snapshot for a key, or nil. Memory is
// consulted first; a disk hit is promoted to memory. The returned snapshot
// is shared and must be treated as read-only.
func (s *Store) Lookup(k memosnap.Key) *memosnap.Snapshot {
	s.mu.Lock()
	if el, ok := s.items[k]; ok {
		s.order.MoveToFront(el)
		snap := el.Value.(*entry).snap
		s.mu.Unlock()
		return snap
	}
	s.mu.Unlock()

	if s.dir == "" {
		return nil
	}
	data, err := os.ReadFile(s.path(k))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		s.diskFailures.Add(1)
		return nil
	}
	data = s.faults.Read(data)
	snap, err := memosnap.Decode(data)
	if err != nil || snap.Key != k {
		// Corrupt shard, foreign format version, or a misfiled snapshot:
		// a miss, recovered by the next cold plan overwriting the file.
		s.diskFailures.Add(1)
		return nil
	}
	s.put(k, snap)
	return snap
}

// Install merges a freshly exported snapshot into the store
// (memosnap.Merge): the stored snapshot for the same key gains every entry
// the new one computed and keeps the searches it did not re-run, whatever
// device count either was planned on. On summit, where one key spans every
// device count, an elastic sweep's shard therefore accumulates every step,
// and so does a snapshot a peer offers for a neighboring device count.
// Nothing bounds that growth but the count of keys held. The merge happens
// under the store lock — two concurrent installs for one key serialize,
// and each sees the other's completed merge, never a partial one.
func (s *Store) Install(snap *memosnap.Snapshot) {
	if snap == nil {
		return
	}
	s.mu.Lock()
	merged := snap
	if el, ok := s.items[snap.Key]; ok {
		merged = memosnap.Merge(el.Value.(*entry).snap, snap)
	}
	s.putLocked(snap.Key, merged)
	s.mu.Unlock()
	s.installs.Add(1)

	if s.dir != "" {
		if err := s.writeShard(merged); err != nil {
			s.diskFailures.Add(1)
		}
	}
}

func (s *Store) put(k memosnap.Key, snap *memosnap.Snapshot) {
	s.mu.Lock()
	s.putLocked(k, snap)
	s.mu.Unlock()
}

func (s *Store) putLocked(k memosnap.Key, snap *memosnap.Snapshot) {
	if el, ok := s.items[k]; ok {
		s.order.MoveToFront(el)
		el.Value.(*entry).snap = snap
		return
	}
	s.items[k] = s.order.PushFront(&entry{key: k, snap: snap})
	for s.order.Len() > s.max {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.items, oldest.Value.(*entry).key)
		s.evictions.Add(1)
	}
}

// writeShard persists one snapshot atomically, so a crashed or concurrent
// writer can never leave a torn shard for Lookup to read.
func (s *Store) writeShard(snap *memosnap.Snapshot) error {
	data, err := s.faults.Write(memosnap.Encode(snap))
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, ".memo-tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), s.path(snap.Key))
}

// Len reports the snapshots currently held in memory.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}

// Evictions reports memory-tier evictions since creation.
func (s *Store) Evictions() uint64 { return s.evictions.Load() }

// Installs reports Install calls since creation.
func (s *Store) Installs() uint64 { return s.installs.Load() }

// DiskFailures reports disk-tier reads and writes that errored; each one
// degraded to a miss.
func (s *Store) DiskFailures() uint64 { return s.diskFailures.Load() }
