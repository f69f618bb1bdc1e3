package memostore

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"graphpipe/internal/memosnap"
)

func snapFor(hash string, mb, rootB int32) *memosnap.Snapshot {
	return &memosnap.Snapshot{
		Key:     memosnap.Key{GraphHash: hash, ShapeSig: 1, CostSig: 2},
		Devices: 4,
		Searches: []memosnap.SearchMemo{{
			MiniBatch: mb, RootB: rootB, NumZones: 3,
			Configs: []memosnap.Config{{MicroBatch: rootB, K: 1}},
			Nodes:   []memosnap.Node{{Leaf: true, Zone: 1, Devs: 2, NStages: 1, Cfg: memosnap.Config{MicroBatch: rootB, K: 1}, InFlight: 1, Mem: 3, TPS: 4}},
			Entries: []memosnap.Entry{{Key: 7, Lo: 0, Hi: 5, Val: 0}},
		}},
	}
}

func TestMemoryLookupAndEviction(t *testing.T) {
	s, err := New(2, "")
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := snapFor("aaaa", 64, 8), snapFor("bbbb", 64, 8), snapFor("cccc", 64, 8)
	s.Install(a)
	s.Install(b)
	if got := s.Lookup(a.Key); got == nil {
		t.Fatal("a missing after install")
	}
	// a is now most recently used; installing c must evict b.
	s.Install(c)
	if s.Lookup(b.Key) != nil {
		t.Error("b survived past the LRU bound")
	}
	if s.Lookup(a.Key) == nil || s.Lookup(c.Key) == nil {
		t.Error("LRU evicted the wrong entry")
	}
	if s.Len() != 2 || s.Evictions() != 1 || s.Installs() != 3 {
		t.Errorf("len=%d evictions=%d installs=%d", s.Len(), s.Evictions(), s.Installs())
	}
	if s.Lookup(memosnap.Key{GraphHash: "nope"}) != nil {
		t.Error("unknown key hit")
	}
}

func TestInstallMergesSearches(t *testing.T) {
	s, err := New(4, "")
	if err != nil {
		t.Fatal(err)
	}
	s.Install(snapFor("aaaa", 64, 8))
	s.Install(snapFor("aaaa", 128, 8)) // same key, different mini-batch
	got := s.Lookup(snapFor("aaaa", 0, 0).Key)
	if got == nil || len(got.Searches) != 2 {
		t.Fatalf("merged snapshot has %+v searches, want 2", got)
	}
	// A re-install of one search must not mutate the previously returned
	// snapshot (immutability is what makes concurrent readers safe).
	s.Install(snapFor("aaaa", 64, 8))
	if len(got.Searches) != 2 {
		t.Error("install mutated a snapshot a reader already held")
	}
}

func TestDiskTierRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := snapFor("aaaa", 64, 8)
	s1.Install(snap)

	// A fresh store over the same directory — a daemon restart — serves
	// the shard from disk and promotes it to memory.
	s2, err := New(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	got := s2.Lookup(snap.Key)
	if got == nil || got.Entries() != 1 {
		t.Fatalf("disk lookup: %+v", got)
	}
	if s2.Len() != 1 {
		t.Error("disk hit not promoted to memory")
	}
}

func TestDiskFailuresDegradeToMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := New(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := snapFor("aaaa", 64, 8)
	shard := s.path(snap.Key)

	// Corrupt shard: flip a body byte so the checksum fails.
	data := memosnap.Encode(snap)
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(shard, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if s.Lookup(snap.Key) != nil {
		t.Error("corrupt shard served")
	}

	// Version from the future: a miss, not an error.
	data = memosnap.Encode(snap)
	binary.LittleEndian.PutUint32(data[6:10], memosnap.SnapshotVersion+1)
	if err := os.WriteFile(shard, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if s.Lookup(snap.Key) != nil {
		t.Error("future-version shard served")
	}

	// Misfiled shard: valid snapshot bytes under the wrong key's name.
	other := snapFor("bbbb", 64, 8)
	if err := os.WriteFile(shard, memosnap.Encode(other), 0o644); err != nil {
		t.Fatal(err)
	}
	if s.Lookup(snap.Key) != nil {
		t.Error("misfiled shard served")
	}
	if got := s.DiskFailures(); got != 3 {
		t.Errorf("DiskFailures = %d, want 3", got)
	}

	// Recovery: an install overwrites the bad shard atomically.
	s.Install(snap)
	files, err := filepath.Glob(filepath.Join(dir, ".memo-tmp-*"))
	if err != nil || len(files) != 0 {
		t.Errorf("temp files left behind: %v (%v)", files, err)
	}
	s2, err := New(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Lookup(snap.Key) == nil {
		t.Error("reinstalled shard not readable")
	}
}
