package memosnap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"
)

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Key: Key{GraphHash: "abcd1234", ShapeSig: 0x1122334455667788, CostSig: 0x99aabbccddeeff00},
		Searches: []SearchMemo{
			{
				MiniBatch: 32, RootB: 8, NumZones: 7,
				Configs:  []Config{{MicroBatch: 8, K: 1}},
				Boundary: []Config{{MicroBatch: 8, K: 1}},
				Nodes: []Node{
					{Leaf: true, Zone: 3, Devs: 2, NStages: 1, Cfg: Config{MicroBatch: 8, K: 1}, InFlight: 16, Mem: 1e9, TPS: 2.5e-4},
					{Leaf: true, Zone: 4, Devs: 2, NStages: 1, Cfg: Config{MicroBatch: 8, K: 1}, InFlight: 8, Mem: 2e9, TPS: 1.5e-4},
					{Left: 0, Right: 1, NStages: 2, Cfg: Config{MicroBatch: 8, K: 1}, InFlight: 16, Mem: 2e9, TPS: 2.5e-4},
				},
				Entries: []Entry{
					{Key: 0x4003, Lo: 0, Hi: math.Inf(1), Val: 2},
					{Key: 0x8004, Lo: 1e-4, Hi: 3e-4, Val: 1},
					{Key: 0xc005, Lo: 0, Hi: 2e-4, Val: Infeasible},
				},
			},
			{
				MiniBatch: 32, RootB: 4, NumZones: 7,
				Configs:  []Config{{MicroBatch: 4, K: 1}},
				Boundary: []Config{{MicroBatch: 4, K: 1}},
				Entries:  []Entry{{Key: 0x4001, Lo: 0, Hi: 5e-4, Val: Infeasible}},
			},
		},
	}
}

// TestRoundTrip pins encode → decode → re-encode byte stability: the
// property that lets the disk tier re-verify files and the CLI's merged
// sweep files stay diffable.
func TestRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	data := Encode(s)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Key != s.Key {
		t.Errorf("identity drifted: %+v vs %+v", got.Key, s.Key)
	}
	if got.Entries() != s.Entries() {
		t.Errorf("entry count drifted: %d vs %d", got.Entries(), s.Entries())
	}
	re := Encode(got)
	if !bytes.Equal(re, data) {
		t.Errorf("re-encode changed bytes: %d vs %d", len(re), len(data))
	}
	// Spot-check a deep field including the +Inf interval bound.
	e := got.Searches[0].Entries[0]
	if !math.IsInf(e.Hi, 1) || e.Val != 2 {
		t.Errorf("entry 0 = %+v, want hi=+Inf val=2", e)
	}
	if n := got.Searches[0].Nodes[2]; n.Leaf || n.Left != 0 || n.Right != 1 {
		t.Errorf("inner node = %+v", n)
	}
}

// TestDecodeFailureClasses pins the two sentinel errors the way the
// strategy package pins ErrCorruptArtifact/ErrUnknownVersion: callers
// branch on errors.Is, so the classes must not drift into each other.
func TestDecodeFailureClasses(t *testing.T) {
	good := Encode(sampleSnapshot())

	futile := func(name string, data []byte, want error) {
		t.Helper()
		_, err := Decode(data)
		if !errors.Is(err, want) {
			t.Errorf("%s: got %v, want %v", name, err, want)
		}
	}

	futile("empty", nil, ErrCorruptSnapshot)
	futile("short", good[:8], ErrCorruptSnapshot)
	futile("bad magic", append([]byte("NOTSNAP"), good[7:]...), ErrCorruptSnapshot)

	future := bytes.Clone(good)
	binary.LittleEndian.PutUint32(future[6:10], SnapshotVersion+1)
	futile("future version", future, ErrUnknownSnapshotVersion)

	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 0xFF
	futile("bit flip", flipped, ErrCorruptSnapshot)

	truncated := bytes.Clone(good[:len(good)-16])
	binary.LittleEndian.PutUint32(truncated[10:14], crc32.ChecksumIEEE(truncated[14:]))
	futile("truncated with fixed crc", truncated, ErrCorruptSnapshot)

	// A node referencing a child at or after itself must be rejected — the
	// importer relies on one-pass reconstruction.
	s := sampleSnapshot()
	s.Searches[0].Nodes[2].Right = 2
	futile("forward child reference", Encode(s), ErrCorruptSnapshot)

	// An entry pointing outside the node table must be rejected.
	s = sampleSnapshot()
	s.Searches[0].Entries[0].Val = 99
	futile("entry value out of range", Encode(s), ErrCorruptSnapshot)

	// A node kind other than leaf (1) or inner (0) must be rejected: on
	// the inner node below it would decode, and re-encode to different
	// bytes.
	s = sampleSnapshot()
	sm := &s.Searches[0]
	kindAt := headerSize + 4 + len(s.Key.GraphHash) + 16 + 4 + 3*4 +
		4 + configSize*len(sm.Configs) + 4 + configSize*len(sm.Boundary) + 4 +
		2*nodeWireSize
	unknown := Encode(s)
	if unknown[kindAt] != 0 {
		t.Fatalf("byte %d is %d, not the third node's inner kind", kindAt, unknown[kindAt])
	}
	unknown[kindAt] = 7
	binary.LittleEndian.PutUint32(unknown[10:14], crc32.ChecksumIEEE(unknown[headerSize:]))
	futile("unknown node kind", unknown, ErrCorruptSnapshot)
}

// FuzzDecode feeds Decode mutated snapshots. The checksum of each input
// is recomputed first, so a mutation reaches the body parser instead of
// failing the CRC check. Decode must not panic, must reject only with its
// two sentinel errors, and must accept only inputs that re-encode to the
// same bytes: the format has one spelling per snapshot. The corpus is
// seeded with the encoded test snapshots.
func FuzzDecode(f *testing.F) {
	sample := sampleSnapshot()
	shifted := sampleSnapshot()
	for i := range shifted.Searches[0].Entries {
		shifted.Searches[0].Entries[i].Key += 0x10
	}
	for _, s := range []*Snapshot{
		sample,
		{Key: sample.Key},
		{Key: sample.Key, Searches: []SearchMemo{{MiniBatch: 8, RootB: 8}}},
		Merge(sampleSnapshot(), shifted),
	} {
		f.Add(Encode(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = bytes.Clone(data)
		if len(data) >= headerSize {
			binary.LittleEndian.PutUint32(data[10:14], crc32.ChecksumIEEE(data[headerSize:]))
		}
		s, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) && !errors.Is(err, ErrUnknownSnapshotVersion) {
				t.Fatalf("rejected with an unclassified error: %v", err)
			}
			return
		}
		if re := Encode(s); !bytes.Equal(re, data) {
			t.Fatalf("accepted %d bytes that re-encode to %d different bytes", len(data), len(re))
		}
	})
}

// TestMerge pins entry-level union: a matched pair keeps every span
// variant from both sides (src's derivation nodes appended, entry values
// remapped), exact-duplicate variants deduplicate, structurally
// incompatible pairs fall back to src-wins, and merging an empty export
// leaves dst byte-identical — the drift-free accumulation the incremental
// exporter relies on. A src of another key replaces dst; the device count
// a snapshot was planned on plays no part (the format does not record it).
func TestMerge(t *testing.T) {
	old := sampleSnapshot()
	fresh := &Snapshot{
		Key: old.Key,
		Searches: []SearchMemo{
			// Compatible with old's (32,8): a new key with its own node, a
			// new span variant of an existing key, and an exact duplicate.
			{MiniBatch: 32, RootB: 8, NumZones: 7,
				Configs:  []Config{{MicroBatch: 8, K: 1}},
				Boundary: []Config{{MicroBatch: 8, K: 1}},
				Nodes: []Node{
					{Leaf: true, Zone: 5, Devs: 1, NStages: 1, Cfg: Config{MicroBatch: 8, K: 1}, InFlight: 4, Mem: 5e8, TPS: 3e-4},
				},
				Entries: []Entry{
					{Key: 0x4002, Lo: 0, Hi: 1e-4, Val: 0},
					{Key: 0x8004, Lo: 3e-4, Hi: 6e-4, Val: Infeasible},
					{Key: 0xc005, Lo: 0, Hi: 2e-4, Val: Infeasible},
				}},
			// Structurally incompatible with old's (32,4): src wins outright.
			{MiniBatch: 32, RootB: 4, NumZones: 9,
				Entries: []Entry{{Key: 0x4002, Lo: 0, Hi: 1, Val: Infeasible}}},
			{MiniBatch: 64, RootB: 16, NumZones: 7},
		},
	}
	m := Merge(old, fresh)
	if len(m.Searches) != 3 {
		t.Fatalf("merged %d searches, want 3", len(m.Searches))
	}
	sm := m.Search(32, 8)
	if sm == nil {
		t.Fatal("(32,8) missing after merge")
	}
	if len(sm.Nodes) != 4 {
		t.Errorf("(32,8) has %d nodes, want dst's 3 + src's 1", len(sm.Nodes))
	}
	if len(sm.Entries) != 5 {
		t.Fatalf("(32,8) has %d entries, want 5 (3 dst + 2 fresh, 1 dedup): %+v", len(sm.Entries), sm.Entries)
	}
	for i := 1; i < len(sm.Entries); i++ {
		if cmpEntry(sm.Entries[i-1], sm.Entries[i]) >= 0 {
			t.Errorf("merged entries out of order at %d: %+v", i, sm.Entries)
		}
	}
	// src's new key landed with its node index offset past dst's nodes.
	if e := sm.Entries[0]; e.Key != 0x4002 || e.Val != 3 {
		t.Errorf("new key not remapped: %+v, want Key=0x4002 Val=3", e)
	}
	if n := sm.Nodes[3]; !n.Leaf || n.Zone != 5 {
		t.Errorf("src node not appended: %+v", n)
	}
	// Both span variants of 0x8004 survive; 0xc005 deduplicated.
	var variants, dups int
	for _, e := range sm.Entries {
		if e.Key == 0x8004 {
			variants++
		}
		if e.Key == 0xc005 {
			dups++
		}
	}
	if variants != 2 || dups != 1 {
		t.Errorf("got %d variants of 0x8004 (want 2), %d of 0xc005 (want 1)", variants, dups)
	}

	if sm := m.Search(32, 4); sm == nil || sm.NumZones != 9 || len(sm.Entries) != 1 || sm.Entries[0].Key != 0x4002 {
		t.Errorf("structurally incompatible (32,4) not replaced by src: %+v", sm)
	}
	if m.Search(64, 16) == nil {
		t.Errorf("(64,16) not appended from src")
	}

	// An imported-but-unprobed search exports an empty SearchMemo; merging
	// it must reproduce dst's bytes exactly.
	empty := &Snapshot{
		Key: old.Key,
		Searches: []SearchMemo{
			{MiniBatch: 32, RootB: 8, NumZones: 7,
				Configs:  []Config{{MicroBatch: 8, K: 1}},
				Boundary: []Config{{MicroBatch: 8, K: 1}}},
		},
	}
	if !bytes.Equal(Encode(Merge(old, empty)), Encode(old)) {
		t.Error("merging an empty export changed dst's bytes")
	}

	if got := Merge(nil, fresh); got != fresh {
		t.Errorf("Merge(nil, src) != src")
	}
	if got := Merge(old, nil); got != old {
		t.Errorf("Merge(dst, nil) != dst")
	}
	other := sampleSnapshot()
	other.Key.CostSig++
	if got := Merge(old, other); got != other {
		t.Errorf("mismatched keys should yield src wholesale")
	}

	// A src planned on another device count — here, a search that
	// computed only new keys — unions like any other: the accumulated
	// snapshot keeps every entry of both.
	resized := &Snapshot{
		Key: old.Key,
		Searches: []SearchMemo{
			{MiniBatch: 32, RootB: 8, NumZones: 7,
				Configs:  []Config{{MicroBatch: 8, K: 1}},
				Boundary: []Config{{MicroBatch: 8, K: 1}},
				Entries:  []Entry{{Key: 0x2001, Lo: 0, Hi: 1e-4, Val: Infeasible}}},
		},
	}
	u := Merge(old, resized)
	if u == resized || u.Entries() != old.Entries()+1 {
		t.Errorf("a src planned on another device count should union: %d entries, want %d",
			u.Entries(), old.Entries()+1)
	}
	if sm := u.Search(32, 8); sm == nil || sm.Entries[0].Key != 0x2001 || len(sm.Nodes) != len(old.Searches[0].Nodes) {
		t.Errorf("union of (32,8) lost order or nodes: %+v", sm)
	}
}

func TestSearchLookup(t *testing.T) {
	s := sampleSnapshot()
	if sm := s.Search(32, 8); sm == nil || sm.RootB != 8 {
		t.Errorf("Search(32,8) = %+v", sm)
	}
	if sm := s.Search(32, 2); sm != nil {
		t.Errorf("Search(32,2) = %+v, want nil", sm)
	}
	var nilSnap *Snapshot
	if nilSnap.Search(1, 1) != nil || nilSnap.Entries() != 0 {
		t.Errorf("nil snapshot accessors must be safe")
	}
}
