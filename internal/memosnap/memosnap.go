// Package memosnap defines the persistable form of the core planner's DP
// memo: a compact, versioned snapshot of every memo entry — key, validity
// interval, and flattened derivation tree — produced by one Plan call.
//
// Snapshots exist so elastic replanning (a device lost or added, a
// mini-batch sweep) does not pay full search cost: a later search over the
// same canonical graph imports the snapshot and re-solves only the states
// whose validity interval its targets miss. The format is read-optimized in
// the spirit of asymmetric-memory data structures — a snapshot is written
// once, at the end of a search, and consulted by many later ones — so the
// layout is flat arrays (keys, intervals, node records) that import in one
// linear pass, with a single checksum verified up front instead of
// per-record framing.
//
// The package is a leaf: it knows nothing about graphs, planners, or
// services, only the numeric shape of a memo. internal/core translates its
// in-memory memo to and from this form; internal/memostore holds snapshots
// in tiers; internal/service and cmd/graphpipe move them around.
package memosnap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// SnapshotVersion is the wire-format version. Decode rejects other
// versions with ErrUnknownSnapshotVersion rather than guessing.
// Version 3 records the device count once per snapshot and carries keys
// whose placement class ids need no translation table.
const SnapshotVersion = 3

// snapshotMagic prefixes every encoded snapshot.
var snapshotMagic = [6]byte{'G', 'P', 'M', 'E', 'M', 'O'}

// Sentinel errors for snapshot decoding, mirroring the strategy package's
// artifact sentinels (ErrCorruptArtifact / ErrUnknownVersion). Wrapped
// errors add context; test with errors.Is. Callers degrade both cases to a
// cold plan — a snapshot is a cache, never a source of truth.
var (
	// ErrCorruptSnapshot marks data that does not parse as a snapshot.
	ErrCorruptSnapshot = errors.New("memosnap: corrupt snapshot")
	// ErrUnknownSnapshotVersion marks a snapshot written by an
	// incompatible format version.
	ErrUnknownSnapshotVersion = errors.New("memosnap: unknown snapshot version")
)

// Key is a snapshot's compatibility identity. Two searches may share memo
// entries only when all three components match: the canonical graph hash
// (same computation graph), the shape signature (same structural search
// options — micro-batch candidates, kFkB candidates, split rules), and the
// cost signature (same topology observables and cost-model behavior, so
// every per-stage cost the DP consulted comes out identical).
type Key struct {
	// GraphHash is graph.CanonicalHash() of the planned graph.
	GraphHash string
	// ShapeSig hashes the result-relevant structural planner options.
	ShapeSig uint64
	// CostSig hashes the topology observables and deterministic
	// cost-model probe outputs.
	CostSig uint64
}

// Config mirrors one schedule configuration (micro-batch size, kFkB k).
type Config struct {
	MicroBatch int32
	K          int32
}

// Node is one flattened dpResult. Children precede parents: an encoded
// node may reference only lower-indexed nodes, so an importer rebuilds the
// derivation forest in one forward pass.
type Node struct {
	// Leaf marks a base-case (single stage) result.
	Leaf bool
	// Zone is the leaf's series-parallel zone id (leaf only).
	Zone int32
	// Devs is the leaf stage's data-parallel degree (leaf only).
	Devs int32
	// Left and Right index the child nodes (inner only).
	Left  int32
	Right int32
	// NStages is the subtree's stage count (1 for a leaf).
	NStages int32
	// Cfg is the leaf stage's schedule config, or the inner node's
	// source-stage config.
	Cfg Config
	// InFlight is the source stage's in-flight sample count.
	InFlight int32
	// Mem is the leaf stage's memory, or the subtree's peak memory.
	Mem float64
	// TPS is the leaf stage's TPS, or the subtree's bottleneck TPS.
	TPS float64
}

// Entry is one memo entry: packed DP key, validity interval [Lo, Hi), and
// the value — a node index, or -1 for a known-infeasible subproblem.
type Entry struct {
	Key    uint64
	Lo, Hi float64
	Val    int32
}

// Infeasible is the Entry.Val marking a memoized infeasible subproblem.
const Infeasible int32 = -1

// SearchMemo is the memo of one per-micro-batch-size binary search. Memo
// values depend on the search's mini-batch (through the TPS objective's
// allreduce term) and on its frozen config index (through key packing), so
// entries are never shared across SearchMemos: an importer uses a
// SearchMemo only when MiniBatch and RootB match and the freshly frozen
// Configs/Boundary lists are identical.
type SearchMemo struct {
	// MiniBatch is the planned mini-batch size B.
	MiniBatch int32
	// RootB is the search's root micro-batch candidate.
	RootB int32
	// NumZones is the exporter's zone-table size; an importer whose
	// resolved zone table disagrees must reject the memo.
	NumZones int32
	// Configs is the search's frozen schedule-config index, in freeze
	// order. Key packing refers to configs by index, so an importer must
	// verify its own frozen list is identical.
	Configs []Config
	// Boundary is the search's stage-boundary candidate list.
	Boundary []Config
	// Nodes is the flattened derivation forest (children before parents).
	Nodes []Node
	// Entries are the memo entries, sorted by Key and then by [Lo, Hi). A
	// key may repeat: each occurrence is one span variant of the same DP
	// state — the exporter keeps every validity interval the search
	// accumulated, so a warm import covers many probe targets, not just
	// the final probe's survivors.
	Entries []Entry
}

// Snapshot is one Plan call's exported memo: identity plus one SearchMemo
// per micro-batch-size search.
type Snapshot struct {
	Key Key
	// Devices is the cluster size the snapshot was planned on. An importer
	// at a different device count still uses the memo (entries for degrees
	// or placement classes its cluster lacks are simply never queried);
	// Merge reads it to keep one device count per snapshot.
	Devices  int32
	Searches []SearchMemo
}

// Search returns the memo for (miniBatch, rootB), or nil.
func (s *Snapshot) Search(miniBatch, rootB int) *SearchMemo {
	if s == nil {
		return nil
	}
	for i := range s.Searches {
		if int(s.Searches[i].MiniBatch) == miniBatch && int(s.Searches[i].RootB) == rootB {
			return &s.Searches[i]
		}
	}
	return nil
}

// Entries counts memo entries across every search.
func (s *Snapshot) Entries() int {
	if s == nil {
		return 0
	}
	n := 0
	for i := range s.Searches {
		n += len(s.Searches[i].Entries)
	}
	return n
}

// Merge combines two snapshots of the same Key into a new snapshot,
// mutating neither. Searches are matched by (MiniBatch, RootB); matched
// pairs union at the entry level — every span variant from both sides
// survives, with src's derivation nodes appended after dst's and entry
// values remapped accordingly. Entry-level union is sound for the same
// reason the probe-spanning memo is: a memo value is a pure function of
// its packed key and validity interval, so variants from different
// searches never disagree where their intervals overlap. The union is
// what lets an exporter emit only the entries its own search computed: the
// accumulated snapshot grows by exactly the new work, instead of being
// re-serialized wholesale on every plan.
//
// A matched pair whose structural fields (NumZones, Configs, Boundary)
// disagree cannot share a keyspace, so src's side wins outright. A nil
// argument yields the other; mismatched keys yield src (a snapshot for a
// different question replaces, not extends), and so does a src planned on
// a different device count: the union would be sound, but every later
// Merge copies it and every import rebuilds all of its nodes, so a
// device-count sweep would pay for what it accumulated on each replan.
func Merge(dst, src *Snapshot) *Snapshot {
	if dst == nil {
		return src
	}
	if src == nil {
		return dst
	}
	if dst.Key != src.Key || dst.Devices != src.Devices {
		return src
	}
	out := &Snapshot{Key: src.Key, Devices: src.Devices}
	used := make([]bool, len(src.Searches))
	for i := range dst.Searches {
		d := &dst.Searches[i]
		merged := *d
		for j := range src.Searches {
			s := &src.Searches[j]
			if used[j] || s.MiniBatch != d.MiniBatch || s.RootB != d.RootB {
				continue
			}
			used[j] = true
			if s.NumZones != d.NumZones || !sameConfigs(s.Configs, d.Configs) || !sameConfigs(s.Boundary, d.Boundary) {
				merged = *s // incompatible keyspaces: last writer wins
			} else {
				merged = mergeSearch(d, s)
			}
			break
		}
		out.Searches = append(out.Searches, merged)
	}
	for j := range src.Searches {
		if !used[j] {
			out.Searches = append(out.Searches, src.Searches[j])
		}
	}
	return out
}

func sameConfigs(a, b []Config) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mergeSearch unions two compatible SearchMemos. dst's nodes and entries
// keep their positions; src's nodes are appended with their indices
// offset, and the entry lists — both sorted by (Key, Lo, Hi) — merge in
// one pass, dropping src variants whose (Key, Lo, Hi) dst already holds
// (their values are identical by purity).
func mergeSearch(dst, src *SearchMemo) SearchMemo {
	out := *src
	out.NumZones = dst.NumZones
	out.Configs = dst.Configs
	out.Boundary = dst.Boundary
	if len(src.Entries) == 0 {
		out.Nodes, out.Entries = dst.Nodes, dst.Entries
		return out
	}
	offset := int32(len(dst.Nodes))
	out.Nodes = make([]Node, 0, len(dst.Nodes)+len(src.Nodes))
	out.Nodes = append(out.Nodes, dst.Nodes...)
	for _, n := range src.Nodes {
		if !n.Leaf {
			n.Left += offset
			n.Right += offset
		}
		out.Nodes = append(out.Nodes, n)
	}
	out.Entries = make([]Entry, 0, len(dst.Entries)+len(src.Entries))
	i, j := 0, 0
	for i < len(dst.Entries) && j < len(src.Entries) {
		a, b := dst.Entries[i], src.Entries[j]
		switch cmpEntry(a, b) {
		case -1:
			out.Entries = append(out.Entries, a)
			i++
		case 1:
			out.Entries = append(out.Entries, remap(b, offset))
			j++
		default:
			out.Entries = append(out.Entries, a)
			i++
			j++
		}
	}
	out.Entries = append(out.Entries, dst.Entries[i:]...)
	for ; j < len(src.Entries); j++ {
		out.Entries = append(out.Entries, remap(src.Entries[j], offset))
	}
	return out
}

// cmpEntry orders entries by (Key, Lo, Hi) — the exporter's sort order.
func cmpEntry(a, b Entry) int {
	switch {
	case a.Key != b.Key:
		if a.Key < b.Key {
			return -1
		}
		return 1
	case a.Lo != b.Lo:
		if a.Lo < b.Lo {
			return -1
		}
		return 1
	case a.Hi < b.Hi:
		return -1
	case a.Hi > b.Hi:
		return 1
	}
	return 0
}

func remap(e Entry, offset int32) Entry {
	if e.Val != Infeasible {
		e.Val += offset
	}
	return e
}

// --- wire format ---
//
// All integers are little-endian. Layout:
//
//	magic[6] version:u32 crc:u32            (crc over everything after it)
//	graphHashLen:u32 graphHash[...]
//	shapeSig:u64 costSig:u64
//	devices:i32
//	numSearches:u32
//	per search:
//	  miniBatch:i32 rootB:i32 numZones:i32
//	  numConfigs:u32  {microBatch:i32 k:i32}...
//	  numBoundary:u32 {microBatch:i32 k:i32}...
//	  numNodes:u32    {kind:u8 zone:i32 devs:i32 left:i32 right:i32
//	                   nStages:i32 cfgMB:i32 cfgK:i32 inFlight:i32
//	                   mem:f64 tps:f64}...
//	  numEntries:u32  {key:u64 lo:f64 hi:f64 val:i32}...

const (
	headerSize    = 6 + 4 + 4
	nodeWireSize  = 1 + 8*4 + 2*8
	entryWireSize = 8 + 2*8 + 4
	configSize    = 8
)

type writer struct{ buf []byte }

func (w *writer) u8(v byte)     { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32)  { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64)  { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) i32(v int32)   { w.u32(uint32(v)) }
func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }

// Encode renders the snapshot in the versioned binary format.
func Encode(s *Snapshot) []byte {
	w := &writer{buf: make([]byte, 0, encodedSizeHint(s))}
	w.buf = append(w.buf, snapshotMagic[:]...)
	w.u32(SnapshotVersion)
	w.u32(0) // crc placeholder

	w.u32(uint32(len(s.Key.GraphHash)))
	w.buf = append(w.buf, s.Key.GraphHash...)
	w.u64(s.Key.ShapeSig)
	w.u64(s.Key.CostSig)
	w.i32(s.Devices)

	w.u32(uint32(len(s.Searches)))
	for i := range s.Searches {
		sm := &s.Searches[i]
		w.i32(sm.MiniBatch)
		w.i32(sm.RootB)
		w.i32(sm.NumZones)
		w.u32(uint32(len(sm.Configs)))
		for _, c := range sm.Configs {
			w.i32(c.MicroBatch)
			w.i32(c.K)
		}
		w.u32(uint32(len(sm.Boundary)))
		for _, c := range sm.Boundary {
			w.i32(c.MicroBatch)
			w.i32(c.K)
		}
		w.u32(uint32(len(sm.Nodes)))
		for _, n := range sm.Nodes {
			kind := byte(0)
			if n.Leaf {
				kind = 1
			}
			w.u8(kind)
			w.i32(n.Zone)
			w.i32(n.Devs)
			w.i32(n.Left)
			w.i32(n.Right)
			w.i32(n.NStages)
			w.i32(n.Cfg.MicroBatch)
			w.i32(n.Cfg.K)
			w.i32(n.InFlight)
			w.f64(n.Mem)
			w.f64(n.TPS)
		}
		w.u32(uint32(len(sm.Entries)))
		for _, e := range sm.Entries {
			w.u64(e.Key)
			w.f64(e.Lo)
			w.f64(e.Hi)
			w.i32(e.Val)
		}
	}
	binary.LittleEndian.PutUint32(w.buf[10:14], crc32.ChecksumIEEE(w.buf[headerSize:]))
	return w.buf
}

func encodedSizeHint(s *Snapshot) int {
	n := headerSize + 4 + len(s.Key.GraphHash) + 16 + 4 + 4
	for i := range s.Searches {
		sm := &s.Searches[i]
		n += 3*4 + 4*4
		n += configSize * (len(sm.Configs) + len(sm.Boundary))
		n += nodeWireSize * len(sm.Nodes)
		n += entryWireSize * len(sm.Entries)
	}
	return n
}

type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated at offset %d", ErrCorruptSnapshot, r.off)
	}
}

func (r *reader) u8() byte {
	if r.err != nil || r.off+1 > len(r.buf) {
		r.fail()
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *reader) i32() int32     { return int32(r.u32()) }
func (r *reader) f64() float64   { return math.Float64frombits(r.u64()) }
func (r *reader) remaining() int { return len(r.buf) - r.off }

// count reads a length prefix and bounds it by the bytes remaining at
// recordSize each, so a corrupt length cannot drive a huge allocation.
func (r *reader) count(recordSize int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n < 0 || n*recordSize > r.remaining() {
		r.err = fmt.Errorf("%w: count %d exceeds remaining %d bytes", ErrCorruptSnapshot, n, r.remaining())
		return 0
	}
	return n
}

// Decode parses a versioned snapshot, verifying magic, version, and
// checksum before touching the body. It distinguishes the two failure
// classes the way DecodeArtifact does: data this build does not speak
// (ErrUnknownSnapshotVersion) versus data that is not a snapshot at all
// (ErrCorruptSnapshot). Structural validity beyond the wire format — zone
// ranges, config-index agreement — is the importer's job, because it needs
// context (the freshly resolved zone table) the decoder does not have.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes, want at least %d", ErrCorruptSnapshot, len(data), headerSize)
	}
	if [6]byte(data[:6]) != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptSnapshot)
	}
	if v := binary.LittleEndian.Uint32(data[6:10]); v != SnapshotVersion {
		return nil, fmt.Errorf("%w: got %d, this build speaks %d", ErrUnknownSnapshotVersion, v, SnapshotVersion)
	}
	want := binary.LittleEndian.Uint32(data[10:14])
	if got := crc32.ChecksumIEEE(data[headerSize:]); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (%08x vs %08x)", ErrCorruptSnapshot, got, want)
	}

	r := &reader{buf: data, off: headerSize}
	s := &Snapshot{}
	hlen := r.count(1)
	if r.err != nil {
		return nil, r.err
	}
	s.Key.GraphHash = string(r.buf[r.off : r.off+hlen])
	r.off += hlen
	s.Key.ShapeSig = r.u64()
	s.Key.CostSig = r.u64()
	s.Devices = r.i32()

	nSearches := r.count(3*4 + 4*4)
	for i := 0; i < nSearches && r.err == nil; i++ {
		var sm SearchMemo
		sm.MiniBatch = r.i32()
		sm.RootB = r.i32()
		sm.NumZones = r.i32()
		if nc := r.count(configSize); nc > 0 {
			sm.Configs = make([]Config, nc)
			for j := range sm.Configs {
				sm.Configs[j] = Config{MicroBatch: r.i32(), K: r.i32()}
			}
		}
		if nb := r.count(configSize); nb > 0 {
			sm.Boundary = make([]Config, nb)
			for j := range sm.Boundary {
				sm.Boundary[j] = Config{MicroBatch: r.i32(), K: r.i32()}
			}
		}
		nn := r.count(nodeWireSize)
		if nn > 0 {
			sm.Nodes = make([]Node, nn)
			for j := range sm.Nodes {
				n := &sm.Nodes[j]
				n.Leaf = r.u8() == 1
				n.Zone = r.i32()
				n.Devs = r.i32()
				n.Left = r.i32()
				n.Right = r.i32()
				n.NStages = r.i32()
				n.Cfg = Config{MicroBatch: r.i32(), K: r.i32()}
				n.InFlight = r.i32()
				n.Mem = r.f64()
				n.TPS = r.f64()
				// Children strictly precede parents so import is one pass.
				if !n.Leaf && r.err == nil {
					if n.Left < 0 || int(n.Left) >= j || n.Right < 0 || int(n.Right) >= j {
						r.err = fmt.Errorf("%w: node %d references children %d/%d out of order", ErrCorruptSnapshot, j, n.Left, n.Right)
					}
				}
			}
		}
		ne := r.count(entryWireSize)
		if ne > 0 {
			sm.Entries = make([]Entry, ne)
			for j := range sm.Entries {
				e := &sm.Entries[j]
				e.Key = r.u64()
				e.Lo = r.f64()
				e.Hi = r.f64()
				e.Val = r.i32()
				if r.err == nil && (e.Val < Infeasible || int(e.Val) >= len(sm.Nodes)) {
					r.err = fmt.Errorf("%w: entry %d value %d outside node table of %d", ErrCorruptSnapshot, j, e.Val, len(sm.Nodes))
				}
			}
		}
		s.Searches = append(s.Searches, sm)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptSnapshot, r.remaining())
	}
	return s, nil
}
