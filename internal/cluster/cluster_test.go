package cluster

import (
	"fmt"
	"testing"
)

func TestSummitTopologyShape(t *testing.T) {
	topo := NewSummitTopology(8)
	if topo.Len() != 8 {
		t.Fatalf("Len = %d", topo.Len())
	}
	if topo.Device(0).Node != 0 || topo.Device(3).Node != 0 {
		t.Error("first four devices should share node 0")
	}
	if topo.Device(4).Node != 1 {
		t.Error("device 4 should be on node 1")
	}
	if topo.MinMemory() != 16e9 {
		t.Errorf("MinMemory = %g", topo.MinMemory())
	}
}

func TestBandwidthTiers(t *testing.T) {
	topo := NewSummitTopology(8)
	intra := topo.Bandwidth(0, 1)
	inter := topo.Bandwidth(0, 4)
	if intra <= inter {
		t.Errorf("intra-node bw %g should exceed inter-node %g", intra, inter)
	}
	if self := topo.Bandwidth(2, 2); self <= intra {
		t.Errorf("same-device bw %g should exceed link bw %g", self, intra)
	}
}

func TestGroupBandwidthBottleneck(t *testing.T) {
	topo := NewSummitTopology(8)
	// Group {0,1} to {2,3}: all intra-node.
	if bw, lat := topo.GroupLink([]DeviceID{0, 1}, []DeviceID{2, 3}); bw != topo.LevelDown(0) || lat != topo.LevelLatency(0) {
		t.Errorf("intra-node group link = %g, %g", bw, lat)
	}
	// Group {0} to {3,4}: crosses nodes, bottlenecked by IB.
	if bw, lat := topo.GroupLink([]DeviceID{0}, []DeviceID{3, 4}); bw != topo.LevelDown(1) || lat != topo.LevelLatency(1) {
		t.Errorf("cross-node group link = %g, %g", bw, lat)
	}
	// Empty groups fall back to intra-node.
	if bw, lat := topo.GroupLink(nil, []DeviceID{0}); bw != topo.LevelDown(0) || lat != topo.LevelLatency(0) {
		t.Errorf("empty group link = %g, %g", bw, lat)
	}
}

// TestGroupLinkUsesBottleneckLevel pins that a transfer pays the latency
// of the level whose bandwidth bottlenecks it, not the innermost one.
func TestGroupLinkUsesBottleneckLevel(t *testing.T) {
	topo, err := ParseTopology("topo:explicit/classes=v:16e9:112e12:900e9" +
		"/levels=node:2:150e9:150e9:5e-6+rack:4:12.5e9:12.5e9:5e-4/assign=4xv")
	if err != nil {
		t.Fatal(err)
	}
	if _, lat := topo.GroupLink([]DeviceID{0}, []DeviceID{1}); lat != 5e-6 {
		t.Errorf("intra-node latency = %g, want 5e-6", lat)
	}
	if bw, lat := topo.GroupLink([]DeviceID{0, 1}, []DeviceID{2}); bw != 12.5e9 || lat != 5e-4 {
		t.Errorf("cross-node link = %g, %g, want 12.5e9, 5e-4", bw, lat)
	}
}

func TestGroupSpansNodesAndAllreduce(t *testing.T) {
	topo := NewSummitTopology(8)
	if topo.GroupSpansNodes([]DeviceID{0, 1, 2, 3}) {
		t.Error("single-node group reported as spanning")
	}
	if !topo.GroupSpansNodes([]DeviceID{3, 4}) {
		t.Error("cross-node group not reported")
	}
	if topo.GroupSpansNodes([]DeviceID{5}) {
		t.Error("singleton group spans nodes")
	}
	// A ring allreduce over a block crosses the level linking its ends.
	if l := topo.LinkLevel(0, 1); l != 0 {
		t.Errorf("intra-node allreduce level = %d", l)
	}
	if l := topo.LinkLevel(3, 4); l != 1 {
		t.Errorf("cross-node allreduce level = %d", l)
	}
}

func TestUniformTopology(t *testing.T) {
	topo := NewUniformTopology(3, 1e9, 5e9)
	if topo.Len() != 3 || topo.MinMemory() != 1e9 {
		t.Fatalf("uniform topology wrong: len=%d mem=%g", topo.Len(), topo.MinMemory())
	}
	if topo.Bandwidth(0, 2) != 5e9 {
		t.Errorf("uniform bw = %g", topo.Bandwidth(0, 2))
	}
	if topo.LevelCount() != 1 || len(topo.Classes()) != 1 {
		t.Errorf("uniform topology has %d levels and %d device classes; want one of each",
			topo.LevelCount(), len(topo.Classes()))
	}
}

// TestCanonicalRoundTrip pins that the topologies the constructors build
// render a spec ParseTopology accepts, and that the parsed topology
// renders it again. Summit renders "", which stands for SummitSpec at the
// same device count.
func TestCanonicalRoundTrip(t *testing.T) {
	topos := map[string]*Topology{"uniform": NewUniformTopology(4, 1e9, 5e9)}
	for n := 1; n <= 32; n++ {
		topos[fmt.Sprintf("summit@%d", n)] = NewSummitTopology(n)
	}
	for name, topo := range topos {
		spec := topo.Canonical()
		if spec == "" {
			spec = SummitSpec(topo.Len()).Canonical()
		}
		parsed, err := ParseTopology(spec)
		if err != nil {
			t.Errorf("%s: Canonical() %q does not parse: %v", name, spec, err)
			continue
		}
		if parsed.Canonical() != topo.Canonical() {
			t.Errorf("%s: round trip renders %q, want %q", name, parsed.Canonical(), topo.Canonical())
		}
	}
}

func TestSortIDs(t *testing.T) {
	ids := SortIDs([]DeviceID{3, 1, 2})
	if ids[0] != 1 || ids[2] != 3 {
		t.Errorf("SortIDs = %v", ids)
	}
}
