package synth

import (
	"fmt"
	"testing"

	"graphpipe/internal/cluster"
)

// TestTopologyFamiliesCanonicalRoundTrip pins that every family's
// topology renders a canonical spec ParseTopology accepts, and that the
// parsed topology renders the same spec again.
func TestTopologyFamiliesCanonicalRoundTrip(t *testing.T) {
	for _, fam := range TopoFamilies() {
		for n := 1; n <= 32; n++ {
			name := TopoSpec{Family: fam, Seed: 1}.String()
			topo, err := BuildTopology(name, n)
			if err != nil {
				t.Fatalf("%s at %d devices: %v", name, n, err)
			}
			spec := topo.Canonical()
			parsed, err := cluster.ParseTopology(spec)
			if err != nil {
				t.Errorf("%s at %d devices: Canonical() %q does not parse: %v", name, n, spec, err)
				continue
			}
			if parsed.Canonical() != spec {
				t.Errorf("%s at %d devices: round trip renders %q, want %q", name, n, parsed.Canonical(), spec)
			}
		}
	}
}

// TestTopoDeviceBound pins that a synth topology refuses more devices
// than cluster.MaxDevices before it builds any: in its devices= field and
// at the count it is resolved at.
func TestTopoDeviceBound(t *testing.T) {
	over := cluster.MaxDevices + 1
	if _, err := ParseTopo(fmt.Sprintf("topo:uniform/seed=1/devices=%d", over)); err == nil {
		t.Errorf("devices=%d accepted", over)
	}
	if _, err := ParseTopo(fmt.Sprintf("topo:uniform/seed=1/devices=%d", cluster.MaxDevices)); err != nil {
		t.Errorf("devices=%d rejected: %v", cluster.MaxDevices, err)
	}
	if _, err := BuildTopology("topo:two-tier/seed=1", over); err == nil {
		t.Errorf("resolved at %d devices", over)
	}
}

// FuzzParseTopo checks the synth topology grammar on arbitrary strings:
// parsing never panics, the canonical rendering of an accepted spec parses
// back to the same spec, and every accepted spec resolves within the
// device bound to exactly the devices it names. An unpinned spec is
// resolved at a small count taken from the input.
func FuzzParseTopo(f *testing.F) {
	for _, fam := range TopoFamilies() {
		f.Add(TopoSpec{Family: fam, Seed: 7}.String(), uint8(8))
		f.Add(TopoSpec{Family: fam, Seed: -1, Devices: 5}.String(), uint8(0))
	}
	f.Add("topo:hierarchical/devices=65536/seed=3", uint8(1))
	f.Add("topo:uniform/seed=1/devices=65537", uint8(1))
	f.Add("topo:two-tier/seed=1/seed=2/devices=-1", uint8(3))
	f.Fuzz(func(t *testing.T, name string, at uint8) {
		spec, err := ParseTopo(name)
		if err != nil {
			return
		}
		if spec.Devices < 0 || spec.Devices > cluster.MaxDevices {
			t.Fatalf("%q: accepted %d devices", name, spec.Devices)
		}
		canon := spec.String()
		again, err := ParseTopo(canon)
		if err != nil {
			t.Fatalf("%q: canonical form %q does not parse: %v", name, canon, err)
		}
		if again != spec {
			t.Fatalf("%q: canonical form %q parses as %+v, want %+v", name, canon, again, spec)
		}
		n := spec.Devices
		if n == 0 {
			n = int(at%64) + 1
		}
		cs, err := spec.Resolve(n)
		if err != nil {
			t.Fatalf("%q: resolving at %d devices: %v", name, n, err)
		}
		if len(cs.Assign) != n {
			t.Fatalf("%q: resolved to %d devices, want %d", name, len(cs.Assign), n)
		}
	})
}
