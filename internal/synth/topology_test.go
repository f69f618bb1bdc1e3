package synth

import (
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
