package cluster

import (
	"math"
	"strings"
	"testing"
)

// nonFiniteSpecs spell a quantity the grammar's number parser accepts
// but a topology cannot have: a NaN capability, an infinite bandwidth
// (which would canonicalize to "+Inf", unparseable because '+' is the
// separator), and a NaN latency.
var nonFiniteSpecs = []string{
	"topo:explicit/classes=a:16e9:NaN:900e9/levels=l:4:1e10:1e10:1e-6/assign=4xa",
	"topo:explicit/classes=a:16e9:1e14:900e9/levels=l:4:Inf:1e10:1e-6/assign=4xa",
	"topo:explicit/classes=a:16e9:1e14:900e9/levels=l:4:1e10:1e10:NaN/assign=4xa",
}

func TestParseSpecRejectsNonFinite(t *testing.T) {
	for _, s := range nonFiniteSpecs {
		if spec, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted %+v", s, spec)
		}
	}
}

// TestValidateQuantities covers every quantity a spec carries: the three
// device-class capabilities and the two level bandwidths must be finite
// and positive, the latency finite and non-negative.
func TestValidateQuantities(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	fields := []struct {
		name string
		set  func(s *Spec, v float64)
		ok   []float64 // values accepted besides the base spec's own
		bad  []float64
	}{
		{"memory", func(s *Spec, v float64) { s.Classes[0].MemoryBytes = v }, []float64{1}, []float64{nan, inf, -inf, 0, -1}},
		{"flops", func(s *Spec, v float64) { s.Classes[0].PeakFLOPS = v }, []float64{1}, []float64{nan, inf, -inf, 0, -1}},
		{"mem-bandwidth", func(s *Spec, v float64) { s.Classes[0].MemBandwidth = v }, []float64{1}, []float64{nan, inf, -inf, 0, -1}},
		{"down-bandwidth", func(s *Spec, v float64) { s.Levels[1].DownBandwidth = v }, []float64{1}, []float64{nan, inf, -inf, 0, -1}},
		{"up-bandwidth", func(s *Spec, v float64) { s.Levels[0].UpBandwidth = v }, []float64{1}, []float64{nan, inf, -inf, 0, -1}},
		{"latency", func(s *Spec, v float64) { s.Levels[1].Latency = v }, []float64{0, 1}, []float64{nan, inf, -inf, -1e-9}},
	}
	for _, f := range fields {
		for _, v := range f.ok {
			s := SummitSpec(8)
			f.set(&s, v)
			if err := s.Validate(); err != nil {
				t.Errorf("%s = %g rejected: %v", f.name, v, err)
			}
		}
		for _, v := range f.bad {
			s := SummitSpec(8)
			f.set(&s, v)
			if err := s.Validate(); err == nil {
				t.Errorf("%s = %g accepted", f.name, v)
			}
		}
	}
}

// TestParseSpecBoundsDevices pins the parser's device-count bound, which
// keeps a short count such as "1099511627776xa" from allocating an
// enormous assignment. The cases stay small so that a regression fails
// here instead of exhausting memory.
func TestParseSpecBoundsDevices(t *testing.T) {
	const head = "topo:explicit/classes=a:16e9:1e14:900e9/levels=l:4:1e10:1e10:0+m:131072:1e9:1e9:0/assign="
	for _, assign := range []string{"65537xa", "65536xa+1xa"} {
		if _, err := ParseSpec(head + assign); err == nil || !strings.Contains(err.Error(), "at most") {
			t.Errorf("assign=%s: want the device-count bound, got %v", assign, err)
		}
	}
	if _, err := ParseSpec(head + "65536xa"); err != nil {
		t.Errorf("65536 devices rejected: %v", err)
	}
}

// FuzzParseSpec checks the topology grammar on arbitrary strings: parsing
// never panics, every accepted spec has finite positive quantities (a
// finite non-negative latency), and the canonical rendering of an accepted
// spec parses back to the same canonical string.
func FuzzParseSpec(f *testing.F) {
	for _, n := range []int{1, 3, 4, 8, 32} {
		f.Add(SummitSpec(n).Canonical())
	}
	for _, s := range nonFiniteSpecs {
		f.Add(s)
	}
	f.Add("topo:explicit/classes=fast:32e9:2e14:1.2e12+slow:16e9:1e14:900e9" +
		"/levels=node:2:3e11:1e11:1e-6+rack:8:2.5e10:2.5e10:5e-6+dc:16:1e10:5e9:2e-5/assign=4xfast+12xslow")
	finitePositive := func(v float64) bool { return v > 0 && !math.IsInf(v, 0) }
	f.Fuzz(func(t *testing.T, name string) {
		spec, err := ParseSpec(name)
		if err != nil {
			return
		}
		for i, c := range spec.Classes {
			if !finitePositive(c.MemoryBytes) || !finitePositive(c.PeakFLOPS) || !finitePositive(c.MemBandwidth) {
				t.Fatalf("%q: accepted class %d with %+v", name, i, c)
			}
		}
		for i, l := range spec.Levels {
			if l.Width < 1 || !finitePositive(l.DownBandwidth) || !finitePositive(l.UpBandwidth) ||
				!(l.Latency >= 0) || math.IsInf(l.Latency, 0) {
				t.Fatalf("%q: accepted level %d with %+v", name, i, l)
			}
		}
		canon := spec.Canonical()
		again, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("%q: canonical form %q does not parse: %v", name, canon, err)
		}
		if got := again.Canonical(); got != canon {
			t.Fatalf("%q: canonical form %q re-renders as %q", name, canon, got)
		}
	})
}
