package cluster

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is the heterogeneous / hierarchical topology surface: device
// classes, bandwidth levels with asymmetric per-direction rates, the
// explicit "topo:explicit/..." spec grammar with a canonical rendering,
// and the named built-in presets. The flat V100 Summit testbed of the
// paper is one preset here rather than package-level constants, so
// every consumer — CLI flags, service requests, artifact metadata,
// synth topology families — resolves cluster descriptions through one
// grammar with one canonical spelling per distinct topology.

// SpecPrefix marks a model-name-like string as a topology spec wherever
// topology names are resolved (models.Topology, CLI -topology flags,
// service requests).
const SpecPrefix = "topo:"

// explicitFamily is the spec family that spells a topology out in full;
// every other "topo:" family is a seeded synth generator that resolves
// to an explicit Spec.
const explicitFamily = "explicit"

// IsSpecName reports whether a topology name uses the spec grammar.
func IsSpecName(name string) bool { return strings.HasPrefix(name, SpecPrefix) }

// IsExplicitSpec reports whether a topology name is a fully explicit
// spec (as opposed to a seeded synth topology family).
func IsExplicitSpec(name string) bool {
	return strings.HasPrefix(name, SpecPrefix+explicitFamily+"/")
}

// DeviceClass is one accelerator model in a (possibly heterogeneous)
// cluster: the per-device capabilities every cost estimate reads.
type DeviceClass struct {
	Name         string
	MemoryBytes  float64
	PeakFLOPS    float64
	MemBandwidth float64
}

// Level is one tier of the interconnect hierarchy, innermost first:
// devices i and j communicate at the innermost level l with
// i/Width == j/Width. Bandwidth is directional — DownBandwidth carries
// pipeline-forward traffic (activations, toward higher device ids) and
// UpBandwidth pipeline-backward traffic (gradients) — following the
// asymmetric read/write transfer-cost treatment of Gu/Sun/Blelloch's
// asymmetric-memory model. Symmetric links simply set both equal.
type Level struct {
	Name          string
	Width         int
	DownBandwidth float64
	UpBandwidth   float64
	Latency       float64
}

// Spec is a fully explicit topology description: the interned device
// classes, the bandwidth hierarchy, and the per-device class
// assignment. It is the normal form every topology spelling — preset
// names, synth topology families, explicit strings — resolves to.
type Spec struct {
	Classes []DeviceClass
	Levels  []Level
	// Assign[i] is the index into Classes of device i.
	Assign []int
}

// positive reports whether v is a finite positive quantity.
func positive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// Validate checks the structural invariants the builder and the
// canonical rendering rely on. Every capability and bandwidth must be
// finite and positive and every latency finite and non-negative: NaN
// passes any comparison-only check (every comparison with it is false),
// and +Inf renders as "+Inf", which the grammar cannot parse back because
// '+' is its separator.
func (s Spec) Validate() error {
	if len(s.Classes) == 0 || len(s.Levels) == 0 || len(s.Assign) == 0 {
		return fmt.Errorf("cluster: spec needs classes, levels, and an assignment")
	}
	for i, c := range s.Classes {
		if !positive(c.MemoryBytes) || !positive(c.PeakFLOPS) || !positive(c.MemBandwidth) {
			return fmt.Errorf("cluster: device class %d (%q) has capabilities that are not finite and positive", i, c.Name)
		}
	}
	prev := 0
	for i, l := range s.Levels {
		if l.Width < 1 || !positive(l.DownBandwidth) || !positive(l.UpBandwidth) || !(l.Latency >= 0 && !math.IsInf(l.Latency, 1)) {
			return fmt.Errorf("cluster: level %d (%q) has invalid width/bandwidth/latency", i, l.Name)
		}
		if i > 0 {
			if l.Width <= prev || l.Width%prev != 0 {
				return fmt.Errorf("cluster: level widths must strictly increase and nest (level %d width %d after %d)",
					i, l.Width, prev)
			}
		}
		prev = l.Width
	}
	if last := s.Levels[len(s.Levels)-1].Width; last < len(s.Assign) {
		return fmt.Errorf("cluster: outermost level width %d does not span %d devices", last, len(s.Assign))
	}
	for i, ci := range s.Assign {
		if ci < 0 || ci >= len(s.Classes) {
			return fmt.Errorf("cluster: device %d assigned to unknown class %d", i, ci)
		}
	}
	return nil
}

// Build constructs the topology the spec describes.
func (s Spec) Build() (*Topology, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	inner := s.Levels[0]
	t := &Topology{levels: append([]Level(nil), s.Levels...)}
	for i, ci := range s.Assign {
		c := s.Classes[ci]
		t.devices = append(t.devices, Device{
			ID:           DeviceID(i),
			Node:         i / inner.Width,
			MemoryBytes:  c.MemoryBytes,
			PeakFLOPS:    c.PeakFLOPS,
			MemBandwidth: c.MemBandwidth,
		})
	}
	t.internClasses()
	return t, nil
}

// f64 renders a float in the shortest exact form, so canonical strings
// round-trip bit-for-bit. Positive exponents drop the sign ("1.6e10",
// not "1.6e+10"): '+' is the class/level separator in the grammar, so a
// signed exponent would make Canonical output unparseable.
func f64(v float64) string {
	return strings.ReplaceAll(strconv.FormatFloat(v, 'g', -1, 64), "e+", "e")
}

// Canonical renders the spec in canonical explicit form. Class and
// level names are normalized (c0, c1, ... in order of first use in the
// assignment; l0, l1, ... innermost first) and unused classes dropped,
// so two spellings of the same physical topology — whatever the author
// called the tiers — render, and therefore fingerprint, identically.
func (s Spec) Canonical() string {
	// Re-index classes by first use.
	order := make([]int, 0, len(s.Classes))
	newIdx := make(map[int]int)
	for _, ci := range s.Assign {
		if _, ok := newIdx[ci]; !ok {
			newIdx[ci] = len(order)
			order = append(order, ci)
		}
	}
	var sb strings.Builder
	sb.WriteString(SpecPrefix + explicitFamily + "/classes=")
	for i, ci := range order {
		if i > 0 {
			sb.WriteByte('+')
		}
		c := s.Classes[ci]
		fmt.Fprintf(&sb, "c%d:%s:%s:%s", i, f64(c.MemoryBytes), f64(c.PeakFLOPS), f64(c.MemBandwidth))
	}
	sb.WriteString("/levels=")
	for i, l := range s.Levels {
		if i > 0 {
			sb.WriteByte('+')
		}
		fmt.Fprintf(&sb, "l%d:%d:%s:%s:%s", i, l.Width, f64(l.DownBandwidth), f64(l.UpBandwidth), f64(l.Latency))
	}
	sb.WriteString("/assign=")
	run, runStart := 0, 0
	flush := func(end int) {
		if run > 0 {
			if runStart > 0 {
				sb.WriteByte('+')
			}
			fmt.Fprintf(&sb, "%dxc%d", run, newIdx[s.Assign[end-1]])
		}
	}
	for i, ci := range s.Assign {
		if run > 0 && ci == s.Assign[i-1] {
			run++
			continue
		}
		flush(i)
		if run > 0 {
			runStart = i
		}
		run = 1
	}
	flush(len(s.Assign))
	return sb.String()
}

// MaxDevices bounds the device count of every cluster built from a name:
// a parsed spec here, a synth family's devices= field and a request's
// device count (models.Topology). Those arrive from CLI flags and service
// requests, and a count of a few characters could otherwise make a
// builder allocate billions of devices. The bound is far beyond any
// cluster the planners search (the GraphPipe DP packs at most 127
// devices into a memo key).
const MaxDevices = 1 << 16

// ParseSpec decodes an explicit topology spec string (the inverse of
// Spec.Canonical, though it accepts arbitrary class/level names).
func ParseSpec(name string) (Spec, error) {
	if !IsExplicitSpec(name) {
		return Spec{}, fmt.Errorf("cluster: %q is not an explicit topology spec (want %s%s/...)",
			name, SpecPrefix, explicitFamily)
	}
	rest := strings.TrimPrefix(name, SpecPrefix+explicitFamily+"/")
	var spec Spec
	classIdx := make(map[string]int)
	for _, kv := range strings.Split(rest, "/") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return Spec{}, fmt.Errorf("cluster: malformed topology knob %q in %q (want key=value)", kv, name)
		}
		switch k {
		case "classes":
			for _, cs := range strings.Split(v, "+") {
				f := strings.Split(cs, ":")
				if len(f) != 4 {
					return Spec{}, fmt.Errorf("cluster: class %q: want name:mem:flops:membw", cs)
				}
				c := DeviceClass{Name: f[0]}
				var err error
				if c.MemoryBytes, err = strconv.ParseFloat(f[1], 64); err == nil {
					if c.PeakFLOPS, err = strconv.ParseFloat(f[2], 64); err == nil {
						c.MemBandwidth, err = strconv.ParseFloat(f[3], 64)
					}
				}
				if err != nil {
					return Spec{}, fmt.Errorf("cluster: class %q: %v", cs, err)
				}
				if _, dup := classIdx[c.Name]; dup {
					return Spec{}, fmt.Errorf("cluster: duplicate device class %q", c.Name)
				}
				classIdx[c.Name] = len(spec.Classes)
				spec.Classes = append(spec.Classes, c)
			}
		case "levels":
			for _, ls := range strings.Split(v, "+") {
				f := strings.Split(ls, ":")
				if len(f) != 5 {
					return Spec{}, fmt.Errorf("cluster: level %q: want name:width:down:up:latency", ls)
				}
				l := Level{Name: f[0]}
				var err error
				if l.Width, err = strconv.Atoi(f[1]); err == nil {
					if l.DownBandwidth, err = strconv.ParseFloat(f[2], 64); err == nil {
						if l.UpBandwidth, err = strconv.ParseFloat(f[3], 64); err == nil {
							l.Latency, err = strconv.ParseFloat(f[4], 64)
						}
					}
				}
				if err != nil {
					return Spec{}, fmt.Errorf("cluster: level %q: %v", ls, err)
				}
				spec.Levels = append(spec.Levels, l)
			}
		case "assign":
			for _, as := range strings.Split(v, "+") {
				cnt, cls, ok := strings.Cut(as, "x")
				if !ok {
					return Spec{}, fmt.Errorf("cluster: assignment %q: want COUNTxCLASS", as)
				}
				n, err := strconv.Atoi(cnt)
				if err != nil || n < 1 {
					return Spec{}, fmt.Errorf("cluster: assignment %q: bad count", as)
				}
				if n > MaxDevices-len(spec.Assign) {
					return Spec{}, fmt.Errorf("cluster: assignment %q: a spec names at most %d devices", as, MaxDevices)
				}
				ci, ok := classIdx[cls]
				if !ok {
					return Spec{}, fmt.Errorf("cluster: assignment %q references unknown class %q", as, cls)
				}
				for i := 0; i < n; i++ {
					spec.Assign = append(spec.Assign, ci)
				}
			}
		default:
			return Spec{}, fmt.Errorf("cluster: unknown topology knob %q in %q", k, name)
		}
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// ParseTopology builds a topology from an explicit spec string.
func ParseTopology(name string) (*Topology, error) {
	spec, err := ParseSpec(name)
	if err != nil {
		return nil, err
	}
	return spec.Build()
}

// --- built-in presets ---

// Summit-testbed constants (the paper's evaluation platform, §7): nodes
// of 4 NVLink-connected V100s with 100 Gb/s EDR InfiniBand between
// nodes. These live inside the SummitSpec preset — the one named place
// tests and tools reference — rather than as loose package literals.
const (
	summitMemoryBytes  = 16e9   // 16 GB HBM2
	summitPeakFLOPS    = 112e12 // tensor-core peak, de-rated from 125 TFLOPS
	summitMemBandwidth = 900e9  // 900 GB/s HBM2
	summitNVLink       = 150e9  // effective NVLink bytes/s
	summitIB           = 12.5e9 // 100 Gb/s EDR InfiniBand
	summitLatency      = 5e-6   // 5 µs per transfer
	summitGPUsPerNode  = 4
)

// SummitSpec is the named built-in preset mirroring the paper's
// testbed: n V100-class devices, four per node.
func SummitSpec(n int) Spec {
	outer := n
	if outer < summitGPUsPerNode {
		outer = summitGPUsPerNode
	}
	// Round the cluster width up to whole nodes so the level widths nest,
	// and keep it strictly wider than a node even when the cluster is a
	// single node (the cluster tier is then simply unreachable).
	if r := outer % summitGPUsPerNode; r != 0 {
		outer += summitGPUsPerNode - r
	}
	if outer <= summitGPUsPerNode {
		outer = 2 * summitGPUsPerNode
	}
	assign := make([]int, n)
	return Spec{
		Classes: []DeviceClass{{
			Name: "v100", MemoryBytes: summitMemoryBytes,
			PeakFLOPS: summitPeakFLOPS, MemBandwidth: summitMemBandwidth,
		}},
		Levels: []Level{
			{Name: "node", Width: summitGPUsPerNode,
				DownBandwidth: summitNVLink, UpBandwidth: summitNVLink, Latency: summitLatency},
			{Name: "cluster", Width: outer,
				DownBandwidth: summitIB, UpBandwidth: summitIB, Latency: summitLatency},
		},
		Assign: assign,
	}
}

// presets names the built-in topology shapes.
var presets = map[string]func(n int) Spec{
	"summit": SummitSpec,
}

// PresetNames lists the built-in preset names, sorted.
func PresetNames() []string {
	out := make([]string, 0, len(presets))
	for name := range presets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Preset builds a named built-in topology at n devices.
func Preset(name string, n int) (*Topology, error) {
	f, ok := presets[name]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown topology preset %q (known: %s)",
			name, strings.Join(PresetNames(), ", "))
	}
	if n < 1 {
		return nil, fmt.Errorf("cluster: preset %q needs a positive device count, got %d", name, n)
	}
	return f(n).Build()
}
