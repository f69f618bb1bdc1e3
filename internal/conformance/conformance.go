// Package conformance is the cross-planner, cross-backend invariant
// suite over the synthetic model corpus (internal/synth). Where the
// unit tests pin each layer against hand-built paper models, this
// package checks the properties the whole stack promises on *any*
// valid series-parallel model, for every registered planner and every
// registered evaluation backend:
//
//	admissible            every produced strategy satisfies the C1–C4
//	                      validity conditions (strategy.Validate)
//	backend-parity        the sim and runtime backends produce
//	                      field-identical eval.Reports for the same plan
//	determinism           parallel vs sequential search, repeated runs,
//	                      and fresh vs probe-spanning DP memos all emit
//	                      byte-identical serialized artifacts
//	fingerprint-roundtrip Artifact.Fingerprint and the serialized bytes
//	                      survive plan → encode → decode → re-encode
//	device-monotonicity   on symmetric topologies with the proportional
//	                      mini-batch pairing, more devices never lose
//	                      throughput (within tolerance)
//	warm-cold-equivalence replanning a perturbed request warm-started
//	                      from a prior search's DP memo snapshot emits
//	                      an artifact byte-identical to a cold plan of
//	                      the same request
//	hetero-admissibility  on a pinned heterogeneous topology, no plan
//	                      claims a better iteration estimate than the
//	                      flat topology that dominates it
//
// The corpus checks properties, not particular plans; the plans on the
// paper models are pinned byte for byte by internal/planner's golden
// test (TestArtifactGolden).
//
// On a violation the harness shrinks the failing spec to a minimal
// model that still fails (Shrink), so a red corpus run hands the
// debugger a small replayable graph instead of a random large one:
// every Violation carries both the original and the minimized spec
// string, replayable with `graphpipe synth -spec <s>` and
// `go test ./internal/conformance -conformance.replay=<s>`.
package conformance

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"time"

	"graphpipe/internal/baselines"
	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/eval"
	"graphpipe/internal/graph"
	"graphpipe/internal/memosnap"
	"graphpipe/internal/models"
	"graphpipe/internal/planner"
	"graphpipe/internal/strategy"
	"graphpipe/internal/synth"
)

// Invariant names one checked property.
type Invariant string

// The seven invariants, in the order they are checked per spec.
const (
	InvAdmissible   Invariant = "admissible"
	InvDeterminism  Invariant = "determinism"
	InvFingerprint  Invariant = "fingerprint-roundtrip"
	InvParity       Invariant = "backend-parity"
	InvMonotonicity Invariant = "device-monotonicity"
	InvWarmCold     Invariant = "warm-cold-equivalence"
	// InvHeteroBound is the heterogeneous admissibility bound: a plan for
	// a heterogeneous/hierarchical topology can never claim a better
	// iteration time (the planner's objective: bottleneck time-per-sample
	// scaled by the pipeline-fill term) than the plan for the flat
	// homogeneous topology that dominates it device-for-device and
	// link-for-link (fastest class, fastest link everywhere). Only
	// checked when the run pins a non-default topology. graphpipe only.
	InvHeteroBound Invariant = "hetero-admissibility"
)

// Invariants lists every invariant in check order.
func Invariants() []Invariant {
	return []Invariant{InvAdmissible, InvDeterminism, InvFingerprint, InvParity,
		InvMonotonicity, InvWarmCold, InvHeteroBound}
}

// Failure labels that are not one of the seven invariants: the harness's
// own preconditions. They get distinct labels so Shrink's like-for-like
// predicate can never drift from (say) an admissibility violation onto
// a spec that merely fails to generate or to plan.
const (
	// InvGeneration marks a spec the generator rejected — a synth bug
	// (or a shrink candidate that left the valid range; those are
	// skipped by the minimizer, not reported).
	InvGeneration Invariant = "model-generation"
	// InvPlannerFailure marks a planner erroring on a feasible corpus
	// model (budget exhaustion excepted — that is a skip).
	InvPlannerFailure Invariant = "planner-failure"
)

// Config scopes a conformance run. The zero value checks every
// registered planner and backend at the default device counts.
type Config struct {
	// Planners defaults to every registered planner.
	Planners []string
	// Backends defaults to every registered evaluation backend.
	Backends []string
	// Devices is the cluster size of the single-device-count invariants
	// (default 4: one full Summit node).
	Devices int
	// Topology pins the cluster shape for the run (a models.Topology
	// name); empty selects the Summit preset. A pinned topology describes
	// one cluster at one size, so the device-count sweeps — monotonicity
	// and the devices/2 warm-cold perturbation — are skipped, and the
	// heterogeneous admissibility bound is checked instead.
	Topology string
	// MonotonicityDevices is the ascending device sweep of the
	// monotonicity invariant (default {2, 4}); each point uses the
	// proportional synth.DefaultMiniBatch pairing.
	MonotonicityDevices []int
	// MonotonicityTolerance is the allowed relative throughput loss
	// when devices increase (default 0.02). A strict zero would flag
	// planners for real scheduling noise near the communication
	// crossover, not for bugs.
	MonotonicityTolerance float64
	// StateBudget is planner.Options.StateBudget for every search: it
	// bounds the exhaustive Piper baseline's states+steps so one
	// adversarial seed cannot stall a corpus run (default 5e6; its
	// ErrSearchExplosion is recorded as a skip, not a violation —
	// exceeding the budget is that planner's documented behavior).
	StateBudget int
	// AdmissibilityTolerance is the allowed relative slack of the
	// heterogeneous admissibility bound (default 0.02): the binary search
	// quantizes both sides' bottleneck TPS, so a strict comparison would
	// flag probe granularity, not unsound placement costing.
	AdmissibilityTolerance float64
	// Shrink minimizes failing specs before reporting (default on; the
	// Shrink field disables it for harness tests that want raw specs).
	DisableShrink bool
}

func (c Config) withDefaults() Config {
	if len(c.Planners) == 0 {
		c.Planners = planner.Names()
	}
	if len(c.Backends) == 0 {
		c.Backends = eval.Names()
	}
	if c.Devices == 0 {
		c.Devices = 4
	}
	if len(c.MonotonicityDevices) == 0 {
		c.MonotonicityDevices = []int{2, 4}
	}
	if c.MonotonicityTolerance == 0 {
		c.MonotonicityTolerance = 0.02
	}
	if c.AdmissibilityTolerance == 0 {
		c.AdmissibilityTolerance = 0.02
	}
	if c.StateBudget == 0 {
		c.StateBudget = 5_000_000
	}
	return c
}

// Violation is one invariant failure, carrying everything needed to
// replay it: the spec that failed and the shrunken minimal spec.
type Violation struct {
	Invariant Invariant  `json:"invariant"`
	Planner   string     `json:"planner"`
	Backend   string     `json:"backend,omitempty"`
	Spec      synth.Spec `json:"spec"`
	// Topology is the cluster the run was pinned to (empty: Summit).
	Topology string `json:"topology,omitempty"`
	// Minimal is the smallest spec Shrink found that still fails this
	// (invariant, planner, backend) check; equal to Spec when shrinking
	// is disabled or no smaller spec fails.
	Minimal synth.Spec `json:"minimal_spec"`
	// MinimalTopology is the simplest topology that still fails together
	// with Minimal — the other half of the minimized (model, topology)
	// replay pair. Equal to Topology when no simpler topology fails.
	MinimalTopology string `json:"minimal_topology,omitempty"`
	Detail          string `json:"detail"`
}

func (v Violation) String() string {
	topo := ""
	if v.Topology != "" {
		topo = fmt.Sprintf(", topology %s, minimal topology %s", v.Topology, v.MinimalTopology)
	}
	return fmt.Sprintf("%s[%s%s]: %s (spec %s, minimal %s%s)",
		v.Invariant, v.Planner, optBackend(v.Backend), v.Detail, v.Spec, v.Minimal, topo)
}

func optBackend(b string) string {
	if b == "" {
		return ""
	}
	return "/" + b
}

// Report summarizes a corpus run.
type Report struct {
	// Specs counts corpus specs checked.
	Specs int
	// Families are the distinct families covered.
	Families []string
	// Planners and Backends echo the resolved Config scope.
	Planners []string
	Backends []string
	// Skips records (spec, planner) cells skipped for documented planner
	// limits (Piper's search explosion), so silent holes in coverage are
	// visible in the summary.
	Skips []string
	// Violations lists every invariant failure, minimized.
	Violations []Violation
}

// CheckCorpus runs the full invariant suite over every spec.
func CheckCorpus(specs []synth.Spec, cfg Config) *Report {
	cfg = cfg.withDefaults()
	rep := &Report{Planners: cfg.Planners, Backends: cfg.Backends}
	fams := map[string]bool{}
	for _, spec := range specs {
		rep.Specs++
		fams[spec.Family] = true
		vs, skips := CheckSpec(spec, cfg)
		rep.Violations = append(rep.Violations, vs...)
		rep.Skips = append(rep.Skips, skips...)
	}
	for fam := range fams {
		rep.Families = append(rep.Families, fam)
	}
	sort.Strings(rep.Families)
	return rep
}

// CheckSpec runs all seven invariants for one spec across the config's
// planner × backend grid, shrinking each violation to a minimal spec.
func CheckSpec(spec synth.Spec, cfg Config) ([]Violation, []string) {
	cfg = cfg.withDefaults()
	rs, err := synth.Resolve(spec)
	if err != nil {
		return []Violation{{Invariant: InvGeneration, Spec: spec, Minimal: spec, Detail: err.Error()}}, nil
	}
	var out []Violation
	var skips []string
	for _, pl := range cfg.Planners {
		fails := checkPlanner(rs, pl, cfg)
		for _, f := range fails {
			if f.skip {
				skips = append(skips, fmt.Sprintf("%s on %s: %s", pl, rs, f.detail))
				continue
			}
			v := Violation{
				Invariant: f.invariant, Planner: pl, Backend: f.backend,
				Spec: rs, Topology: cfg.Topology,
				Minimal: rs, MinimalTopology: cfg.Topology, Detail: f.detail,
			}
			if !cfg.DisableShrink {
				// Like-for-like re-run of the same (invariant, backend) cell.
				stillFails := func(cand synth.Spec, topology string) bool {
					c := cfg
					c.Topology = topology
					for _, cf := range checkPlanner(cand, pl, c) {
						if cf.invariant == f.invariant && cf.backend == f.backend && !cf.skip {
							return true
						}
					}
					return false
				}
				// Shrink the model first at the pinned topology, then the
				// topology at the minimized model — the reported pair is the
				// two-sided minimum of that order.
				v.Minimal = Shrink(rs, func(cand synth.Spec) bool {
					return stillFails(cand, cfg.Topology)
				})
				v.MinimalTopology = ShrinkTopology(cfg.Topology, func(topology string) bool {
					return stillFails(v.Minimal, topology)
				})
			}
			out = append(out, v)
		}
	}
	return out, skips
}

// failure is one planner-level check outcome before it is wrapped into
// a Violation (or a skip) by CheckSpec.
type failure struct {
	invariant Invariant
	backend   string
	detail    string
	skip      bool
}

// checkPlanner runs every invariant for one (resolved spec, planner)
// cell and returns the failures. It is the unit Shrink re-runs, so it
// must stay deterministic and reasonably cheap.
func checkPlanner(rs synth.Spec, plannerName string, cfg Config) []failure {
	name := rs.String()
	g, mb, err := models.Build(name, 0, cfg.Devices)
	if err != nil {
		return []failure{{invariant: InvGeneration, detail: fmt.Sprintf("generating model: %v", err)}}
	}
	topo, err := models.Topology(cfg.Topology, cfg.Devices)
	if err != nil {
		return []failure{{invariant: InvGeneration, detail: fmt.Sprintf("resolving topology: %v", err)}}
	}
	canonTopo := topo.Canonical()

	// The base plan doubles as the warm-cold invariant's snapshot source:
	// a sink only observes the search, so attaching it cannot change the
	// base artifact (the determinism variants below re-prove that).
	var snap *memosnap.Snapshot
	baseOpts := planner.Options{Workers: 1, MemoSink: func(s *memosnap.Snapshot) { snap = s }}
	base, baseStats, err := plan(g, topo, plannerName, mb, baseOpts, cfg)
	if err != nil {
		if errors.Is(err, baselines.ErrSearchExplosion) {
			return []failure{{detail: fmt.Sprintf("search budget exhausted (%v)", err), skip: true}}
		}
		return []failure{{invariant: InvPlannerFailure,
			detail: fmt.Sprintf("planner failed on a feasible model: %v", err)}}
	}

	var fails []failure
	record := func(inv Invariant, backend, format string, args ...any) {
		fails = append(fails, failure{invariant: inv, backend: backend, detail: fmt.Sprintf(format, args...)})
	}

	// (a) Admissibility: C1–C4 against the generated graph and topology.
	if err := base.Validate(g, topo); err != nil {
		record(InvAdmissible, "", "strategy fails Validate: %v", err)
	}

	// (c) Determinism: the sequential, parallel, and (for graphpipe)
	// fresh-probe-memo searches must serialize to byte-identical
	// artifacts — search-engineering knobs must never change the answer.
	baseBytes, err := artifactBytes(name, cfg.Devices, canonTopo, mb, plannerName, base)
	if err != nil {
		record(InvFingerprint, "", "encoding artifact: %v", err)
		return fails
	}
	variants := []struct {
		label string
		opts  planner.Options
	}{
		{"parallel search (Workers=4)", planner.Options{Workers: 4}},
		{"repeated sequential search", planner.Options{Workers: 1}},
	}
	if plannerName == "graphpipe" {
		variants = append(variants,
			struct {
				label string
				opts  planner.Options
			}{"fresh-probe-memo search", planner.Options{Workers: 1, FreshProbeMemo: true}})
	}
	for _, v := range variants {
		st, _, err := plan(g, topo, plannerName, mb, v.opts, cfg)
		if err != nil {
			record(InvDeterminism, "", "%s failed: %v", v.label, err)
			continue
		}
		b, err := artifactBytes(name, cfg.Devices, canonTopo, mb, plannerName, st)
		if err != nil {
			record(InvDeterminism, "", "%s: encoding artifact: %v", v.label, err)
			continue
		}
		if !bytes.Equal(b, baseBytes) {
			record(InvDeterminism, "", "%s produced a different artifact than the sequential search", v.label)
		}
	}

	// (h) Heterogeneous admissibility: the plan for a pinned non-default
	// topology may never claim a better iteration time than the plan for
	// the flat homogeneous topology that dominates it (fastest device
	// class, fastest link, everywhere). If it does, the placement-aware
	// costing credited the heterogeneous cluster with capability it does
	// not have. The compared quantity is the planner's own objective —
	// the synchronous iteration estimate, bottleneck time-per-sample
	// scaled by the pipeline-fill term — not the raw bottleneck: a
	// deeper pipeline can trade a lower bottleneck for a longer fill, so
	// bottlenecks alone are not comparable across cluster shapes.
	if plannerName == "graphpipe" && cfg.Topology != "" {
		dom, err := dominatingTopology(topo)
		if err != nil {
			record(InvHeteroBound, "", "building dominating topology: %v", err)
		} else if domSt, domStats, err := plan(g, dom, plannerName, mb,
			planner.Options{Workers: 1}, cfg); err != nil {
			record(InvHeteroBound, "", "planning on the dominating flat topology failed: %v", err)
		} else {
			// Stage 0 holds the source operator, so its in-flight window is
			// the pipeline fill the estimate charges.
			estimate := func(st *strategy.Strategy, bottleneckTPS float64) float64 {
				src := &st.Stages[0]
				return costmodel.IterationEstimate(bottleneckTPS, mb, src.InFlightSamples, src.Config.MicroBatch)
			}
			baseIter := estimate(base, baseStats.BottleneckTPS)
			domIter := estimate(domSt, domStats.BottleneckTPS)
			// The flat search is a heuristic (its DP keeps the in-flight-
			// minimal plan per state), so it can miss pipeline shapes the
			// hetero search was forced into by comm constraints. The bound
			// is therefore the better of the dominating search's own result
			// and the hetero plan's shape re-costed on the dominating
			// cluster: beating both means the placement-aware costing
			// itself was unsound, not merely the flat search incomplete.
			domModel := costmodel.NewDefault(dom)
			recost := 0.0
			for i := range base.Stages {
				stage := &base.Stages[i]
				recost = math.Max(recost, eval.StageCosts(g, domModel, stage).TPS(stage.Config.MicroBatch, mb))
			}
			if re := estimate(base, recost); re < domIter {
				domIter = re
			}
			if baseIter < domIter*(1-cfg.AdmissibilityTolerance) {
				record(InvHeteroBound, "",
					"hetero plan claims %.6g s/iteration, the dominating flat topology only reaches %.6g (tolerance %.0f%%)",
					baseIter, domIter, cfg.AdmissibilityTolerance*100)
			}
		}
	}

	// (d) Fingerprint stability across plan → serialize → load: the
	// decoded artifact hashes to the same identity, re-encodes to the
	// same bytes, and its strategy still validates against a graph
	// rebuilt from metadata alone.
	art := skeletonArtifact(name, cfg.Devices, canonTopo, mb, plannerName, base)
	fpBefore := art.Fingerprint()
	decoded, err := strategy.DecodeArtifact(baseBytes)
	if err != nil {
		record(InvFingerprint, "", "decoding own artifact: %v", err)
	} else {
		if fpAfter := decoded.Fingerprint(); fpAfter != fpBefore {
			record(InvFingerprint, "", "fingerprint drifted across round trip: %s vs %s", fpBefore, fpAfter)
		}
		re, err := strategy.EncodeArtifact(decoded)
		if err != nil {
			record(InvFingerprint, "", "re-encoding: %v", err)
		} else if !bytes.Equal(append(re, '\n'), baseBytes) {
			record(InvFingerprint, "", "artifact bytes changed across decode/encode round trip")
		}
		g2, _, err := models.Build(decoded.Model, decoded.Branches, decoded.Devices)
		if err != nil {
			record(InvFingerprint, "", "rebuilding model from artifact metadata: %v", err)
		} else if err := decoded.Validate(g2, topo); err != nil {
			record(InvFingerprint, "", "round-tripped strategy fails Validate: %v", err)
		}
	}

	// (b) Backend parity: every backend's Report must match the first
	// backend's, field for field (Backend name aside).
	reports := map[string]*eval.Report{}
	for _, be := range cfg.Backends {
		rep, err := evaluate(g, topo, be, base)
		if err != nil {
			record(InvParity, be, "evaluation failed: %v", err)
			continue
		}
		reports[be] = rep
	}
	if ref := reports[cfg.Backends[0]]; ref != nil {
		for _, be := range cfg.Backends[1:] {
			got := reports[be]
			if got == nil {
				continue
			}
			cp := *got
			cp.Backend = ref.Backend
			if !reflect.DeepEqual(&cp, ref) {
				record(InvParity, be, "report differs from %s: %s vs %s throughput %.6g vs %.6g",
					cfg.Backends[0], be, cfg.Backends[0], got.Throughput, ref.Throughput)
			}
		}
	}

	// (e) Monotonicity: sweeping devices up with the proportional
	// mini-batch pairing must not lose throughput on the symmetric
	// default topology. The search depends only on the device count, so
	// each sweep point plans once and every backend evaluates that one
	// strategy. A pinned topology describes one cluster at one size, so
	// the sweep is skipped.
	if cfg.Topology == "" {
		type sweepPoint struct {
			devs int
			topo *cluster.Topology
			st   *strategy.Strategy
		}
		var sweep []sweepPoint
		for _, devs := range cfg.MonotonicityDevices {
			pt := sweepPoint{devs: devs, topo: cluster.NewSummitTopology(devs)}
			dmb := synth.DefaultMiniBatch(devs)
			if devs == cfg.Devices && dmb == mb {
				pt.st = base
			} else {
				st, _, err := plan(g, pt.topo, plannerName, dmb, planner.Options{Workers: 1}, cfg)
				if err != nil {
					if errors.Is(err, baselines.ErrSearchExplosion) {
						fails = append(fails, failure{skip: true,
							detail: fmt.Sprintf("search budget exhausted at %d devices (%v)", devs, err)})
					} else {
						record(InvMonotonicity, "", "planning at %d devices failed: %v", devs, err)
					}
					continue // the sweep simply lacks this point
				}
				pt.st = st
			}
			sweep = append(sweep, pt)
		}
		for _, be := range cfg.Backends {
			prevDevs, prevTP := 0, 0.0
			for _, pt := range sweep {
				rep := reports[be] // parity already evaluated the base point
				if pt.st != base || rep == nil {
					var err error
					rep, err = evaluate(g, pt.topo, be, pt.st)
					if err != nil {
						record(InvMonotonicity, be, "evaluating at %d devices failed: %v", pt.devs, err)
						prevDevs, prevTP = 0, 0
						continue
					}
				}
				if prevDevs > 0 && rep.Throughput < prevTP*(1-cfg.MonotonicityTolerance) {
					record(InvMonotonicity, be,
						"throughput fell from %.6g samples/s at %d devices to %.6g at %d (tolerance %.0f%%)",
						prevTP, prevDevs, rep.Throughput, pt.devs, cfg.MonotonicityTolerance*100)
				}
				prevDevs, prevTP = pt.devs, rep.Throughput
			}
		}
	}

	// (f) Warm≡cold equivalence: replanning a perturbed request (fewer
	// devices — real memo reuse; a doubled mini-batch — no matching
	// search, so the import must silently degrade) warm-started from the
	// base plan's snapshot yields an artifact byte-identical to a cold
	// plan of the same perturbed request. Planners without memoized
	// searches ignore WarmMemo, which is itself the property worth
	// pinning: the option must never perturb their answer. The devices/2
	// replan's export, merged into the base snapshot, then warm-starts a
	// replan at the base device count, which must reproduce the base
	// artifact: a union of snapshots planned on two device counts is as
	// sound as either.
	var halfSnap *memosnap.Snapshot
	perturbations := []struct {
		label    string
		devs, mb int
	}{
		{"devices/2", cfg.Devices / 2, mb},
		{"mini-batch x2", cfg.Devices, 2 * mb},
	}
	if cfg.Topology != "" {
		// A pinned topology cannot be resized; only the same-cluster
		// perturbation applies.
		perturbations = perturbations[1:]
	}
	for _, pt := range perturbations {
		if pt.devs < 1 {
			continue
		}
		ptopo := topo
		if pt.devs != cfg.Devices {
			ptopo = cluster.NewSummitTopology(pt.devs)
		}
		coldSt, _, err := plan(g, ptopo, plannerName, pt.mb, planner.Options{Workers: 1}, cfg)
		if err != nil {
			if errors.Is(err, baselines.ErrSearchExplosion) {
				fails = append(fails, failure{skip: true,
					detail: fmt.Sprintf("search budget exhausted at %s (%v)", pt.label, err)})
			} else {
				record(InvWarmCold, "", "cold plan at %s failed: %v", pt.label, err)
			}
			continue
		}
		warmOpts := planner.Options{Workers: 1,
			WarmMemo: func(memosnap.Key) *memosnap.Snapshot { return snap }}
		if pt.devs != cfg.Devices {
			warmOpts.MemoSink = func(s *memosnap.Snapshot) { halfSnap = s }
		}
		warmSt, _, err := plan(g, ptopo, plannerName, pt.mb, warmOpts, cfg)
		if err != nil {
			record(InvWarmCold, "", "warm plan at %s failed where cold succeeded: %v", pt.label, err)
			continue
		}
		coldBytes, err := artifactBytes(name, pt.devs, ptopo.Canonical(), pt.mb, plannerName, coldSt)
		if err != nil {
			record(InvWarmCold, "", "encoding cold artifact at %s: %v", pt.label, err)
			continue
		}
		warmBytes, err := artifactBytes(name, pt.devs, ptopo.Canonical(), pt.mb, plannerName, warmSt)
		if err != nil {
			record(InvWarmCold, "", "encoding warm artifact at %s: %v", pt.label, err)
			continue
		}
		if !bytes.Equal(warmBytes, coldBytes) {
			record(InvWarmCold, "", "warm-started plan at %s diverged from the cold plan", pt.label)
		}
	}
	if halfSnap != nil {
		union := memosnap.Merge(snap, halfSnap)
		unionOpts := planner.Options{Workers: 1,
			WarmMemo: func(memosnap.Key) *memosnap.Snapshot { return union }}
		unionSt, _, err := plan(g, topo, plannerName, mb, unionOpts, cfg)
		if err != nil {
			record(InvWarmCold, "", "warm plan from the devices/2 union failed where cold succeeded: %v", err)
			return fails
		}
		unionBytes, err := artifactBytes(name, cfg.Devices, canonTopo, mb, plannerName, unionSt)
		if err != nil {
			record(InvWarmCold, "", "encoding the warm artifact from the devices/2 union: %v", err)
		} else if !bytes.Equal(unionBytes, baseBytes) {
			record(InvWarmCold, "", "plan warm-started from the devices/2 union diverged from the cold base plan")
		}
	}
	return fails
}

// plan runs one planner search with the conformance budget applied.
func plan(g *graph.Graph, topo *cluster.Topology, plannerName string, mb int,
	opts planner.Options, cfg Config) (*strategy.Strategy, planner.Stats, error) {
	pl, err := planner.Get(plannerName)
	if err != nil {
		return nil, planner.Stats{}, err
	}
	opts.StateBudget = cfg.StateBudget
	opts.Timeout = time.Minute
	return pl.Plan(g, topo, mb, opts)
}

// dominatingTopology builds the flat homogeneous topology that is
// pointwise at least as capable as t: every device gets the maximum of
// each per-class capability, every pair of devices the fastest link
// bandwidth and the lowest latency appearing anywhere in t's hierarchy.
// Any strategy feasible on t is feasible there at no higher cost, which
// is what makes its planned iteration time an admissible lower bound.
func dominatingTopology(t *cluster.Topology) (*cluster.Topology, error) {
	best := cluster.DeviceClass{Name: "best"}
	for _, c := range t.Classes() {
		best.MemoryBytes = math.Max(best.MemoryBytes, c.MemoryBytes)
		best.PeakFLOPS = math.Max(best.PeakFLOPS, c.PeakFLOPS)
		best.MemBandwidth = math.Max(best.MemBandwidth, c.MemBandwidth)
	}
	bw, lat := 0.0, math.Inf(1)
	for l := 0; l < t.LevelCount(); l++ {
		bw = math.Max(bw, math.Max(t.LevelDown(l), t.LevelUp(l)))
		lat = math.Min(lat, t.LevelLatency(l))
	}
	spec := cluster.Spec{
		Classes: []cluster.DeviceClass{best},
		Levels: []cluster.Level{{Name: "link", Width: t.Len(),
			DownBandwidth: bw, UpBandwidth: bw, Latency: lat}},
		Assign: make([]int, t.Len()),
	}
	return spec.Build()
}

// evaluate runs one backend evaluation.
func evaluate(g *graph.Graph, topo *cluster.Topology, backend string, st *strategy.Strategy) (*eval.Report, error) {
	ev, err := eval.Get(backend)
	if err != nil {
		return nil, err
	}
	return ev.Evaluate(g, topo, st, eval.Options{})
}

// skeletonArtifact wraps a strategy with identity metadata only — no
// wall-clock or DP-state statistics — so two searches that found the
// same strategy serialize to the same bytes.
func skeletonArtifact(model string, devices int, topology string, mb int, plannerName string, st *strategy.Strategy) *strategy.Artifact {
	return &strategy.Artifact{
		Model:     model,
		Devices:   devices,
		Topology:  topology,
		MiniBatch: mb,
		Planner:   strategy.PlannerMeta{Name: plannerName},
		Strategy:  st,
	}
}

// artifactBytes serializes a strategy in the service's on-disk artifact
// framing (trailing newline included).
func artifactBytes(model string, devices int, topology string, mb int, plannerName string, st *strategy.Strategy) ([]byte, error) {
	data, err := strategy.EncodeArtifact(skeletonArtifact(model, devices, topology, mb, plannerName, st))
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
