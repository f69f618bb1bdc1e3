package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/graph"
	"graphpipe/internal/memosnap"
	"graphpipe/internal/memostore"
	"graphpipe/internal/models"
	"graphpipe/internal/planner"
	"graphpipe/internal/strategy"
)

// replanModels are planned cold at 32 devices in set-up; every sweep then
// replans them at each of replanDevices. The sweep stays above 4 devices,
// so every point shares the base plan's inter-node cost regime and can
// warm-start from its memo.
var (
	replanModels  = []string{"mmt", "candle-uno"}
	replanDevices = []int{24, 16, 8}
)

const baseDevices = 32

// minSweeps is how many warm sweeps a timed run makes at least;
// latency_p50_s is their median.
const minSweeps = 3

type basePlan struct {
	model string
	g     *graph.Graph
	mb    int
	snap  *memosnap.Snapshot
}

// replan is one plan of a sweep.
type replan struct {
	model   string
	devices int
	g       *graph.Graph
	topo    *cluster.Topology
	st      *strategy.Strategy
	stats   planner.Stats
}

// sweepLayers collects the traced sweep's per-layer measurements.
type sweepLayers struct {
	cost                *costCounter
	lookupNs, installNs int64
	exported            int // memo entries handed to the sink
	allocMB             float64
}

// planBases plans every model cold at baseDevices, keeping the DP memo
// each base plan exports. A base plan that fails its check counts as a
// failed operation and is kept; a planner error ends the run.
func planBases(b *bench) ([]basePlan, error) {
	pl, err := planner.Get("graphpipe")
	if err != nil {
		return nil, err
	}
	var bases []basePlan
	for _, name := range replanModels {
		g, _, err := models.Build(name, 0, baseDevices)
		if err != nil {
			return nil, err
		}
		mb, err := models.PaperMiniBatch(name, baseDevices)
		if err != nil {
			return nil, err
		}
		topo := cluster.NewSummitTopology(baseDevices)
		base := basePlan{model: name, g: g, mb: mb}
		b.rec.setTrace("warm-replan/setup/" + name)
		end := b.rec.begin("core.plan")
		st, _, err := pl.Plan(g, topo, mb, planner.Options{
			Workers:   1,
			CostModel: costmodel.NewDefault(topo),
			MemoSink:  func(s *memosnap.Snapshot) { base.snap = s },
			Span:      b.rec.hook(),
		})
		end()
		if err != nil {
			b.op(err)
			return nil, err
		}
		_, err = checkStrategy(b.rec, g, topo, st)
		if err == nil && base.snap.Entries() == 0 {
			err = fmt.Errorf("%s base plan exported no memo entries", name)
		}
		b.op(err)
		bases = append(bases, base)
	}
	return bases, nil
}

// sweep replans every base model at each of replanDevices and returns the
// plans and the wall time of the sweep. A warm sweep goes through one
// memory-only memostore.Store wired as the planning service wires it
// (WarmMemo = Lookup, MemoSink = Install) that starts out holding only the
// base snapshots; a cold sweep consults and exports no memo. With layers
// non-nil the sweep is traced.
func sweep(b *bench, bases []basePlan, warm bool, layers *sweepLayers, label string) ([]replan, float64, error) {
	pl, err := planner.Get("graphpipe")
	if err != nil {
		return nil, 0, err
	}
	var rec *recorder
	if layers != nil {
		rec = b.rec
	}
	// Every sweep starts from a collected heap instead of paying for the
	// previous sweep's garbage.
	runtime.GC()
	t0 := time.Now()
	var store *memostore.Store
	if warm {
		if store, err = memostore.New(0, ""); err != nil {
			return nil, 0, err
		}
		for _, base := range bases {
			store.Install(base.snap)
		}
	}
	var plans []replan
	for _, base := range bases {
		for _, d := range replanDevices {
			topo := cluster.NewSummitTopology(d)
			opts := planner.Options{Workers: 1, CostModel: costmodel.NewDefault(topo)}
			if warm {
				opts.WarmMemo, opts.MemoSink = store.Lookup, store.Install
			}
			if layers != nil {
				rec.setTrace(fmt.Sprintf("warm-replan/%s/%s/%d", label, base.model, d))
				opts.CostModel = layers.cost.model(topo)
				opts.Span = rec.hook()
				if warm {
					opts.WarmMemo = func(k memosnap.Key) *memosnap.Snapshot {
						defer addSince(&layers.lookupNs, time.Now())
						return store.Lookup(k)
					}
					opts.MemoSink = func(s *memosnap.Snapshot) {
						layers.exported += s.Entries()
						defer addSince(&layers.installNs, time.Now())
						store.Install(s)
					}
				}
			}
			a0 := allocMB()
			end := rec.begin("core.plan")
			st, stats, err := pl.Plan(base.g, topo, base.mb, opts)
			end()
			if layers != nil {
				layers.allocMB += allocMB() - a0
			}
			if err != nil {
				b.op(err)
				return nil, 0, fmt.Errorf("replanning %s at %d devices: %w", base.model, d, err)
			}
			plans = append(plans, replan{model: base.model, devices: d, g: base.g, topo: topo, st: st, stats: stats})
		}
	}
	return plans, time.Since(t0).Seconds(), nil
}

func addSince(ns *int64, t0 time.Time) { *ns += int64(time.Since(t0)) }

// checkSweep runs the output check on every plan of a sweep and returns
// the simulated throughputs of those that passed, keyed by model and
// device count.
func checkSweep(b *bench, plans []replan) map[string]float64 {
	sps := map[string]float64{}
	for _, p := range plans {
		v, err := checkStrategy(b.rec, p.g, p.topo, p.st)
		b.op(err)
		if err == nil {
			sps[fmt.Sprintf("%s@%d", p.model, p.devices)] = v
		}
	}
	return sps
}

func runWarmReplan(b *bench) error {
	t0 := time.Now()
	bases, err := planBases(b)
	if err != nil {
		return err
	}
	setup := time.Since(t0).Seconds()
	if b.tracing {
		return tracedWarmReplan(b, bases)
	}
	b.set("setup_s", "s", setup)
	b.sampled("setup_s", 1)

	var sweeps []float64
	sps := map[string]float64{}
	warmHits, replans := 0, 0
	start := time.Now()
	_, err = repeatWithin(b.budget, minSweeps, func() error {
		plans, wall, err := sweep(b, bases, true, nil, "")
		if err != nil {
			return err
		}
		sweeps = append(sweeps, wall)
		replans += len(plans)
		for k, v := range checkSweep(b, plans) {
			if prev, ok := sps[k]; ok && prev != v {
				b.op(fmt.Errorf("%s: throughput %v, earlier sweep %v", k, v, prev))
			}
			sps[k] = v
		}
		for _, p := range plans {
			if p.stats.MemoWarmStarted {
				warmHits++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	phase := time.Since(start).Seconds()
	// The sweep is the unit the client waits for; its median is also
	// noted by the name replan_s.
	b.set("latency_p50_s", "s", median(sweeps))
	b.sampled("latency_p50_s", len(sweeps))
	b.note("replan_s", median(sweeps))
	b.set("serve_rps", "req/s", float64(replans)/phase)
	b.noteUnits("sweep_s", sweeps)
	b.note("warm_started_plans", warmHits)
	// In a fixed order, so that the floating-point product is the same in
	// every run.
	keys := make([]string, 0, len(sps))
	for k := range sps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var tputs []float64
	for _, k := range keys {
		tputs = append(tputs, sps[k])
	}
	g, err := geomean(tputs)
	if err != nil {
		return err
	}
	b.set("plan_sps", "samples/s", g)
	b.note("replan_sps", sps)
	return nil
}

// tracedWarmReplan alternates cold and untraced warm sweeps while the
// budget lasts, then runs one traced warm sweep. The cold sweeps give the
// warm-start speedup and the byte-identity check; the traced sweep gives
// the per-layer metrics.
func tracedWarmReplan(b *bench, bases []basePlan) error {
	var coldTimes, warmTimes []float64
	_, err := repeatWithin(b.budget, 1, func() error {
		cold, coldWall, err := sweep(b, bases, false, nil, "")
		if err != nil {
			return err
		}
		warm, warmWall, err := sweep(b, bases, true, nil, "")
		if err != nil {
			return err
		}
		coldTimes = append(coldTimes, coldWall)
		warmTimes = append(warmTimes, warmWall)
		for i := range warm {
			b.op(sameStrategy(warm[i], cold[i]))
		}
		return nil
	})
	if err != nil {
		return err
	}

	layers := &sweepLayers{cost: &costCounter{}}
	plans, tracedWall, err := sweep(b, bases, true, layers, "traced")
	if err != nil {
		return err
	}
	sweepSpans := spansWithPrefix(b.rec.spans, "warm-replan/traced/")
	b.rec.setTrace("warm-replan/check")
	checkSweep(b, plans)

	var states, reused float64
	for _, p := range plans {
		states += float64(p.stats.DPStates)
		reused += float64(p.stats.MemoEntriesReused)
	}
	b.set("core.dp_states", "count", states)
	b.set("core.alloc_mb", "MB", layers.allocMB)
	setCoreSpanMetrics(b, sweepSpans, states)
	setCostMetrics(b, map[string]*costCounter{"graphpipe": layers.cost})
	setEvalSpanMetrics(b, b.rec.spans)
	b.set("memosnap.entries", "count", float64(layers.exported))
	b.set("memosnap.entries_reused", "count", reused)
	b.set("memostore.lookup_s", "s", time.Duration(layers.lookupNs).Seconds())
	b.set("memostore.install_s", "s", time.Duration(layers.installNs).Seconds())
	b.set("memosnap.warm_speedup", "ratio", median(coldTimes)/median(warmTimes))
	b.sampled("memosnap.warm_speedup", len(warmTimes))
	b.noteUnits("cold_sweep_s", coldTimes)
	b.noteUnits("warm_sweep_s", warmTimes)
	b.set("obs.spans_per_request", "count", float64(len(sweepSpans))/float64(len(plans)))
	b.set("obs.trace_overhead", "s", tracedWall-median(warmTimes))
	b.note("trace_overhead_base_s", median(warmTimes))

	// The disk tier's cost of the base snapshots: encode, decode, size.
	var encMB, encS, decS float64
	for _, base := range bases {
		if base.snap == nil {
			continue // counted as failed when its base plan was checked
		}
		t0 := time.Now()
		data := memosnap.Encode(base.snap)
		encS += time.Since(t0).Seconds()
		t0 = time.Now()
		back, err := memosnap.Decode(data)
		decS += time.Since(t0).Seconds()
		if err == nil && back.Entries() != base.snap.Entries() {
			err = fmt.Errorf("%s snapshot: decoded %d entries, encoded %d", base.model, back.Entries(), base.snap.Entries())
		}
		b.op(err)
		encMB += float64(len(data)) / (1 << 20)
	}
	b.set("memosnap.encoded_mb", "MB", encMB)
	b.set("memosnap.encode_s", "s", encS)
	b.set("memosnap.decode_s", "s", decS)
	return nil
}

// sameStrategy reports whether a warm replan serialized to the same bytes
// as the cold replan of the same question.
func sameStrategy(warm, cold replan) error {
	w, err := json.Marshal(warm.st)
	if err != nil {
		return err
	}
	c, err := json.Marshal(cold.st)
	if err != nil {
		return err
	}
	if string(w) != string(c) {
		return fmt.Errorf("%s at %d devices: warm strategy differs from the cold one", warm.model, warm.devices)
	}
	return nil
}

func spansWithPrefix(spans []span, prefix string) []span {
	var out []span
	for _, s := range spans {
		if strings.HasPrefix(s.Trace, prefix) {
			out = append(out, s)
		}
	}
	return out
}
