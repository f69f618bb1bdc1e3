package main

import (
	"fmt"
	"runtime"
	"time"

	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/graph"
	"graphpipe/internal/models"
	"graphpipe/internal/planner"
)

// coldCell is one fixed evaluation cell of cold-search.
type coldCell struct {
	name      string // suffix of the cell's per-layer metrics
	build     func() *graph.Graph
	topology  string // models.Topology name; "" is the Summit preset
	devices   int
	miniBatch int
	planners  []string
}

var bothPlanners = []string{"graphpipe", "pipedream"}

// coldCells are the paper's evaluation cells, sized so that a pass takes
// about six seconds and every run repeats each cell at least minPasses
// times. MMT@16 is where the GraphPipe DP dominates, CANDLE-Uno@16 where
// PipeDream's cost-model work does, and the hetero-speed cluster exercises
// placement-aware costing. Piper runs only on the Table 1 two-branch MMT,
// the largest model it solves in about a second. The 32-device cells
// (MMT@32 alone is a 10 s GraphPipe search), DLRM and the A.3 sequential
// Transformer (2 s at 8 devices) are left out for run length.
var coldCells = []coldCell{
	{"mmt16", mmt(0), "", 16, 256, bothPlanners},
	{"candle16", candle, "", 16, 16384, bothPlanners},
	{"mmt2b8", mmt(2), "", 8, 128, []string{"piper"}},
	{"candle8-hetero", candle, "topo:hetero-speed/seed=7", 8, 8192, bothPlanners},
}

func mmt(branches int) func() *graph.Graph {
	return func() *graph.Graph {
		cfg := models.DefaultMMTConfig()
		if branches > 0 {
			cfg.Branches = branches
		}
		return models.MMT(cfg)
	}
}

func candle() *graph.Graph { return models.CANDLEUno(models.DefaultCANDLEUnoConfig()) }

// minPasses is how many passes a run makes at least, so that every cell's
// time is a median of several searches, one from each pass.
const minPasses = 3

// setupReps is how often cold-search builds its inputs. Building them
// takes about 0.2 ms, so one build's timing is mostly noise; the median of
// a thousand is steady.
const setupReps = 1000

type coldInput struct {
	coldCell
	g    *graph.Graph
	topo *cluster.Topology
}

func buildColdInputs() ([]coldInput, error) {
	inputs := make([]coldInput, len(coldCells))
	for i, c := range coldCells {
		topo, err := models.Topology(c.topology, c.devices)
		if err != nil {
			return nil, err
		}
		inputs[i] = coldInput{coldCell: c, g: c.build(), topo: topo}
	}
	return inputs, nil
}

// coldRun is one Plan call of a pass.
type coldRun struct {
	cell, planner string
	seconds       float64
	stats         planner.Stats
	allocMB       float64
	sps           float64 // simulated throughput of the plan; 0 if it failed its check
}

// coldPass runs every planner once on each of its cells, checking every
// strategy. A strategy that fails its check counts as a failed operation
// and leaves its cell's throughput out; a planner error ends the run. With
// cost non-nil (traced passes) each planner's cost model reports into
// cost[planner], and the pass records spans and allocations.
func coldPass(b *bench, inputs []coldInput, cost map[string]*costCounter, pass int) ([]coldRun, error) {
	var runs []coldRun
	for _, in := range inputs {
		for _, name := range in.planners {
			pl, err := planner.Get(name)
			if err != nil {
				return nil, err
			}
			opts := planner.Options{Workers: 1, CostModel: costmodel.NewDefault(in.topo)}
			var rec *recorder
			if cost != nil {
				rec = b.rec
				opts.CostModel = cost[name].model(in.topo)
				opts.Span = rec.hook()
				rec.setTrace(fmt.Sprintf("cold-search/%d/%s/%s", pass, in.name, name))
			}
			// Every search starts from a collected heap, as in a fresh
			// process, instead of paying for its predecessor's garbage.
			runtime.GC()
			a0 := allocMB()
			end := rec.begin(layerOf(name) + ".plan")
			t0 := time.Now()
			st, stats, err := pl.Plan(in.g, in.topo, in.miniBatch, opts)
			d := time.Since(t0).Seconds()
			end()
			if err != nil {
				b.op(err)
				return nil, fmt.Errorf("%s on %s: %w", name, in.name, err)
			}
			run := coldRun{cell: in.name, planner: name, seconds: d, stats: stats, allocMB: allocMB() - a0}
			run.sps, err = checkStrategy(rec, in.g, in.topo, st)
			b.op(err)
			runs = append(runs, run)
		}
	}
	return runs, nil
}

func runColdSearch(b *bench) error {
	var inputs []coldInput
	setup := make([]float64, setupReps)
	for i := range setup {
		t0 := time.Now()
		var err error
		if inputs, err = buildColdInputs(); err != nil {
			return err
		}
		setup[i] = time.Since(t0).Seconds()
	}
	if b.tracing {
		return tracedColdSearch(b, inputs)
	}
	b.set("setup_s", "s", median(setup))
	b.sampled("setup_s", len(setup))

	var runs []coldRun
	pass := 0
	start := time.Now()
	passTimes, err := repeatWithin(b.budget, minPasses, func() error {
		r, err := coldPass(b, inputs, nil, pass)
		pass++
		runs = append(runs, r...)
		return err
	})
	if err != nil {
		return err
	}
	phase := time.Since(start).Seconds()
	b.noteUnits("pass_s", passTimes)

	times := map[string]map[string][]float64{}
	sps := map[string]float64{}
	for _, r := range runs {
		if times[r.planner] == nil {
			times[r.planner] = map[string][]float64{}
		}
		times[r.planner][r.cell] = append(times[r.planner][r.cell], r.seconds)
		if r.planner != "graphpipe" || r.sps == 0 {
			continue
		}
		if prev, ok := sps[r.cell]; ok && prev != r.sps {
			b.op(fmt.Errorf("graphpipe on %s: throughput %v, earlier pass %v", r.cell, r.sps, prev))
		}
		sps[r.cell] = r.sps
	}
	// The pass the client waits for takes each of its searches' median
	// over the run's passes; each planner's share is noted by the names
	// graphpipe_search_s, pipedream_search_s and piper_search_s.
	sums := map[string]float64{}
	var passS float64
	for _, name := range []string{"graphpipe", "pipedream", "piper"} {
		n := 0
		for _, ts := range times[name] {
			sums[name] += median(ts)
			n = len(ts)
		}
		passS += sums[name]
		b.note(name+"_search_s", sums[name])
		b.sampled(name+"_search_s", n)
	}
	b.set("latency_p50_s", "s", passS)
	b.sampled("latency_p50_s", len(passTimes))
	b.set("serve_rps", "req/s", float64(len(runs))/phase)
	var tputs []float64
	cellSPS := map[string]float64{}
	for _, in := range inputs {
		if v, ok := sps[in.name]; ok {
			tputs = append(tputs, v)
			cellSPS[in.name] = v
		}
	}
	g, err := geomean(tputs)
	if err != nil {
		return err
	}
	b.set("plan_sps", "samples/s", g)
	b.note("graphpipe_sps", cellSPS)
	b.note("plan_s", times)
	b.note("control_ratio_graphpipe_over_pipedream", sums["graphpipe"]/sums["pipedream"])
	return nil
}

// tracedColdSearch runs one traced pass, which gives the per-layer
// metrics, and one untraced pass, whose plan times the traced ones are
// compared with.
func tracedColdSearch(b *bench, inputs []coldInput) error {
	cost := map[string]*costCounter{"graphpipe": {}, "pipedream": {}, "piper": {}}
	traced, err := coldPass(b, inputs, cost, 0)
	if err != nil {
		return err
	}
	plain, err := coldPass(b, inputs, nil, 1)
	if err != nil {
		return err
	}

	states, alloc := map[string]float64{}, map[string]float64{}
	var tracedTotal, plainTotal float64
	for _, r := range traced {
		tracedTotal += r.seconds
		layer := layerOf(r.planner)
		if layer != "piper" {
			b.set(layer+".search_s."+r.cell, "s", r.seconds)
		}
		states[layer] += float64(r.stats.DPStates)
		alloc[layer] += r.allocMB
	}
	for _, r := range plain {
		plainTotal += r.seconds
	}
	for layer := range states {
		b.set(layer+".dp_states", "count", states[layer])
		b.set(layer+".alloc_mb", "MB", alloc[layer])
	}
	setCoreSpanMetrics(b, b.rec.spans, states["core"])
	setCostMetrics(b, cost)
	setEvalSpanMetrics(b, b.rec.spans)
	b.set("obs.spans_per_request", "count", float64(len(b.rec.spans))/float64(len(traced)))
	b.set("obs.trace_overhead", "s", tracedTotal-plainTotal)
	b.note("trace_overhead_base_s", plainTotal)
	return nil
}

// layerOf names the module a planner lives in: GraphPipe's planner is the
// core package.
func layerOf(planner string) string {
	if planner == "graphpipe" {
		return "core"
	}
	return planner
}

// setCoreSpanMetrics derives the core planner's per-layer metrics from the
// spans of GraphPipe Plan calls: the planner's own phase spans (dp.probe
// inside search.micro-batch, memo.import and memo.export) under the
// benchmark's core.plan span.
func setCoreSpanMetrics(b *bench, spans []span, dpStates float64) {
	t := byName(spans)
	if lt := t["dp.probe"]; lt != nil {
		b.set("core.probes", "count", float64(lt.count))
		b.set("core.probe_s", "s", lt.total)
		if lt.total > 0 {
			b.set("core.states_per_s", "1/s", dpStates/lt.total)
		}
	}
	if lt := t["core.plan"]; lt != nil {
		b.set("core.prep_s", "s", lt.self)
	}
	if lt := t["memo.export"]; lt != nil {
		b.set("memosnap.export_s", "s", lt.total)
	}
	if lt := t["memo.import"]; lt != nil {
		b.set("memosnap.import_s", "s", lt.total)
	}
}

// setEvalSpanMetrics reports the mean time of one Evaluate call per
// backend.
func setEvalSpanMetrics(b *bench, spans []span) {
	t := byName(spans)
	for _, backend := range []string{"sim", "runtime"} {
		if lt := t["eval."+backend]; lt != nil && lt.count > 0 {
			b.set("eval."+backend+"_s", "s", lt.total/float64(lt.count))
			b.sampled("eval."+backend+"_s", lt.count)
		}
	}
}

// setCostMetrics sums the cost-model counters over planners and notes
// each planner's share, with the bases of every ratio.
func setCostMetrics(b *bench, cost map[string]*costCounter) {
	var calls, lookups, misses, busy int64
	per := map[string]any{}
	for name, c := range cost {
		calls += c.calls.Load()
		lookups += c.lookups.Load()
		misses += c.misses.Load()
		busy += c.busyNs.Load()
		per[name] = map[string]any{
			"calls": c.calls.Load(), "lookups": c.lookups.Load(), "misses": c.misses.Load(),
			"self_s": time.Duration(c.busyNs.Load()).Seconds(),
		}
	}
	b.set("costmodel.calls", "count", float64(calls))
	b.set("costmodel.self_s", "s", time.Duration(busy).Seconds())
	if lookups > 0 {
		b.set("costmodel.cache_hit_ratio", "ratio", 1-float64(misses)/float64(lookups))
	}
	b.note("costmodel_by_planner", per)
	b.note("costmodel_cache_lookups", lookups)
}
