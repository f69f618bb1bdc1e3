// Command graphpipe plans pipeline-parallel training strategies for the
// paper's evaluation models, persists them as versioned JSON artifacts,
// and (re-)evaluates them on any registered evaluation backend.
//
// Planners are resolved by name through the planner registry and
// evaluation backends through the eval registry, so a plan can be
// produced once, written to disk, and replayed anywhere:
//
//	graphpipe plan -model mmt -devices 8 -batch 128 -o plan.json
//	graphpipe eval plan.json                  # simulator backend
//	graphpipe eval -backend runtime plan.json # concurrent runtime backend
//	graphpipe compare plan.json other.json    # side-by-side table
//
// Synthetic models (internal/synth) are first-class: any -model flag
// accepts a "synth:" spec, and the synth subcommand generates,
// describes, and replays seeded models:
//
//	graphpipe synth -family fanout -seed 42        # generate + summary
//	graphpipe synth -spec synth:fanout/seed=42 -describe
//	graphpipe plan -model synth:fanout/seed=42 -devices 4
//
// Usage:
//
//	graphpipe plan [-model M] [-devices N] [-batch B] [-planner P]
//	               [-branches N] [-micro B] [-workers N] [-backend E]
//	               [-cpuprofile F] [-memprofile F] [-warm-memo F]
//	               [-o plan.json] [-gantt] [-verbose]
//	graphpipe eval [-backend E] [-timeout D] [-gantt] [-verbose]
//	               [-cpuprofile F] [-memprofile F] plan.json
//	graphpipe compare [-backend E] plan.json [plan2.json ...]
//	graphpipe synth [-family F -seed N | -spec S] [-depth N]
//	                [-branches N] [-skew F] [-nesting N] [-devices N]
//	                [-describe] [-dump] [-o spec.json]
//
// The -cpuprofile/-memprofile flags write pprof profiles covering the
// subcommand's work (planning plus evaluation), so planner hot spots are
// diagnosable with `go tool pprof` without editing code.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"graphpipe/internal/cluster"
	"graphpipe/internal/eval"
	"graphpipe/internal/graph"
	"graphpipe/internal/memosnap"
	"graphpipe/internal/models"
	"graphpipe/internal/planner"
	"graphpipe/internal/strategy"
	"graphpipe/internal/synth"
	"graphpipe/internal/trace"

	_ "graphpipe/internal/eval/all"    // register the built-in backends
	_ "graphpipe/internal/planner/all" // register the built-in planners
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// usageError marks misuse of the command line — unknown subcommand or
// flag, wrong positional arguments — as opposed to a failure while doing
// the requested work. Misuse exits 2 with a usage message; runtime
// failures exit 1. Every misuse path funnels through this one type, so
// the two classes cannot drift apart again as subcommands are added.
type usageError struct {
	err error
	// printed means the flag set already wrote the diagnostic and its
	// flag listing to stderr; run then only sets the exit code, instead
	// of repeating the error and stacking a second usage text on top.
	printed bool
}

func (e usageError) Error() string { return e.err.Error() }

func usageErrorf(format string, args ...any) error {
	return usageError{err: fmt.Errorf(format, args...)}
}

// run dispatches a full command line and returns the process exit code.
// It is main minus os.Exit, so the CLI smoke tests can drive every
// misuse and success path in-process.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		fmt.Fprintln(stderr, "graphpipe: missing subcommand")
		usage(stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "plan":
		err = cmdPlan(args[1:], stdout, stderr)
	case "eval":
		err = cmdEval(args[1:], stdout, stderr)
	case "compare":
		err = cmdCompare(args[1:], stdout, stderr)
	case "synth":
		err = cmdSynth(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "graphpipe: unknown subcommand %q\n\n", args[0])
		usage(stderr)
		return 2
	}
	var ue usageError
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		// The flag set already printed its defaults.
		return 0
	case errors.As(err, &ue):
		if !ue.printed {
			fmt.Fprintf(stderr, "graphpipe: %v\n\n", err)
			usage(stderr)
		}
		return 2
	default:
		fmt.Fprintln(stderr, "graphpipe:", err)
		return 1
	}
}

// parseFlags parses a subcommand's flags, converting flag-package errors
// (unknown flag, malformed value) into usageErrors while passing -h's
// flag.ErrHelp through untouched.
func parseFlags(fs *flag.FlagSet, stderr io.Writer, args []string) error {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err: err, printed: true}
	}
	return nil
}

// profileFlags registers -cpuprofile/-memprofile on a subcommand's flag
// set and returns a start function; the stop function it yields finishes
// both profiles and must run before the process exits.
func profileFlags(fs *flag.FlagSet) (start func() (stop func() error, err error)) {
	cpu := fs.String("cpuprofile", "", "write a CPU profile of this run to the file")
	mem := fs.String("memprofile", "", "write a heap profile at the end of this run to the file")
	return func() (func() error, error) {
		var cpuFile *os.File
		if *cpu != "" {
			f, err := os.Create(*cpu)
			if err != nil {
				return nil, fmt.Errorf("cpuprofile: %w", err)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return nil, fmt.Errorf("cpuprofile: %w", err)
			}
			cpuFile = f
		}
		memPath := *mem
		return func() error {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				if err := cpuFile.Close(); err != nil {
					return fmt.Errorf("cpuprofile: %w", err)
				}
			}
			if memPath != "" {
				f, err := os.Create(memPath)
				if err != nil {
					return fmt.Errorf("memprofile: %w", err)
				}
				defer f.Close()
				runtime.GC() // materialize the live heap before snapshotting
				if err := pprof.WriteHeapProfile(f); err != nil {
					return fmt.Errorf("memprofile: %w", err)
				}
			}
			return nil
		}, nil
	}
}

func usage(w io.Writer) {
	fmt.Fprintf(w, `graphpipe plans, persists, and evaluates pipeline-parallel strategies.

Subcommands:
  plan      discover a strategy and optionally write it as a JSON artifact
  eval      load an artifact and evaluate it on a registered backend
  compare   evaluate several artifacts side by side
  synth     generate, describe, or replay a seeded synthetic model

Planners:  %s
Backends:  %s
Models:    %s
Synth:     synth:<family>/seed=N with families %s

Run 'graphpipe <subcommand> -h' for flags.
`, strings.Join(planner.Names(), " | "), strings.Join(eval.Names(), " | "),
		strings.Join(models.Names(), " | "), strings.Join(synth.Families(), " | "))
}

// cmdPlan plans a strategy, evaluates it once for the summary, and
// optionally persists the artifact (with the evaluation recorded in its
// metadata, so a later re-evaluation can be diffed against plan time).
func cmdPlan(args []string, stdout, stderr io.Writer) (retErr error) {
	fs := flag.NewFlagSet("plan", flag.ContinueOnError)
	startProf := profileFlags(fs)
	var (
		modelName   = fs.String("model", "mmt", "model: "+strings.Join(models.Names(), " | "))
		plannerName = fs.String("planner", "graphpipe",
			"planner: "+strings.Join(planner.Names(), " | "))
		devices  = fs.Int("devices", 8, "number of devices (GPUs)")
		topology = fs.String("topology", "",
			"cluster topology: a preset ("+strings.Join(cluster.PresetNames(), " | ")+
				"), an explicit topo:explicit/... spec, or a synth family topo:{"+
				strings.Join(synth.TopoFamilies(), ",")+"}/seed=N (default: summit)")
		batch    = fs.Int("batch", 0, "mini-batch size (default: the paper's size for the device count)")
		branches = fs.Int("branches", 0, "override the model's branch count")
		micro    = fs.Int("micro", 0, "force a fixed micro-batch size")
		workers  = fs.Int("workers", 0, "planning worker pool size (0: one per CPU, 1: sequential)")
		backend  = fs.String("backend", "sim", "evaluation backend: "+strings.Join(eval.Names(), " | "))
		out      = fs.String("o", "", "write the strategy artifact to this file")
		warmMemo = fs.String("warm-memo", "",
			"DP memo snapshot file: warm-start from it when compatible, then rewrite it with this search's memo merged in (graphpipe only)")
		gantt   = fs.Bool("gantt", false, "print the pipeline schedule as an ASCII gantt chart")
		verbose = fs.Bool("verbose", false, "print the full stage listing")
	)
	if err := parseFlags(fs, stderr, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usageErrorf("plan: unexpected arguments: %v", fs.Args())
	}
	stopProf, err := startProf()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()

	g, defBatch, err := models.Build(*modelName, *branches, *devices)
	if err != nil {
		return err
	}
	modelID := *modelName
	if synth.IsSpec(modelID) {
		// Persist the *resolved* spec (the graph's name): it pins every
		// derived knob, so the artifact rebuilds this exact graph even if
		// a family's seed-derivation ranges change in a later version.
		modelID = g.Name()
	}
	mb := *batch
	if mb == 0 {
		mb = defBatch
	}

	pl, err := planner.Get(*plannerName)
	if err != nil {
		return err
	}
	ev, err := eval.Get(*backend)
	if err != nil {
		return err
	}
	topo, err := models.Topology(*topology, *devices)
	if err != nil {
		return err
	}
	popts := planner.Options{
		ForcedMicroBatch: *micro,
		Workers:          *workers,
	}
	// A warm-memo file is a cache, never a source of truth: a missing,
	// corrupt, or incompatible snapshot degrades to a cold plan (with a
	// warning), and the file is rewritten after the search either way.
	var loadedMemo, exportedMemo *memosnap.Snapshot
	if *warmMemo != "" {
		if data, err := os.ReadFile(*warmMemo); err == nil {
			if loadedMemo, err = memosnap.Decode(data); err != nil {
				fmt.Fprintf(stderr, "graphpipe: ignoring %s: %v (planning cold)\n", *warmMemo, err)
			}
		} else if !os.IsNotExist(err) {
			fmt.Fprintf(stderr, "graphpipe: ignoring %s: %v (planning cold)\n", *warmMemo, err)
		}
		popts.WarmMemo = func(memosnap.Key) *memosnap.Snapshot { return loadedMemo }
		popts.MemoSink = func(s *memosnap.Snapshot) { exportedMemo = s }
	}

	start := time.Now()
	st, stats, err := pl.Plan(g, topo, mb, popts)
	if err != nil {
		return err
	}
	searchTime := time.Since(start)

	rep, err := ev.Evaluate(g, topo, st, eval.Options{})
	if err != nil {
		return err
	}

	// The artifact is built whether or not it is persisted: its
	// fingerprint is the plan's cache identity, printed so CLI users and
	// the graphpiped daemon (which hashes requests the same way, via
	// strategy.Artifact.Fingerprint) can look each other's plans up.
	art := &strategy.Artifact{
		Model:     modelID,
		Branches:  *branches,
		Devices:   *devices,
		Topology:  topo.Canonical(),
		MiniBatch: mb,
		Planner: strategy.PlannerMeta{
			Name:              pl.Name(),
			SearchSeconds:     searchTime.Seconds(),
			DPStates:          stats.DPStates,
			BinaryIters:       stats.BinaryIters,
			WarmStarted:       stats.MemoWarmStarted,
			MemoEntriesReused: stats.MemoEntriesReused,
		},
		Options: strategy.PlanOptions{ForcedMicroBatch: *micro},
		Evals: []strategy.EvalMeta{{
			Backend:       rep.Backend,
			IterationTime: rep.IterationTime,
			Throughput:    rep.Throughput,
		}},
		Strategy: st,
	}

	fmt.Fprintf(stdout, "model      %s (%d ops)\n", g.Name(), g.Len())
	fmt.Fprintf(stdout, "devices    %d   mini-batch %d\n", *devices, mb)
	fmt.Fprintf(stdout, "planner    %s   search %.3fs   dp-states %d\n",
		pl.Name(), searchTime.Seconds(), stats.DPStates)
	if *warmMemo != "" {
		if stats.MemoWarmStarted {
			fmt.Fprintf(stdout, "memo       warm (%d entries reused)\n", stats.MemoEntriesReused)
		} else {
			fmt.Fprintf(stdout, "memo       cold\n")
		}
	}
	fmt.Fprintf(stdout, "backend    %s\n", rep.Backend)
	fmt.Fprintf(stdout, "fingerprint %s\n", art.Fingerprint())
	fmt.Fprintf(stdout, "result     %s\n", trace.Summary(st, rep))
	printDetails(stdout, st, rep, *verbose, *gantt)

	if *out != "" {
		data, err := strategy.EncodeArtifact(art)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "artifact   %s (version %d, %d bytes)\n", *out, art.Version, len(data)+1)
	}
	if *warmMemo != "" && exportedMemo != nil {
		merged := memosnap.Merge(loadedMemo, exportedMemo)
		if err := writeFileAtomic(*warmMemo, memosnap.Encode(merged)); err != nil {
			return fmt.Errorf("writing memo snapshot: %w", err)
		}
		fmt.Fprintf(stdout, "memo-file  %s (%d entries)\n", *warmMemo, merged.Entries())
	}
	return nil
}

// writeFileAtomic writes via temp file + rename, so an interrupted run
// never leaves a torn snapshot for the next one to trip over.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// loadArtifact reads, decodes, and fully checks an artifact: version,
// planner name against the registry, and strategy validity (C1–C4)
// against the rebuilt graph and topology. It returns everything eval and
// compare need to replay the plan.
func loadArtifact(path string) (*strategy.Artifact, *graph.Graph, *cluster.Topology, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, nil, err
	}
	art, err := strategy.DecodeArtifact(data)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := art.CheckPlanner(planner.Names()); err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	g, _, err := models.Build(art.Model, art.Branches, art.Devices)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	topo, err := models.Topology(art.Topology, art.Devices)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := art.Validate(g, topo); err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return art, g, topo, nil
}

// cmdEval loads a persisted plan and evaluates it on the selected
// backend, reporting drift against the evaluations recorded at plan time.
func cmdEval(args []string, stdout, stderr io.Writer) (retErr error) {
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	startProf := profileFlags(fs)
	var (
		backend = fs.String("backend", "sim", "evaluation backend: "+strings.Join(eval.Names(), " | "))
		timeout = fs.Duration("timeout", 0, "wall-clock deadlock guard for concurrent backends (0: backend default)")
		gantt   = fs.Bool("gantt", false, "print the pipeline schedule as an ASCII gantt chart")
		verbose = fs.Bool("verbose", false, "print the full stage listing")
	)
	if err := parseFlags(fs, stderr, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usageErrorf("eval: want exactly one artifact file, got %d", fs.NArg())
	}
	stopProf, err := startProf()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()

	ev, err := eval.Get(*backend)
	if err != nil {
		return err
	}
	art, g, topo, err := loadArtifact(fs.Arg(0))
	if err != nil {
		return err
	}
	rep, err := ev.Evaluate(g, topo, art.Strategy, eval.Options{Timeout: *timeout})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "artifact   %s (version %d)\n", fs.Arg(0), art.Version)
	fmt.Fprintf(stdout, "model      %s (%d ops)   devices %d   mini-batch %d\n",
		g.Name(), g.Len(), art.Devices, art.Strategy.MiniBatch)
	fmt.Fprintf(stdout, "planner    %s   search %.3fs\n", art.Planner.Name, art.Planner.SearchSeconds)
	fmt.Fprintf(stdout, "backend    %s\n", rep.Backend)
	fmt.Fprintf(stdout, "fingerprint %s\n", art.Fingerprint())
	fmt.Fprintf(stdout, "result     %s\n", trace.Summary(art.Strategy, rep))
	for _, em := range art.Evals {
		drift := 0.0
		if em.Throughput > 0 {
			drift = (rep.Throughput - em.Throughput) / em.Throughput * 100
		}
		fmt.Fprintf(stdout, "recorded   %s: %.4g samples/s at plan time (drift %+.2f%%)\n",
			em.Backend, em.Throughput, drift)
	}
	printDetails(stdout, art.Strategy, rep, *verbose, *gantt)
	return nil
}

// cmdCompare evaluates several artifacts on one backend and prints them
// side by side — the "which plan do we ship" table.
func cmdCompare(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	backend := fs.String("backend", "sim", "evaluation backend: "+strings.Join(eval.Names(), " | "))
	if err := parseFlags(fs, stderr, args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return usageErrorf("compare: want at least one artifact file")
	}
	ev, err := eval.Get(*backend)
	if err != nil {
		return err
	}

	table := trace.NewCSV("artifact", "model", "planner", "devices", "mini_batch",
		"stages", "depth", "iteration_s", "samples_per_s", "peak_mem_gb")
	throughputs := make([]float64, fs.NArg())
	for i := 0; i < fs.NArg(); i++ {
		path := fs.Arg(i)
		art, g, topo, err := loadArtifact(path)
		if err != nil {
			return err
		}
		rep, err := ev.Evaluate(g, topo, art.Strategy, eval.Options{})
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		throughputs[i] = rep.Throughput
		table.Add(path, art.Model, art.Planner.Name, art.Devices, art.Strategy.MiniBatch,
			art.Strategy.NumStages(), art.Strategy.Depth(),
			rep.IterationTime, rep.Throughput, rep.PeakMemory()/1e9)
	}
	fmt.Fprintf(stdout, "backend %s\n\n%s", *backend, table.Markdown())
	if baseline := throughputs[0]; fs.NArg() > 1 && baseline > 0 {
		fmt.Fprintf(stdout, "\n(throughputs relative to %s: ", fs.Arg(0))
		for i := range throughputs {
			if i > 0 {
				fmt.Fprint(stdout, ", ")
			}
			fmt.Fprintf(stdout, "%s %.2fx", fs.Arg(i), throughputs[i]/baseline)
		}
		fmt.Fprintln(stdout, ")")
	}
	return nil
}

// cmdSynth generates a synthetic model from a family/seed (or replays a
// full spec string) and prints a deterministic description: the
// resolved canonical spec, the knobs, and the content hash of the
// generated graph. The output is a pure function of the spec, so
// re-running with the same seed reproduces it byte for byte — that is
// the replay contract conformance failures and bug reports rely on.
func cmdSynth(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("synth", flag.ContinueOnError)
	var (
		famFlag  = fs.String("family", "", "model family: "+strings.Join(synth.Families(), " | "))
		seed     = fs.Int64("seed", 0, "generator seed (derives every unset knob)")
		spec     = fs.String("spec", "", "replay a full spec string (synth:family/seed=N/...); overrides the knob flags")
		depth    = fs.Int("depth", 0, "pin the depth knob (0: derive from seed)")
		branches = fs.Int("branches", 0, "pin the branch count (0: derive from seed)")
		skew     = fs.Float64("skew", 0, "pin the branch-cost skew (0: derive from seed)")
		nesting  = fs.Int("nesting", 0, "pin the nesting depth (0: derive from seed)")
		devices  = fs.Int("devices", 4, "device count used for the default mini-batch line")
		describe = fs.Bool("describe", false, "print the full operator listing")
		dump     = fs.Bool("dump", false, "print the canonical graph JSON (the bytes behind the hash)")
		out      = fs.String("o", "", "write the resolved spec as JSON to this file")
	)
	if err := parseFlags(fs, stderr, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usageErrorf("synth: unexpected arguments: %v", fs.Args())
	}

	var s synth.Spec
	switch {
	case *spec != "":
		parsed, err := synth.Parse(*spec)
		if err != nil {
			return usageError{err: err}
		}
		s = parsed
	case *famFlag != "":
		s = synth.Spec{Family: *famFlag, Seed: *seed, Depth: *depth,
			Branches: *branches, Skew: *skew, Nesting: *nesting}
	default:
		return usageErrorf("synth: need -family (with -seed) or -spec")
	}

	g, rs, err := synth.Generate(s)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "spec       %s\n", rs)
	fmt.Fprintf(stdout, "family     %s   seed %d\n", rs.Family, rs.Seed)
	fmt.Fprintf(stdout, "knobs      depth %d   branches %d   skew %g   nesting %d\n",
		rs.Depth, rs.Branches, rs.Skew, rs.Nesting)
	fmt.Fprintf(stdout, "graph      %d ops, %d edges, %d sources\n",
		g.Len(), len(g.Edges()), len(g.Sources()))
	fmt.Fprintf(stdout, "hash       %s\n", g.CanonicalHash())
	fmt.Fprintf(stdout, "mini-batch %d (default at %d devices)\n",
		synth.DefaultMiniBatch(*devices), *devices)
	fmt.Fprintf(stdout, "plan with  graphpipe plan -model %s -devices %d\n", rs, *devices)
	if *describe {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, g.String())
	}
	if *dump {
		fmt.Fprintln(stdout)
		stdout.Write(g.Canonical())
	}
	if *out != "" {
		data, err := synth.EncodeJSON(rs)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spec file  %s\n", *out)
	}
	return nil
}

// printDetails renders the optional stage listing and gantt chart shared
// by plan and eval.
func printDetails(w io.Writer, st *strategy.Strategy, rep *eval.Report, verbose, gantt bool) {
	if verbose {
		fmt.Fprintln(w)
		fmt.Fprint(w, st.String())
	}
	if gantt {
		fmt.Fprintln(w)
		fmt.Fprint(w, trace.Gantt(st, rep, 110))
	}
}
