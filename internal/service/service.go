// Package service is the long-running planning layer over the planner and
// eval registries: cmd/graphpiped embeds it in an HTTP daemon, and the
// package-level API (New, Plan, Eval) is the same surface for tests and
// embedders. Where cmd/graphpipe answers one planning question per process
// invocation, the service amortizes them across traffic:
//
//   - Requests are canonicalized and hashed into a content fingerprint
//     (strategy.Artifact.Fingerprint — the CLI prints the same value).
//   - A two-tier cache — in-memory LRU over decoded artifacts in front of
//     an on-disk artifact store — serves repeated questions without
//     planning, returning byte-identical serialized artifacts.
//   - A singleflight group collapses N concurrent identical cold requests
//     into one planner run.
//   - A bounded admission pool caps concurrent planner searches and sheds
//     load with ErrOverloaded (HTTP 429) when its queue fills, instead of
//     letting goroutines pile up behind the planners.
//
// The request path is: canonicalize → fingerprint → cache → singleflight →
// admission → planner → cache fill. Every stage feeds the stats snapshot
// served at /v1/stats, so the cold/warm/shed behavior of a deployment is
// observable from the outside.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"graphpipe/internal/eval"
	"graphpipe/internal/faultinject"
	"graphpipe/internal/graph"
	"graphpipe/internal/memosnap"
	"graphpipe/internal/memostore"
	"graphpipe/internal/models"
	"graphpipe/internal/obs"
	"graphpipe/internal/planner"
	"graphpipe/internal/strategy"
)

// Sentinel errors the transport layer maps to status codes. Test with
// errors.Is.
var (
	// ErrBadRequest marks a request the service refuses to canonicalize
	// (unknown model or planner, non-positive devices, ...) — HTTP 400.
	ErrBadRequest = errors.New("service: bad request")
	// ErrUnknownArtifact marks a fingerprint lookup that found nothing in
	// either cache tier — HTTP 404.
	ErrUnknownArtifact = errors.New("service: unknown artifact")
)

// Config sizes a Service. The zero value is usable: memory-only cache,
// one planning worker per CPU, a small queue.
type Config struct {
	// CacheDir is the on-disk artifact store; empty disables the disk
	// tier (plans survive only in memory).
	CacheDir string
	// MemoryEntries bounds the in-memory LRU tier (default 256 plans).
	MemoryEntries int
	// Workers bounds concurrently running planner searches
	// (default: one per CPU).
	Workers int
	// QueueDepth bounds planning jobs waiting for a worker; admissions
	// beyond it fail with ErrOverloaded (default 64).
	QueueDepth int
	// PlannerWorkers is the internal worker-pool size handed to each
	// planner run (planner.Options.Workers). The default 1 keeps one
	// search on one CPU so Workers alone defines the service's CPU
	// envelope; raise it (and lower Workers) to favor the latency of
	// individual large plans over throughput.
	PlannerWorkers int
	// MemoSnapshots bounds the in-memory DP memo snapshot store that
	// warm-starts graphpipe searches across requests for the same
	// canonical graph (default 64 snapshots; negative disables
	// warm-starting). When CacheDir is set, snapshots also persist as
	// shards under CacheDir/memos and survive restarts.
	MemoSnapshots int
	// Peers wires this daemon into a fleet for peer cache-fill and memo
	// offers; nil runs standalone (no peer traffic at all).
	Peers *PeerConfig
	// Faults injects deterministic failures into this daemon's disk
	// stores and peer HTTP client (nil: healthy). The degradation paths
	// — corrupt reads becoming misses, failed writes surfacing only in
	// stats — are the same ones real faults would take.
	Faults *faultinject.Set
	// Instance names this daemon in trace/span IDs and span logs
	// (default "graphpiped"). Give fleet members distinct names so
	// unioned span logs stay unambiguous.
	Instance string
	// TraceLog, when non-nil, receives one JSON line per request trace
	// (the -trace-log flag); nil disables span logging.
	TraceLog io.Writer
}

// Service answers planning and evaluation requests. Create with New,
// release with Close. Safe for concurrent use.
type Service struct {
	cfg      Config
	memory   *memoryLRU
	disk     *diskStore
	memos    *memostore.Store // nil: warm-start disabled
	flight   flightGroup
	pool     *admission
	stats    *stats
	tracer   *obs.Tracer
	traceLog *obs.TraceLog
	peerWG   sync.WaitGroup // in-flight async memo offers
}

// New builds a Service, creating the cache directory if configured.
func New(cfg Config) (*Service, error) {
	if cfg.MemoryEntries <= 0 {
		cfg.MemoryEntries = 256
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.PlannerWorkers <= 0 {
		cfg.PlannerWorkers = 1
	}
	if cfg.CacheDir != "" {
		if err := os.MkdirAll(cfg.CacheDir, 0o755); err != nil {
			return nil, fmt.Errorf("service: cache dir: %w", err)
		}
	}
	var memos *memostore.Store
	if cfg.MemoSnapshots >= 0 {
		memoDir := ""
		if cfg.CacheDir != "" {
			memoDir = filepath.Join(cfg.CacheDir, "memos")
		}
		var err error
		if memos, err = memostore.New(cfg.MemoSnapshots, memoDir); err != nil {
			return nil, fmt.Errorf("service: memo store: %w", err)
		}
		memos.InjectFaults(cfg.Faults.Disk("memos"))
	}
	if cfg.Faults != nil && cfg.Peers != nil {
		// Peer traffic (fills and memo offers) crosses the injected sick
		// wire; the local HTTP listener does not — faults model the
		// fleet's network and disks, not the daemon's own socket.
		c := *cfg.Peers.client()
		c.Transport = cfg.Faults.Transport("peers", c.Transport)
		p := *cfg.Peers
		p.Client = &c
		cfg.Peers = &p
	}
	if cfg.Instance == "" {
		cfg.Instance = "graphpiped"
	}
	svc := &Service{
		cfg:      cfg,
		memory:   newMemoryLRU(cfg.MemoryEntries),
		disk:     &diskStore{dir: cfg.CacheDir, faults: cfg.Faults.Disk("artifacts")},
		memos:    memos,
		pool:     newAdmission(cfg.Workers, cfg.QueueDepth),
		stats:    newStats(),
		tracer:   obs.NewTracer(cfg.Instance),
		traceLog: obs.NewTraceLog(cfg.TraceLog),
	}
	svc.registerGauges()
	return svc, nil
}

// registerGauges wires the instantaneous and externally owned values —
// admission gauges, cache tier sizes, memo store counters, fault
// tallies — into the metrics registry as scrape-time reads. The counter
// halves of /v1/stats are obs counters already; after this, everything
// the JSON snapshot reports is also on /metrics.
func (s *Service) registerGauges() {
	r := s.stats.reg
	r.GaugeFunc("graphpipe_in_flight", "Admitted planner searches currently running.", nil,
		func() float64 { return float64(s.pool.inflight.Load()) })
	r.GaugeFunc("graphpipe_queued", "Planning jobs waiting for an admission worker.", nil,
		func() float64 { return float64(s.pool.queued.Load()) })
	r.GaugeFunc("graphpipe_memory_entries", "Artifacts resident in the memory LRU tier.", nil,
		func() float64 { return float64(s.memory.len()) })
	r.CounterFunc("graphpipe_memory_evictions_total", "Memory-tier LRU evictions.", nil,
		s.memory.evictions.Load)
	if s.memos != nil {
		r.GaugeFunc("graphpipe_memo_snapshots", "DP memo snapshots resident in the store.", nil,
			func() float64 { return float64(s.memos.Len()) })
		r.CounterFunc("graphpipe_memo_installs_total", "DP memo snapshot installs (local and offered).", nil,
			s.memos.Installs)
		r.CounterFunc("graphpipe_memo_evictions_total", "DP memo snapshot evictions.", nil,
			s.memos.Evictions)
	}
	if s.cfg.Faults != nil {
		// Chaos visibility: every injected latency/drop/corruption event
		// shows up as a per-site counter, so soak assertions can separate
		// "injected fault absorbed" from organic failure.
		r.CounterSetFunc("graphpipe_faults_injected_total", "Injected faults by site/kind.", "site",
			s.cfg.Faults.Tallies)
	}
}

// Metrics returns the service's metrics registry — the backing store of
// GET /metrics. Embedders (the fleet router's in-process mode, tests)
// may register additional series on it.
func (s *Service) Metrics() *obs.Registry { return s.stats.reg }

// Close drains the admission pool: accepted planning jobs finish and
// publish to the cache, new ones are rejected. Called after the HTTP
// listener stops accepting, it completes the daemon's graceful shutdown.
// In-progress flights (which may outlive their abandoning waiters) and
// in-flight peer memo offers are waited out too.
func (s *Service) Close() {
	s.pool.close()
	s.flight.wait()
	s.peerWG.Wait()
}

// PlanResult is a Plan answer: the artifact, its serialized bytes (served
// verbatim, so identical requests get byte-identical responses), and
// where it came from.
type PlanResult struct {
	Fingerprint string
	// Source is "miss" (this request ran the planner), "shared" (joined
	// another request's planner run), "hit-memory", "hit-disk", or
	// "hit-peer" (a ring peer's cache supplied the plan).
	Source   string
	Artifact *strategy.Artifact
	Data     []byte
}

// Plan answers a planning request, consulting the cache tiers before
// running the planner behind singleflight and admission.
func (s *Service) Plan(ctx context.Context, req Request) (*PlanResult, error) {
	_, canonSpan := obs.StartSpan(ctx, "canonicalize")
	creq, g, err := req.canonicalize()
	canonSpan.End()
	if err != nil {
		return nil, err
	}
	fp := creq.Fingerprint()

	if e, src := s.lookup(ctx, fp); e != nil {
		return &PlanResult{Fingerprint: fp, Source: src, Artifact: e.art, Data: e.data}, nil
	}
	if err := ctx.Err(); err != nil {
		// The budget is already spent and the answer is cold: planning
		// (or even consulting peers) would be work nobody waits for.
		return nil, err
	}
	s.stats.misses.Add(1)

	// The wait context keeps the request's deadline — an expired budget
	// stops the wait at the deadline, never after — but drops its
	// cancellation: N-1 joiners (and the cache) depend on this flight,
	// so one client hanging up must not abandon everyone else's answer.
	waitCtx, waitCancel := detachCancellation(ctx)
	defer waitCancel()
	sfCtx, sfSpan := obs.StartSpan(waitCtx, "singleflight.wait", "fp", fp)
	e, shared, err := s.flight.Do(sfCtx, fp, func() (*cacheEntry, error) {
		// Joiners may have raced past the cache lookup while the leader
		// was filling it; the flight map resolves that race, not this
		// re-check — the leader is the only cache writer for fp.
		//
		// A peer that already holds the plan beats a cold search: the
		// consult runs inside the flight so N concurrent misses cost one
		// round of peer traffic, and before admission because it is IO,
		// not a planner search competing for the worker pool.
		if e := s.peerFill(sfCtx, fp); e != nil {
			return e, nil
		}
		// The flight runs under a context detached from the leader's
		// request: N-1 joiners (and the cache) depend on this one run, so
		// one client hanging up must not poison everyone else's answer
		// with its cancellation. Admission rejection (ErrOverloaded) still
		// propagates — a shed flight is shed for every waiter.
		var (
			entry   *cacheEntry
			planErr error
		)
		// The admission span covers sitting in the queue: it ends the
		// moment a worker picks the job up, which is where the
		// planner.search span begins. Queue time vs. search time is the
		// first split a slow p99 needs.
		runCtx := context.WithoutCancel(sfCtx)
		_, admitSpan := obs.StartSpan(runCtx, "admission.wait")
		if err := s.pool.run(runCtx, func() {
			admitSpan.End()
			entry, planErr = s.runPlanner(runCtx, creq, g, fp)
		}); err != nil {
			admitSpan.End()
			if errors.Is(err, ErrOverloaded) {
				s.stats.rejected.Add(1)
			}
			return nil, err
		}
		return entry, planErr
	})
	sfSpan.End()
	if err != nil {
		return nil, err
	}
	source := "miss"
	if e.src != "" {
		source = e.src
	}
	if shared {
		s.stats.sharedWaits.Add(1)
		source = "shared"
	}
	sfSpan.SetAttr("source", source)
	return &PlanResult{Fingerprint: fp, Source: source, Artifact: e.art, Data: e.data}, nil
}

// detachCancellation returns a context that keeps ctx's deadline (the
// request's end-to-end time budget) but drops its cancellation. Shared
// work — flights, peer consults — is bounded by how long the request
// may take, not by whether its particular client is still listening.
func detachCancellation(ctx context.Context) (context.Context, context.CancelFunc) {
	base := context.WithoutCancel(ctx)
	if dl, ok := ctx.Deadline(); ok {
		return context.WithDeadline(base, dl)
	}
	return base, func() {}
}

// lookup consults memory then disk, promoting disk hits to memory. Disk
// failures (IO errors, corrupt or misfiled artifacts) degrade to a miss:
// the planner re-derives the plan and overwrites the bad file.
func (s *Service) lookup(ctx context.Context, fp string) (*cacheEntry, string) {
	_, memSpan := obs.StartSpan(ctx, "cache.memory")
	e := s.memory.get(fp)
	memSpan.End()
	if e != nil {
		memSpan.SetAttr("result", "hit")
		s.stats.hitsMemory.Add(1)
		return e, "hit-memory"
	}
	memSpan.SetAttr("result", "miss")
	_, diskSpan := obs.StartSpan(ctx, "cache.disk")
	e, err := s.disk.get(fp)
	diskSpan.End()
	if err != nil {
		diskSpan.SetAttr("result", "error")
		s.stats.diskFailures.Add(1)
		return nil, ""
	}
	if e != nil {
		diskSpan.SetAttr("result", "hit")
		s.memory.put(e)
		s.stats.hitsDisk.Add(1)
		return e, "hit-disk"
	}
	diskSpan.SetAttr("result", "miss")
	return nil, ""
}

// runPlanner executes one cold plan on an admission worker: resolve the
// planner, search, wrap the strategy into an artifact, serialize, and
// publish to both cache tiers.
func (s *Service) runPlanner(ctx context.Context, req Request, g *graph.Graph, fp string) (*cacheEntry, error) {
	pl, err := planner.Get(req.Planner)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	searchCtx, searchSpan := obs.StartSpan(ctx, "planner.search", "planner", req.Planner, "fp", fp)
	defer searchSpan.End()
	// req is canonicalized, so Topology is either "" (Summit default) or a
	// canonical explicit spec — both of which models.Topology resolves.
	topo, err := models.Topology(req.Topology, req.Devices)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	popts := planner.Options{
		ForcedMicroBatch:          req.Options.ForcedMicroBatch,
		MaxMicroBatch:             req.Options.MaxMicroBatch,
		PerStageMicroBatch:        req.Options.PerStageMicroBatch,
		DisableSinkAnchoredSplits: req.Options.DisableSinkAnchoredSplits,
		Workers:                   s.cfg.PlannerWorkers,
		// The span hook hands the planner core a way to record its
		// internal phases (per-probe DP searches, memo import/export)
		// as children of planner.search without the core importing obs.
		Span: obs.SpanHook(searchCtx),
	}
	if s.memos != nil {
		// Warm-start: hand the planner the snapshot store. A warm plan is
		// byte-identical to a cold one (the warm≡cold conformance
		// invariant), so this changes latency, never answers. The sink
		// also offers the snapshot to the ring peers owning neighboring
		// device counts (no-op when Peers is nil or OfferMemos is off).
		popts.WarmMemo = s.memos.Lookup
		popts.MemoSink = func(snap *memosnap.Snapshot) {
			_, installSpan := obs.StartSpan(searchCtx, "memo.install")
			s.memos.Install(snap)
			installSpan.End()
			s.offerMemo(req, snap)
		}
	}
	start := time.Now()
	st, pstats, err := pl.Plan(g, topo, req.MiniBatch, popts)
	searchSeconds := time.Since(start).Seconds()
	if err != nil {
		return nil, fmt.Errorf("planner %s: %w", req.Planner, err)
	}
	s.stats.planned.Add(1)
	s.stats.observePlanner(req.Planner, searchSeconds)
	if pstats.MemoWarmStarted {
		s.stats.memoWarmHits.Add(1)
		s.stats.memoEntriesReused.Add(uint64(pstats.MemoEntriesReused))
	}

	art := req.skeleton()
	art.Planner.SearchSeconds = searchSeconds
	art.Planner.DPStates = pstats.DPStates
	art.Planner.BinaryIters = pstats.BinaryIters
	art.Planner.WarmStarted = pstats.MemoWarmStarted
	art.Planner.MemoEntriesReused = pstats.MemoEntriesReused
	art.Strategy = st
	data, err := strategy.EncodeArtifact(art)
	if err != nil {
		return nil, err
	}
	e := &cacheEntry{fp: fp, art: art, data: append(data, '\n')}
	if err := s.disk.put(e); err != nil {
		// A plan that cannot be persisted is still a plan; serve it, keep
		// it in memory, and surface the failure through stats.
		s.stats.diskFailures.Add(1)
	}
	s.memory.put(e)
	return e, nil
}

// Artifact returns the cached plan for a fingerprint without planning
// (GET /v1/artifacts/{fp}). A local two-tier miss still consults the
// fleet: any shard can serve any plan the fleet has ever computed,
// byte-identically, without a cold search. The peer consult honors the
// request's budget deadline but not its cancellation. ErrUnknownArtifact
// if neither the local tiers nor any peer holds it.
func (s *Service) Artifact(ctx context.Context, fp string) (*PlanResult, error) {
	e, src := s.lookup(ctx, fp)
	if e == nil {
		fillCtx, cancel := detachCancellation(ctx)
		defer cancel()
		if e = s.peerFill(fillCtx, fp); e == nil {
			return nil, fmt.Errorf("%w: %s", ErrUnknownArtifact, fp)
		}
		src = e.src
	}
	return &PlanResult{Fingerprint: fp, Source: src, Artifact: e.art, Data: e.data}, nil
}

// ArtifactLocal is Artifact restricted to this daemon's own two tiers.
// It answers peer-originated fills (requests carrying HeaderPeerFill):
// a fleet of mutually missing daemons must bottom out at 404s, not
// recurse through each other.
func (s *Service) ArtifactLocal(ctx context.Context, fp string) (*PlanResult, error) {
	e, src := s.lookup(ctx, fp)
	if e == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownArtifact, fp)
	}
	return &PlanResult{Fingerprint: fp, Source: src, Artifact: e.art, Data: e.data}, nil
}

// EvalRequest asks for an evaluation of a plan on a registered backend:
// either of an already-cached artifact (Fingerprint set) or of whatever
// the embedded planning request resolves to — planning it first, through
// the same cache/singleflight/admission path, if it is cold.
type EvalRequest struct {
	Request
	// Fingerprint short-circuits planning: the artifact must already be
	// cached (ErrUnknownArtifact otherwise). When set, the embedded
	// Request is ignored.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Backend is an eval-registry name; empty selects "sim".
	Backend string `json:"backend,omitempty"`
}

// EvalResult is an Eval answer: where the plan came from plus the
// headline numbers of the evaluation report.
type EvalResult struct {
	Fingerprint string `json:"fingerprint"`
	// PlanSource reports how the plan was obtained ("hit-memory", ...,
	// "miss"); the evaluation itself always runs fresh.
	PlanSource       string  `json:"plan_source"`
	Backend          string  `json:"backend"`
	IterationSeconds float64 `json:"iteration_seconds"`
	Throughput       float64 `json:"throughput"`
	PeakMemoryBytes  float64 `json:"peak_memory_bytes"`
	Stages           int     `json:"stages"`
}

// Eval resolves the plan (cache or fresh search), rebuilds its evaluation
// context from the artifact metadata, and runs one training iteration on
// the requested backend.
func (s *Service) Eval(ctx context.Context, req EvalRequest) (*EvalResult, error) {
	if req.Backend == "" {
		req.Backend = "sim"
	}
	ev, err := eval.Get(req.Backend)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}

	var plan *PlanResult
	if req.Fingerprint != "" {
		plan, err = s.Artifact(ctx, req.Fingerprint)
	} else {
		plan, err = s.Plan(ctx, req.Request)
	}
	if err != nil {
		return nil, err
	}

	art := plan.Artifact
	g, _, err := models.Build(art.Model, art.Branches, art.Devices)
	if err != nil {
		return nil, fmt.Errorf("rebuilding %s: %w", plan.Fingerprint, err)
	}
	topo, err := models.Topology(art.Topology, art.Devices)
	if err != nil {
		return nil, fmt.Errorf("rebuilding %s: %w", plan.Fingerprint, err)
	}
	if err := art.Validate(g, topo); err != nil {
		return nil, fmt.Errorf("cached artifact %s: %w", plan.Fingerprint, err)
	}
	_, evalSpan := obs.StartSpan(ctx, "eval.run", "backend", req.Backend)
	rep, err := ev.Evaluate(g, topo, art.Strategy, eval.Options{})
	evalSpan.End()
	if err != nil {
		return nil, err
	}
	s.stats.evals.Add(1)
	return &EvalResult{
		Fingerprint:      plan.Fingerprint,
		PlanSource:       plan.Source,
		Backend:          rep.Backend,
		IterationSeconds: rep.IterationTime,
		Throughput:       rep.Throughput,
		PeakMemoryBytes:  rep.PeakMemory(),
		Stages:           len(rep.Stages),
	}, nil
}

// Stats snapshots the service's counters, gauges, and latency histograms.
func (s *Service) Stats() Snapshot {
	snap := s.stats.snapshot()
	snap.InFlight = s.pool.inflight.Load()
	snap.Queued = s.pool.queued.Load()
	snap.MemoryEntries = s.memory.len()
	snap.MemoryEvictions = s.memory.evictions.Load()
	if s.memos != nil {
		snap.MemoSnapshots = s.memos.Len()
		snap.MemoInstalls = s.memos.Installs()
		snap.MemoEvictions = s.memos.Evictions()
	}
	snap.FaultsInjected = s.cfg.Faults.Tallies()
	return snap
}
