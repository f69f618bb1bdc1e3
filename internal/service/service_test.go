package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphpipe/internal/cluster"
	"graphpipe/internal/graph"
	"graphpipe/internal/obs"
	"graphpipe/internal/planner"
	"graphpipe/internal/strategy"

	_ "graphpipe/internal/eval/all"    // register the built-in backends
	_ "graphpipe/internal/planner/all" // register the built-in planners
)

// stubPlanner wraps the real graphpipe planner with an invocation counter
// and an optional gate, so tests can observe exactly how many planner runs
// a traffic pattern triggered and hold runs open to create contention.
// It registers once per test binary under "stub"; tests in this package
// run sequentially, so reset() hands it cleanly between them.
type stubPlanner struct {
	calls atomic.Int64

	mu   sync.Mutex
	gate chan struct{} // non-nil: Plan blocks here after counting
}

var stub = &stubPlanner{}

func init() { planner.Register(stub) }

func (p *stubPlanner) Name() string { return "stub" }

func (p *stubPlanner) Plan(g *graph.Graph, topo *cluster.Topology, miniBatch int, opts planner.Options) (*strategy.Strategy, planner.Stats, error) {
	p.calls.Add(1)
	p.mu.Lock()
	gate := p.gate
	p.mu.Unlock()
	if gate != nil {
		<-gate
	}
	real, err := planner.Get("graphpipe")
	if err != nil {
		return nil, planner.Stats{}, err
	}
	return real.Plan(g, topo, miniBatch, opts)
}

func (p *stubPlanner) reset(gate chan struct{}) {
	p.calls.Store(0)
	p.mu.Lock()
	p.gate = gate
	p.mu.Unlock()
}

// testRequest is the cheap standard planning question (plans in ~10ms).
func testRequest() Request {
	return Request{Model: "case-study", Devices: 4, Planner: "stub"}
}

func newService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// waitFor polls until cond holds — the tests gate on observable stats
// transitions instead of sleeping.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSingleflightConcurrentIdenticalRequests pins the acceptance
// criterion: N concurrent identical cold requests trigger exactly one
// planner run, and every caller gets byte-identical artifact bytes. The
// planner is gated until all N requests have registered a cache miss, so
// every request provably arrived before the first result existed — none
// of them could have been served by the cache.
func TestSingleflightConcurrentIdenticalRequests(t *testing.T) {
	const n = 16
	gate := make(chan struct{})
	stub.reset(gate)
	s := newService(t, Config{Workers: 4, QueueDepth: n})

	var (
		wg      sync.WaitGroup
		results [n]*PlanResult
		errs    [n]error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = s.Plan(context.Background(), testRequest())
		}()
	}
	waitFor(t, "all requests to miss the cache", func() bool {
		return s.Stats().Misses == n
	})
	close(gate)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := stub.calls.Load(); got != 1 {
		t.Fatalf("planner ran %d times for %d concurrent identical requests, want exactly 1", got, n)
	}
	var shared int
	for i, r := range results {
		if !bytes.Equal(r.Data, results[0].Data) {
			t.Errorf("request %d got different artifact bytes", i)
		}
		if r.Fingerprint != results[0].Fingerprint {
			t.Errorf("request %d got fingerprint %s, want %s", i, r.Fingerprint, results[0].Fingerprint)
		}
		if r.Source == "shared" {
			shared++
		}
	}
	snap := s.Stats()
	if snap.Planned != 1 || snap.SharedWaits != n-1 || shared != n-1 {
		t.Errorf("planned=%d shared_waits=%d shared-sources=%d, want 1/%d/%d",
			snap.Planned, snap.SharedWaits, shared, n-1, n-1)
	}
}

// TestWarmHitByteIdentical pins the other acceptance criterion: a warm
// re-request returns the byte-identical serialized artifact without any
// planner invocation.
func TestWarmHitByteIdentical(t *testing.T) {
	stub.reset(nil)
	s := newService(t, Config{})

	cold, err := s.Plan(context.Background(), testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if cold.Source != "miss" {
		t.Fatalf("cold source = %q, want miss", cold.Source)
	}
	warm, err := s.Plan(context.Background(), testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Source != "hit-memory" {
		t.Errorf("warm source = %q, want hit-memory", warm.Source)
	}
	if !bytes.Equal(warm.Data, cold.Data) {
		t.Error("warm response is not byte-identical to the cold one")
	}
	if got := stub.calls.Load(); got != 1 {
		t.Errorf("planner ran %d times, want 1 (warm hit must not plan)", got)
	}
	// The served bytes must decode back to the same artifact a CLI user
	// would read from disk.
	art, err := strategy.DecodeArtifact(warm.Data)
	if err != nil {
		t.Fatalf("served bytes do not decode: %v", err)
	}
	if art.Fingerprint() != warm.Fingerprint {
		t.Errorf("served artifact hashes to %s, header says %s", art.Fingerprint(), warm.Fingerprint)
	}
}

// distinctRequests returns n (≤ 3) requests with distinct fingerprints
// that all plan quickly: the default search plus forced micro-batch sizes
// that are feasible for the case-study model on 4 devices.
func distinctRequests(n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = testRequest()
		reqs[i].Options.ForcedMicroBatch = i // 0 selects the full search
	}
	return reqs
}

func TestMemoryEvictionAndDiskPromotion(t *testing.T) {
	stub.reset(nil)
	dir := t.TempDir()
	s := newService(t, Config{MemoryEntries: 2, CacheDir: dir})

	reqs := distinctRequests(3)
	var first *PlanResult
	for i, req := range reqs {
		r, err := s.Plan(context.Background(), req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if i == 0 {
			first = r
		}
	}
	snap := s.Stats()
	if snap.MemoryEntries != 2 || snap.MemoryEvictions != 1 {
		t.Fatalf("after 3 plans into a 2-entry cache: entries=%d evictions=%d, want 2/1",
			snap.MemoryEntries, snap.MemoryEvictions)
	}

	// The evicted plan (LRU: the first one) must come back from disk,
	// byte-identical, without planning.
	again, err := s.Plan(context.Background(), reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if again.Source != "hit-disk" {
		t.Errorf("evicted plan source = %q, want hit-disk", again.Source)
	}
	if !bytes.Equal(again.Data, first.Data) {
		t.Error("disk tier returned different bytes than the original plan")
	}
	if got := stub.calls.Load(); got != 3 {
		t.Errorf("planner ran %d times, want 3 (disk hit must not plan)", got)
	}

	// The disk store is CLI-compatible: one decodable artifact per plan,
	// named by its fingerprint.
	data, err := os.ReadFile(filepath.Join(dir, first.Fingerprint+".json"))
	if err != nil {
		t.Fatalf("disk store: %v", err)
	}
	if !bytes.Equal(data, first.Data) {
		t.Error("on-disk artifact differs from the served bytes")
	}
}

func TestMemoryOnlyEvictionReplans(t *testing.T) {
	stub.reset(nil)
	s := newService(t, Config{MemoryEntries: 2})

	reqs := distinctRequests(3)
	for _, req := range reqs {
		if _, err := s.Plan(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	r, err := s.Plan(context.Background(), reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if r.Source != "miss" || stub.calls.Load() != 4 {
		t.Errorf("source=%q calls=%d, want miss/4 (no disk tier to fall back to)",
			r.Source, stub.calls.Load())
	}
}

func TestOverloadShedding(t *testing.T) {
	gate := make(chan struct{})
	stub.reset(gate)
	s := newService(t, Config{Workers: 1, QueueDepth: 1})

	reqs := distinctRequests(3)
	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := s.Plan(context.Background(), reqs[i])
			results <- err
		}()
		if i == 0 {
			waitFor(t, "first plan to occupy the worker", func() bool {
				return s.Stats().InFlight == 1
			})
		} else {
			waitFor(t, "second plan to queue", func() bool {
				return s.Stats().Queued == 1
			})
		}
	}

	// Worker busy, queue full: the third distinct request must be shed
	// immediately with a structured overload error.
	_, err := s.Plan(context.Background(), reqs[2])
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Errorf("admitted request failed: %v", err)
		}
	}
	if got := s.Stats().Rejected; got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
}

// TestFingerprintMatchesCanonicalization pins that the defaulted and
// explicit spellings of one question share a fingerprint — and that the
// request-side hash equals the artifact-side hash the CLI prints.
func TestFingerprintMatchesCanonicalization(t *testing.T) {
	stub.reset(nil)
	s := newService(t, Config{})

	implicit := Request{Model: "case-study", Devices: 4, Planner: "stub"}
	explicit := Request{Model: "case-study", Devices: 4, MiniBatch: 64, Planner: "stub"}

	r1, err := s.Plan(context.Background(), implicit)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Plan(context.Background(), explicit)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Fingerprint != r2.Fingerprint || r2.Source != "hit-memory" {
		t.Errorf("defaulted mini-batch: fp %s vs %s (source %s), want identical warm hit",
			r1.Fingerprint, r2.Fingerprint, r2.Source)
	}
	if got := r1.Artifact.Fingerprint(); got != r1.Fingerprint {
		t.Errorf("artifact hashes to %s, service says %s", got, r1.Fingerprint)
	}
}

func TestBadRequests(t *testing.T) {
	stub.reset(nil)
	s := newService(t, Config{})
	for name, req := range map[string]Request{
		"no model":         {Devices: 4},
		"unknown model":    {Model: "nope", Devices: 4},
		"no devices":       {Model: "case-study"},
		"unknown planner":  {Model: "case-study", Devices: 4, Planner: "nope"},
		"negative batch":   {Model: "case-study", Devices: 4, MiniBatch: -1},
		"negative branch":  {Model: "mmt", Devices: 4, Branches: -1},
		"negative devices": {Model: "mmt", Devices: -8},
		"negative forced micro": {Model: "case-study", Devices: 4,
			Options: strategy.PlanOptions{ForcedMicroBatch: -2}},
		"negative max micro": {Model: "case-study", Devices: 4,
			Options: strategy.PlanOptions{MaxMicroBatch: -1}},
		"non-dividing forced micro": {Model: "case-study", Devices: 4, MiniBatch: 64,
			Options: strategy.PlanOptions{ForcedMicroBatch: 7}},
	} {
		if _, err := s.Plan(context.Background(), req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", name, err)
		}
	}
}

func TestEval(t *testing.T) {
	stub.reset(nil)
	s := newService(t, Config{})

	// Cold eval: plans first, then evaluates.
	res, err := s.Eval(context.Background(), EvalRequest{Request: testRequest()})
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanSource != "miss" || res.Backend != "sim" || res.Throughput <= 0 {
		t.Errorf("cold eval: %+v", res)
	}

	// By fingerprint: must not plan again, and the runtime backend must
	// agree with the simulator (the eval-layer parity property).
	res2, err := s.Eval(context.Background(), EvalRequest{
		Fingerprint: res.Fingerprint, Backend: "runtime",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.PlanSource != "hit-memory" || stub.calls.Load() != 1 {
		t.Errorf("fingerprint eval planned again: %+v (calls %d)", res2, stub.calls.Load())
	}
	if res2.Throughput != res.Throughput {
		t.Errorf("runtime throughput %v != sim %v", res2.Throughput, res.Throughput)
	}

	if _, err := s.Eval(context.Background(), EvalRequest{Fingerprint: "feed"}); !errors.Is(err, ErrUnknownArtifact) {
		t.Errorf("unknown fingerprint: err = %v, want ErrUnknownArtifact", err)
	}
	if _, err := s.Eval(context.Background(), EvalRequest{
		Request: testRequest(), Backend: "nope",
	}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("unknown backend: err = %v, want ErrBadRequest", err)
	}
}

func TestCorruptDiskEntryDegradesToMiss(t *testing.T) {
	stub.reset(nil)
	dir := t.TempDir()
	s := newService(t, Config{MemoryEntries: 1, CacheDir: dir})

	reqs := distinctRequests(2)
	first, err := s.Plan(context.Background(), reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Evict the first plan from memory, then corrupt its disk copy.
	if _, err := s.Plan(context.Background(), reqs[1]); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, first.Fingerprint+".json")
	if err := os.WriteFile(path, []byte("{not an artifact"), 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := s.Plan(context.Background(), reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if r.Source != "miss" {
		t.Errorf("source = %q, want miss (corrupt disk entry must not be served)", r.Source)
	}
	// The re-plan answers the same question (same fingerprint, same
	// strategy); only the recorded search wall-clock may differ.
	if r.Fingerprint != first.Fingerprint {
		t.Errorf("replanned fingerprint %s != original %s", r.Fingerprint, first.Fingerprint)
	}
	if s.Stats().DiskFailures == 0 {
		t.Error("disk failure not counted")
	}
	// The re-plan must have healed the on-disk copy with its own bytes.
	data, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(data, r.Data) {
		t.Errorf("disk copy not healed (err %v)", err)
	}
}

// TestFlightRechecksMemoryTier pins the close of the double-plan window.
// A request can miss both cache tiers just before a flight's leader fills
// the memory tier, then reach the flight map just after that flight has
// ended, and lead a second flight. That flight must find the plan in the
// memory tier and count a memory hit, not a miss or a planner run. The
// test fills the memory tier, then runs the flight body.
func TestFlightRechecksMemoryTier(t *testing.T) {
	stub.reset(nil)
	s := newService(t, Config{})
	first, err := s.Plan(context.Background(), testRequest())
	if err != nil {
		t.Fatal(err)
	}
	creq, g, err := testRequest().canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	stub.reset(nil)
	e, err := s.fly(context.Background(), creq, g, first.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if n := stub.calls.Load(); n != 0 {
		t.Errorf("flight ran the planner %d times for a plan already in the memory tier", n)
	}
	if e.src != "hit-memory" || !bytes.Equal(e.data, first.Data) {
		t.Errorf("flight answered from %q with %d bytes, want the memory tier's %d", e.src, len(e.data), len(first.Data))
	}
	after := s.Stats()
	if after.HitsMemory != before.HitsMemory+1 || after.Misses != before.Misses || after.Planned != before.Planned {
		t.Errorf("stats moved from %d hits / %d misses / %d planned to %d / %d / %d; want one more memory hit only",
			before.HitsMemory, before.Misses, before.Planned, after.HitsMemory, after.Misses, after.Planned)
	}
}

// TestLeaderCancellationDoesNotPoisonFlight pins the singleflight
// detachment: joiners depend on the leader's planner run, so the leader's
// client hanging up must neither fail the joiners nor abort the run.
func TestLeaderCancellationDoesNotPoisonFlight(t *testing.T) {
	gate := make(chan struct{})
	stub.reset(gate)
	s := newService(t, Config{Workers: 1, QueueDepth: 4})

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	type outcome struct {
		res *PlanResult
		err error
	}
	leader := make(chan outcome, 1)
	go func() {
		r, err := s.Plan(leaderCtx, testRequest())
		leader <- outcome{r, err}
	}()
	waitFor(t, "leader to miss", func() bool { return s.Stats().Misses == 1 })

	joiner := make(chan outcome, 1)
	go func() {
		r, err := s.Plan(context.Background(), testRequest())
		joiner <- outcome{r, err}
	}()
	waitFor(t, "joiner to miss", func() bool { return s.Stats().Misses == 2 })

	cancelLeader()
	close(gate)
	for name, ch := range map[string]chan outcome{"leader": leader, "joiner": joiner} {
		o := <-ch
		if o.err != nil {
			t.Errorf("%s: %v (cancellation of one client must not fail the flight)", name, o.err)
		}
	}
	if got := stub.calls.Load(); got != 1 {
		t.Errorf("planner ran %d times, want 1", got)
	}
}

func TestCloseDrainsAdmittedWork(t *testing.T) {
	gate := make(chan struct{})
	stub.reset(gate)
	s, err := New(Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := s.Plan(context.Background(), testRequest())
		done <- err
	}()
	waitFor(t, "plan to start", func() bool { return s.Stats().InFlight == 1 })

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a planner run was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-done; err != nil {
		t.Errorf("in-flight plan failed during drain: %v", err)
	}
	<-closed

	// After close, new work is shed, not queued.
	if _, err := s.Plan(context.Background(), Request{Model: "case-study", Devices: 2, Planner: "stub"}); !errors.Is(err, ErrOverloaded) {
		t.Errorf("post-close plan: err = %v, want ErrOverloaded", err)
	}
}

func TestStatsSnapshotShape(t *testing.T) {
	stub.reset(nil)
	s := newService(t, Config{})
	if _, err := s.Plan(context.Background(), testRequest()); err != nil {
		t.Fatal(err)
	}
	snap := s.Stats()
	h, ok := snap.PlannerLatency["stub"]
	if !ok {
		t.Fatalf("no latency histogram for the planner that ran: %+v", snap.PlannerLatency)
	}
	if h.Count != 1 || h.SumSeconds <= 0 {
		t.Errorf("histogram count=%d sum=%v, want 1 observation with positive latency", h.Count, h.SumSeconds)
	}
	if len(h.Buckets) != len(obs.DefaultLatencyBounds) {
		t.Fatalf("histogram has %d buckets, want %d", len(h.Buckets), len(obs.DefaultLatencyBounds))
	}
	if last := h.Buckets[len(h.Buckets)-1]; last.Count != h.Count {
		t.Errorf("cumulative buckets must end at Count: %d != %d", last.Count, h.Count)
	}
}

func TestRequestFingerprintStability(t *testing.T) {
	// The request-side fingerprint must track the artifact-side pinned
	// preimage: hash a canonicalized request and re-derive it through the
	// skeleton artifact both ways.
	req := Request{Model: "mmt", Branches: 4, Devices: 8, MiniBatch: 128, Planner: "graphpipe"}
	if req.Fingerprint() != req.skeleton().Fingerprint() {
		t.Error("request and skeleton artifact fingerprints disagree")
	}
	other := req
	other.Options.ForcedMicroBatch = 2
	if req.Fingerprint() == other.Fingerprint() {
		t.Error("options do not affect the request fingerprint")
	}
}

func ExampleService() {
	s, _ := New(Config{Workers: 1})
	defer s.Close()
	res, _ := s.Plan(context.Background(), Request{Model: "case-study", Devices: 4})
	res2, _ := s.Plan(context.Background(), Request{Model: "case-study", Devices: 4})
	fmt.Println(res.Source, res2.Source, res.Fingerprint == res2.Fingerprint)
	// Output: miss hit-memory true
}
