package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"graphpipe/internal/fleet"
	"graphpipe/internal/models"
	"graphpipe/internal/obs"
	"graphpipe/internal/service"
	"graphpipe/internal/strategy"
	"graphpipe/internal/synth"
)

const (
	shards = 3
	// shardMemoryEntries keeps each shard's memory LRU smaller than its
	// share of the population (about eight questions), so part of the
	// cache hits come from disk. Every other setting is the graphpiped
	// and graphpipe-lb default.
	shardMemoryEntries = 4
)

// population returns the fixed questions primed in set-up: paper models at
// 4–16 devices and synth models at 2–8 devices, with artifacts of 1–65 KB.
// Their cold plans take about 2 s in all; the slowest paper questions
// (Sequential@8, MMT@16) are left out to keep set-up short.
func population() ([]service.Request, error) {
	reqs := []service.Request{
		{Model: "mmt", Devices: 4},
		{Model: "mmt", Devices: 8},
		{Model: "mmt", Devices: 8, Planner: "pipedream"},
		{Model: "candle-uno", Devices: 4},
		{Model: "candle-uno", Devices: 8},
		{Model: "candle-uno", Devices: 16},
		{Model: "candle-uno", Devices: 8, Planner: "pipedream"},
		{Model: "dlrm", Devices: 4},
		{Model: "dlrm", Devices: 8},
		{Model: "case-study", Devices: 8},
		{Model: "generalist", Devices: 8},
		{Model: "sequential", Devices: 4},
	}
	specs, err := synth.Population(nil, 12, 101)
	if err != nil {
		return nil, err
	}
	for i, s := range specs {
		reqs = append(reqs, service.Request{Model: s.String(), Devices: []int{2, 4, 8}[i%3]})
	}
	return reqs, nil
}

// coldShape is the shape of every never-seen question: a five-branch
// fanout, the branched kind of model GraphPipe targets. Its cold plan at 4
// devices took 9–13 ms in process across operator-cost seeds, above nearly
// every cached answer, so the 99th percentile falls among the cold plans.
// Shapes, families or device counts drawn from the seed would make that
// percentile move with each seed's mix of them.
var coldShape = synth.Spec{Family: "fanout", Depth: 3, Branches: 5}

// coldQuestion is the k-th never-seen question of a run: coldShape at 4
// devices with operator costs drawn from a seed that derives from the
// workload seed and k, in a seed range the population does not use.
func coldQuestion(seed int64, k int) (service.Request, error) {
	s := coldShape
	s.Seed = 1_000_000 + int64(newRNG(seed, fmt.Sprintf("fleet-mix/cold/%d", k)).next()>>20)
	rs, err := synth.Resolve(s)
	if err != nil {
		return service.Request{}, err
	}
	return service.Request{Model: rs.String(), Devices: 4}, nil
}

// fleetRig is an in-process fleet: three service shards behind a router,
// each on its own loopback listener. The shards go by fixed names
// (http://shard0 ...) that a dialer maps to their listeners, so the hash
// ring, and with it which shard owns which question, is the same in every
// run; keyed by the listeners' random ports it would reshuffle the cache
// load between shards from run to run.
type fleetRig struct {
	dir       string
	urls      []string
	addrs     map[string]string // shard host name -> listener address
	svcs      []*service.Service
	servers   []*http.Server
	router    *fleet.Router
	routerURL string
	ring      *fleet.Ring
	wg        sync.WaitGroup // serving goroutines
}

func startFleet(dir string) (*fleetRig, error) {
	f := &fleetRig{dir: dir, addrs: map[string]string{}}
	var lns []net.Listener
	for i := 0; i < shards; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll(lns)
			return nil, err
		}
		lns = append(lns, ln)
		name := fmt.Sprintf("shard%d", i)
		f.addrs[name+":80"] = ln.Addr().String()
		f.urls = append(f.urls, "http://"+name)
	}
	ring, err := fleet.NewRing(f.urls, 0)
	if err != nil {
		closeAll(lns)
		return nil, err
	}
	f.ring = ring
	for i := 0; i < shards; i++ {
		svc, err := service.New(service.Config{
			CacheDir:      filepath.Join(dir, fmt.Sprintf("shard%d", i)),
			MemoryEntries: shardMemoryEntries,
			Instance:      fmt.Sprintf("shard%d", i),
			Peers: &service.PeerConfig{
				Self: f.urls[i], Backends: f.urls, Ranker: ring, OfferMemos: true,
				// graphpiped's peer client: the fill timeout as its timeout.
				Client: f.httpClient(2 * time.Second),
			},
		})
		if err != nil {
			closeAll(lns[i:])
			f.close()
			return nil, err
		}
		f.svcs = append(f.svcs, svc)
		f.serve(lns[i], svc.Handler())
	}
	router, err := fleet.NewRouter(fleet.RouterConfig{
		Backends:        f.urls,
		LoadFactor:      1.25,
		RetryShed:       1,
		MaxRetryAfter:   2 * time.Second,
		HealthInterval:  2 * time.Second,
		VerifyArtifacts: true,
		Client:          f.httpClient(30 * time.Second), // graphpipe-lb's backend client
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = router
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.routerURL = "http://" + ln.Addr().String()
	f.serve(ln, router.Handler())
	return f, nil
}

// httpClient returns a client that reaches the shards by name.
func (f *fleetRig) httpClient(timeout time.Duration) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	var d net.Dialer
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if a, ok := f.addrs[addr]; ok {
			addr = a
		}
		return d.DialContext(ctx, network, addr)
	}
	return &http.Client{Timeout: timeout, Transport: tr}
}

func (f *fleetRig) serve(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
}

// close stops the router, lets the shards finish their memo offers to
// each other, stops every listener, waits for the serving goroutines and
// removes the cache directories.
func (f *fleetRig) close() {
	if f.router != nil {
		f.router.Close()
	}
	for _, svc := range f.svcs {
		svc.Close()
	}
	for _, srv := range f.servers {
		srv.Close()
	}
	f.wg.Wait()
	os.RemoveAll(f.dir)
}

func closeAll(lns []net.Listener) {
	for _, ln := range lns {
		ln.Close()
	}
}

// client is the one closed-loop client: it sends a request only after the
// previous one has been answered.
type client struct {
	http *http.Client
	base string
}

func newClient(base string, hc *http.Client) *client { return &client{http: hc, base: base} }

func (c *client) close() { c.http.CloseIdleConnections() }

// reply is one answered request.
type reply struct {
	status int
	header http.Header
	body   []byte
}

func (c *client) do(method, path string, body any, traced bool) (*reply, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(data)
	}
	url := c.base + path
	if traced {
		url += "?trace=1"
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &reply{status: resp.StatusCode, header: resp.Header, body: data}, nil
}

// known is what the client learned about one question: its fingerprint,
// the verified artifact bytes, and the evaluated throughput.
type known struct {
	body    []byte
	compact []byte  // body as a trace envelope carries it; nil until needed
	sps     float64 // 0 until first evaluated
}

// checker holds the client-side output checks of a fleet-mix run.
type checker struct {
	byFP map[string]*known
}

// artifact checks a 200 plan or artifact body: the first body seen for a
// fingerprint must pass strategy.VerifyArtifactBytes, and every later one
// must be byte-identical to it. A body that arrived inside a trace envelope
// is compact JSON (the envelope re-encodes it), so it is compared with the
// compacted first body and verified on its own.
func (ck *checker) artifact(fp string, body []byte, enveloped bool) error {
	if fp == "" {
		return errors.New("answer carries no fingerprint")
	}
	k := ck.byFP[fp]
	if k == nil || enveloped {
		if _, err := strategy.VerifyArtifactBytes(fp, body); err != nil {
			return fmt.Errorf("artifact %s: %w", fp, err)
		}
	}
	if k == nil {
		if enveloped {
			return fmt.Errorf("artifact %s: first seen inside a trace envelope", fp)
		}
		ck.byFP[fp] = &known{body: body}
		return nil
	}
	want := k.body
	if enveloped {
		if k.compact == nil {
			var buf bytes.Buffer
			if err := json.Compact(&buf, k.body); err != nil {
				return fmt.Errorf("artifact %s: %w", fp, err)
			}
			k.compact = buf.Bytes()
		}
		want = k.compact
	}
	if !bytes.Equal(want, body) {
		return fmt.Errorf("artifact %s: bytes differ from an earlier answer", fp)
	}
	return nil
}

// eval checks an evaluation answer: sim and runtime, and every repeat,
// must report the same throughput for a fingerprint.
func (ck *checker) eval(fp string, body []byte) error {
	var res service.EvalResult
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("eval %s: %w", fp, err)
	}
	k := ck.byFP[fp]
	if k == nil || res.Fingerprint != fp || res.Throughput <= 0 {
		return fmt.Errorf("eval %s: answer for %q with throughput %v", fp, res.Fingerprint, res.Throughput)
	}
	if k.sps != 0 && k.sps != res.Throughput {
		return fmt.Errorf("eval %s on %s: throughput %v, earlier %v", fp, res.Backend, res.Throughput, k.sps)
	}
	k.sps = res.Throughput
	return nil
}

// prime plans every population question through the router, cold, and
// returns their fingerprints in population order.
func prime(c *client, ck *checker, pop []service.Request) ([]string, error) {
	fps := make([]string, len(pop))
	for i, q := range pop {
		r, err := c.do("POST", "/v1/plan", q, false)
		if err != nil {
			return nil, err
		}
		if r.status != http.StatusOK {
			return nil, fmt.Errorf("priming %s@%d: status %d: %s", q.Model, q.Devices, r.status, r.body)
		}
		fps[i] = r.header.Get(service.HeaderFingerprint)
		if err := ck.artifact(fps[i], r.body, false); err != nil {
			return nil, err
		}
	}
	return fps, nil
}

// sample is one request of the measured phase.
type sample struct {
	kind    opKind
	seconds float64
	traced  bool
	traces  []*obs.TraceExport // from the trace envelopes (traced requests)
	evalS   float64            // eval.run span time (traced eval requests)
}

// fleetSession is a started, primed fleet with its client.
type fleetSession struct {
	rig    *fleetRig
	client *client
	check  *checker
	pop    []service.Request
	fps    []string
}

func (s *fleetSession) close() {
	s.client.close()
	s.rig.close()
}

func setUpFleet(b *bench) (*fleetSession, error) {
	pop, err := population()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(b.outDir, fmt.Sprintf("fleet-%d", os.Getpid()))
	rig, err := startFleet(dir)
	if err != nil {
		return nil, err
	}
	s := &fleetSession{rig: rig, client: newClient(rig.routerURL, rig.httpClient(60*time.Second)), check: &checker{byFP: map[string]*known{}}, pop: pop}
	if s.fps, err = prime(s.client, s.check, pop); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// issue sends one generated request and checks its answer. Its latency
// covers sending the request and reading the whole answer.
func (s *fleetSession) issue(b *bench, op fleetOp, traced bool) (sample, error) {
	method, path := "POST", "/v1/plan"
	var req any
	var fp string
	switch op.kind {
	case opPlan:
		fp, req = s.fps[op.rank], s.pop[op.rank]
	case opArtifact:
		fp = s.fps[op.rank]
		method, path = "GET", "/v1/artifacts/"+fp
	case opEvalSim, opEvalRuntime:
		fp = s.fps[op.rank]
		backend := "sim"
		if op.kind == opEvalRuntime {
			backend = "runtime"
		}
		path, req = "/v1/eval", service.EvalRequest{Fingerprint: fp, Backend: backend}
	case opCold:
		q, err := coldQuestion(b.seed, op.rank)
		if err != nil {
			return sample{}, err
		}
		req = q
	}
	t0 := time.Now()
	r, err := s.client.do(method, path, req, traced)
	smp := sample{kind: op.kind, seconds: time.Since(t0).Seconds(), traced: traced}
	if err != nil {
		return smp, err
	}
	body := r.body
	if traced {
		traces, payload, ok := obs.UnwrapEnvelope(r.body)
		if !ok {
			return smp, fmt.Errorf("%v request: traced answer is not an envelope", op.kind)
		}
		body = payload
		smp.traces = traces
		for _, t := range traces {
			for _, sp := range t.Spans {
				if sp.Name == "eval.run" {
					smp.evalS += float64(sp.DurUs) / 1e6
				}
			}
		}
	}
	if r.status != http.StatusOK {
		return smp, fmt.Errorf("%v request: status %d: %s", op.kind, r.status, strings.TrimSpace(string(body)))
	}
	switch op.kind {
	case opEvalSim, opEvalRuntime:
		return smp, s.check.eval(fp, body)
	case opCold:
		fp = r.header.Get(service.HeaderFingerprint)
		if s.check.byFP[fp] != nil {
			return smp, fmt.Errorf("cold question %d answered with the known artifact %s", op.rank, fp)
		}
		if traced {
			// A never-seen question has no earlier bytes to compare with;
			// verifying the enveloped copy is the whole check.
			_, err := strategy.VerifyArtifactBytes(fp, body)
			return smp, err
		}
	}
	return smp, s.check.artifact(fp, body, traced)
}

// measure runs the closed loop for the budget. With traceEvery > 0 every
// traceEvery-th request asks for a trace envelope.
func (s *fleetSession) measure(b *bench, traceEvery int) ([]sample, float64) {
	gen := newOpGen(b.seed, len(s.pop))
	var samples []sample
	start := time.Now()
	for i := 0; time.Since(start) < b.budget; i++ {
		traced := traceEvery > 0 && i%traceEvery == traceEvery-1
		op := gen.next()
		end := func() {}
		if traced {
			b.rec.setTrace(fmt.Sprintf("fleet-mix/%d", i))
			end = b.rec.begin("client." + op.kind.String())
		}
		smp, err := s.issue(b, op, traced)
		end()
		if traced {
			// The client span just closed is the last one recorded; the
			// fleet's spans hang under it.
			b.rec.adopt(smp.traces, len(b.rec.spans))
		}
		b.op(err)
		if err == nil {
			samples = append(samples, smp)
		}
	}
	return samples, time.Since(start).Seconds()
}

func runFleetMix(b *bench) error {
	if b.tracing {
		return tracedFleetMix(b)
	}
	t0 := time.Now()
	sess, err := setUpFleet(b)
	if err != nil {
		return err
	}
	defer sess.close()
	b.set("setup_s", "s", time.Since(t0).Seconds())
	b.sampled("setup_s", 1)
	// Start the measured phase from a settled heap: the set-up's garbage
	// would otherwise be collected at a different point of every run.
	runtime.GC()

	samples, wall := sess.measure(b, 0)
	lat := make([]float64, len(samples))
	kinds := map[string]int{}
	for i, s := range samples {
		lat[i] = s.seconds
		kinds[s.kind.String()]++
	}
	p99, err := percentile(lat, 99)
	if err != nil {
		return fmt.Errorf("latency_p99_s: %w", err)
	}
	b.set("latency_p50_s", "s", median(lat))
	b.sampled("latency_p50_s", len(lat))
	b.note("latency_p99_s", p99)
	b.sampled("latency_p99_s", len(lat))
	b.set("serve_rps", "req/s", float64(len(samples))/wall)
	b.note("requests_by_kind", kinds)
	b.note("request_phase_s", wall)
	b.note("client", "one closed-loop client")

	sps := sess.graphpipeThroughputs(b)
	g, err := geomean(sps)
	if err != nil {
		return fmt.Errorf("plan_sps: %w", err)
	}
	b.set("plan_sps", "samples/s", g)
	b.sampled("plan_sps", len(sps))
	return nil
}

// graphpipeThroughputs asks the fleet, after the measured phase, for the
// sim throughput of every GraphPipe plan of the population, each answer
// checked against the earlier ones for its fingerprint. The population is
// fixed, so these are the same in every run.
func (s *fleetSession) graphpipeThroughputs(b *bench) []float64 {
	var sps []float64
	for i, q := range s.pop {
		if q.Planner != "" {
			continue
		}
		r, err := s.client.do("POST", "/v1/eval", service.EvalRequest{Fingerprint: s.fps[i], Backend: "sim"}, false)
		if err == nil && r.status != http.StatusOK {
			err = fmt.Errorf("eval %s: status %d: %s", s.fps[i], r.status, strings.TrimSpace(string(r.body)))
		}
		if err == nil {
			err = s.check.eval(s.fps[i], r.body)
		}
		b.op(err)
		if err == nil {
			sps = append(sps, s.check.byFP[s.fps[i]].sps)
		}
	}
	return sps
}

// tracedFleetMix measures the per-layer metrics: one request in two
// carries ?trace=1 through router and shards, the service and fleet
// counters are read before and after, and after the request phase each
// layer is timed on its own with in-process calls.
func tracedFleetMix(b *bench) error {
	sess, err := setUpFleet(b)
	if err != nil {
		return err
	}
	defer sess.close()
	before, err := fleetCounters(sess)
	if err != nil {
		return err
	}
	samples, _ := sess.measure(b, 2)
	after, err := fleetCounters(sess)
	if err != nil {
		return err
	}

	var tracedLat, plainLat []float64
	evalCalls := map[opKind][]float64{}
	for _, s := range samples {
		if !s.traced {
			plainLat = append(plainLat, s.seconds)
			continue
		}
		tracedLat = append(tracedLat, s.seconds)
		if s.kind == opEvalSim || s.kind == opEvalRuntime {
			evalCalls[s.kind] = append(evalCalls[s.kind], s.evalS)
		}
	}
	// Spans per request count the fleet's own spans, not the client's.
	fleetSpans := len(b.rec.spans) - len(tracedLat)
	b.set("obs.spans_per_request", "count", float64(fleetSpans)/float64(len(tracedLat)))
	b.set("obs.trace_overhead", "s", median(tracedLat)-median(plainLat))
	b.note("trace_overhead_base_s", median(plainLat))
	b.sampled("obs.trace_overhead", len(tracedLat))
	for kind, name := range map[opKind]string{opEvalSim: "eval.sim_s", opEvalRuntime: "eval.runtime_s"} {
		if len(evalCalls[kind]) > 0 {
			b.set(name, "s", median(evalCalls[kind]))
			b.sampled(name, len(evalCalls[kind]))
		}
	}

	d := after.minus(before)
	if lookups := d.hitsMemory + d.hitsDisk + d.misses; lookups > 0 {
		b.set("service.hit_ratio", "ratio", float64(d.hitsMemory+d.hitsDisk)/float64(lookups))
		b.note("service_hit_ratio_base", lookups)
	}
	if hits := d.hitsMemory + d.hitsDisk; hits > 0 {
		b.set("service.disk_hit_share", "ratio", float64(d.hitsDisk)/float64(hits))
		b.note("service_disk_hit_share_base", hits)
	}
	b.set("service.planned", "count", float64(d.planned))
	b.set("service.memo_warm_hits", "count", float64(d.memoWarmHits))
	b.set("fleet.peer_fills", "count", float64(d.peerFills))
	b.set("fleet.retries", "count", float64(d.retries))
	b.set("fleet.breaker_opens", "count", float64(d.breakerOpens))

	return layerTimings(b, sess)
}

// counters are the fleet's own counters at one instant: the shards' stats
// summed, and the router's.
type counters struct {
	hitsMemory, hitsDisk, misses, planned, memoWarmHits, peerFills uint64
	retries, breakerOpens                                          uint64
}

func (c counters) minus(o counters) counters {
	return counters{
		hitsMemory: c.hitsMemory - o.hitsMemory, hitsDisk: c.hitsDisk - o.hitsDisk,
		misses: c.misses - o.misses, planned: c.planned - o.planned,
		memoWarmHits: c.memoWarmHits - o.memoWarmHits, peerFills: c.peerFills - o.peerFills,
		retries: c.retries - o.retries, breakerOpens: c.breakerOpens - o.breakerOpens,
	}
}

func fleetCounters(s *fleetSession) (counters, error) {
	var c counters
	for _, svc := range s.rig.svcs {
		st := svc.Stats()
		c.hitsMemory += st.HitsMemory
		c.hitsDisk += st.HitsDisk
		c.misses += st.Misses
		c.planned += st.Planned
		c.memoWarmHits += st.MemoWarmHits
		c.peerFills += st.PeerFills
	}
	r, err := s.client.do("GET", "/v1/stats", nil, false)
	if err != nil {
		return c, err
	}
	var fs fleet.FleetStats
	if err := json.Unmarshal(r.body, &fs); err != nil {
		return c, fmt.Errorf("router stats: %w", err)
	}
	// A retry is a 429 retried on the same shard or a failover to the
	// next one.
	c.retries = fs.Router.Retried429 + fs.Router.Failovers
	c.breakerOpens = fs.Router.BreakerOpens
	return c, nil
}

// layerRounds is how often each in-process layer timing repeats over the
// population; the medians are reported.
const layerRounds = 5

// layerTimings times each layer on its own, with in-process calls on the
// population: model building, the artifact codec, the owning shard's
// service calls by cache tier, and the router's overhead over a request
// sent straight to the owning shard.
func layerTimings(b *bench, s *fleetSession) error {
	ctx := context.Background()
	var build, dec, enc, ver, kb []float64
	for round := 0; round < layerRounds; round++ {
		for i, q := range s.pop {
			t0 := time.Now()
			if _, _, err := models.Build(q.Model, q.Branches, q.Devices); err != nil {
				return err
			}
			build = append(build, time.Since(t0).Seconds())
			body := s.check.byFP[s.fps[i]].body
			t0 = time.Now()
			art, err := strategy.DecodeArtifact(body)
			dec = append(dec, time.Since(t0).Seconds())
			if err != nil {
				return err
			}
			t0 = time.Now()
			if _, err := strategy.EncodeArtifact(art); err != nil {
				return err
			}
			enc = append(enc, time.Since(t0).Seconds())
			t0 = time.Now()
			_, err = strategy.VerifyArtifactBytes(s.fps[i], body)
			ver = append(ver, time.Since(t0).Seconds())
			b.op(err)
			if round == 0 {
				kb = append(kb, float64(len(body))/1024)
			}
		}
	}
	b.set("models.build_s", "s", median(build))
	b.set("strategy.decode_s", "s", median(dec))
	b.set("strategy.encode_s", "s", median(enc))
	b.set("strategy.verify_s", "s", median(ver))
	mean := 0.0
	for _, v := range kb {
		mean += v / float64(len(kb))
	}
	b.set("strategy.artifact_kb", "KB", mean)
	for _, n := range []string{"models.build_s", "strategy.decode_s", "strategy.encode_s", "strategy.verify_s"} {
		b.sampled(n, len(build))
	}

	owner := func(fp string) *service.Service {
		o := s.rig.ring.Owner(fp)
		for i, u := range s.rig.urls {
			if u == o {
				return s.rig.svcs[i]
			}
		}
		return nil
	}
	bySource := map[string][]float64{}
	var evalS []float64
	for round := 0; round < layerRounds; round++ {
		for i, q := range s.pop {
			svc := owner(s.fps[i])
			// The first call finds the plan on disk whenever the memory
			// LRU has evicted it; the second finds it in memory.
			for rep := 0; rep < 2; rep++ {
				t0 := time.Now()
				res, err := svc.Plan(ctx, q)
				d := time.Since(t0).Seconds()
				if err == nil {
					err = s.check.artifact(res.Fingerprint, res.Data, false)
				}
				b.op(err)
				if err == nil {
					bySource[res.Source] = append(bySource[res.Source], d)
				}
			}
			t0 := time.Now()
			_, err := svc.Eval(ctx, service.EvalRequest{Fingerprint: s.fps[i], Backend: "sim"})
			evalS = append(evalS, time.Since(t0).Seconds())
			b.op(err)
		}
	}
	for k := 0; k < layerRounds; k++ {
		q, err := coldQuestion(b.seed+1, k)
		if err != nil {
			return err
		}
		fp, err := q.CanonicalFingerprint()
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := owner(fp).Plan(ctx, q)
		d := time.Since(t0).Seconds()
		if err == nil {
			err = s.check.artifact(res.Fingerprint, res.Data, false)
		}
		b.op(err)
		if err == nil {
			bySource[res.Source] = append(bySource[res.Source], d)
		}
	}
	for src, name := range map[string]string{"hit-memory": "service.hit_memory_s", "hit-disk": "service.hit_disk_s", "miss": "service.miss_s"} {
		if ts := bySource[src]; len(ts) > 0 {
			b.set(name, "s", median(ts))
			b.sampled(name, len(ts))
		}
	}
	b.set("service.eval_s", "s", median(evalS))
	b.sampled("service.eval_s", len(evalS))

	// Router overhead: the same plan requests through the router and
	// straight to the owning shard. An untimed request to the owner first
	// brings the plan into its memory LRU, so that both timed requests find
	// it there; which of the two goes first alternates by round, and a
	// pair whose answers came from different cache tiers is left out.
	var viaRouter, direct []float64
	mixedTiers := 0
	shardClients := map[string]*client{}
	defer func() {
		for _, c := range shardClients {
			c.close()
		}
	}()
	planVia := func(c *client, q service.Request) (float64, string, error) {
		t0 := time.Now()
		r, err := c.do("POST", "/v1/plan", q, false)
		d := time.Since(t0).Seconds()
		if err == nil && r.status != http.StatusOK {
			err = fmt.Errorf("plan %s@%d: status %d", q.Model, q.Devices, r.status)
		}
		if err == nil {
			err = s.check.artifact(r.header.Get(service.HeaderFingerprint), r.body, false)
		}
		b.op(err)
		if err != nil {
			return 0, "", err
		}
		return d, r.header.Get(service.HeaderCache), nil
	}
	for round := 0; round < layerRounds; round++ {
		for i, q := range s.pop {
			o := s.rig.ring.Owner(s.fps[i])
			if shardClients[o] == nil {
				shardClients[o] = newClient(o, s.rig.httpClient(60*time.Second))
			}
			if _, _, err := planVia(shardClients[o], q); err != nil {
				continue
			}
			pair := []*client{s.client, shardClients[o]}
			if round%2 == 1 {
				pair[0], pair[1] = pair[1], pair[0]
			}
			var d [2]float64
			var src [2]string
			var err error
			for k, c := range pair {
				if d[k], src[k], err = planVia(c, q); err != nil {
					break
				}
			}
			if err != nil {
				continue
			}
			if src[0] != src[1] {
				mixedTiers++
				continue
			}
			for k, c := range pair {
				if c == s.client {
					viaRouter = append(viaRouter, d[k])
				} else {
					direct = append(direct, d[k])
				}
			}
		}
	}
	if len(viaRouter) == 0 {
		return fmt.Errorf("fleet.router_overhead_s: no pair of answers from the same cache tier")
	}
	b.set("fleet.router_overhead_s", "s", median(viaRouter)-median(direct))
	b.sampled("fleet.router_overhead_s", len(viaRouter))
	b.note("router_overhead_base_s", median(direct))
	b.note("router_overhead_pairs_left_out", mixedTiers)
	return nil
}
