package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphpipe/internal/memosnap"
)

// fakeRanker is a PeerRanker with a fixed walk order, standing in for
// fleet.Ring (which the service package cannot import without a cycle).
type fakeRanker struct{ owners []string }

func (f fakeRanker) Owners(string) []string { return f.owners }

// postPlan asks for the standard test question at an explicit mini-batch
// size — distinct sizes make distinct fingerprints, so singleflight
// cannot collapse them.
func postPlan(t *testing.T, url string, miniBatch int) *http.Response {
	t.Helper()
	body := fmt.Sprintf(`{"model":"case-study","devices":4,"mini_batch":%d,"planner":"stub"}`, miniBatch)
	resp, err := http.Post(url+"/v1/plan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestOverloadRetryAfterHeader pins the 429 contract the fleet router
// builds its backoff on: a rejected request carries a Retry-After header
// derived from queue pressure — here one gated search in flight plus one
// queued, over one worker, is exactly 2 seconds.
func TestOverloadRetryAfterHeader(t *testing.T) {
	gate := make(chan struct{})
	stub.reset(gate)
	gateClosed := false
	releaseGate := func() {
		if !gateClosed {
			gateClosed = true
			close(gate)
		}
	}
	s := newService(t, Config{Workers: 1, QueueDepth: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	// Registered after srv.Close so it runs first: the gate must open
	// before the server (and then the service) can drain the held
	// requests. Idempotent because the happy path opens it in-test.
	defer releaseGate()

	done := make(chan int, 2)
	for _, miniBatch := range []int{16, 32} {
		go func(miniBatch int) {
			resp := postPlan(t, srv.URL, miniBatch)
			resp.Body.Close()
			done <- resp.StatusCode
		}(miniBatch)
	}
	waitFor(t, "one search in flight and one queued", func() bool {
		snap := s.Stats()
		return snap.InFlight == 1 && snap.Queued == 1
	})

	resp := postPlan(t, srv.URL, 64)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want %q (ceil((1 queued + 1 in flight) / 1 worker))", got, "2")
	}

	releaseGate()
	for i := 0; i < 2; i++ {
		if status := <-done; status != http.StatusOK {
			t.Fatalf("held request finished with %d, want 200", status)
		}
	}
}

// TestOverloadErrorRetryAfter pins the typed error the header derives
// from: a shed still matches ErrOverloaded via errors.Is, and the
// OverloadError carries the observed depths and the ceil(backlog /
// workers) hint.
func TestOverloadErrorRetryAfter(t *testing.T) {
	a := newAdmission(1, 1)
	defer a.close()
	block := make(chan struct{})
	defer close(block)
	for i := 0; i < 2; i++ {
		go a.run(context.Background(), func() { <-block })
		want := int64(i) // first submission goes in flight, second queues
		waitFor(t, "admission gauges to settle", func() bool {
			return a.inflight.Load() == 1 && a.queued.Load() == want
		})
	}

	err := a.run(context.Background(), func() {})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("run returned %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("run returned %T, want *OverloadError", err)
	}
	if oe.Queued != 1 || oe.InFlight != 1 {
		t.Fatalf("OverloadError = %+v, want 1 queued / 1 in flight", oe)
	}
	if oe.RetryAfter != 2*time.Second {
		t.Fatalf("RetryAfter = %v, want 2s (ceil(2 backlog / 1 worker))", oe.RetryAfter)
	}
}

// TestPeerFillByteIdenticalNoSecondColdSearch is the fleet acceptance
// property at the service level: a plan computed cold on daemon A is
// served byte-identically by daemon B through peer fill, with exactly
// one planner run between them, and B holds it in both local tiers
// afterwards.
func TestPeerFillByteIdenticalNoSecondColdSearch(t *testing.T) {
	stub.reset(nil)
	ctx := context.Background()

	a := newService(t, Config{CacheDir: t.TempDir()})
	asrv := httptest.NewServer(a.Handler())
	defer asrv.Close()

	resA, err := a.Plan(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if resA.Source != "miss" {
		t.Fatalf("A source = %q, want miss", resA.Source)
	}

	const self = "http://b.invalid"
	b := newService(t, Config{CacheDir: t.TempDir(), Peers: &PeerConfig{
		Self:     self,
		Backends: []string{self, asrv.URL},
	}})
	resB, err := b.Plan(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if resB.Source != "hit-peer" {
		t.Fatalf("B source = %q, want hit-peer", resB.Source)
	}
	if string(resB.Data) != string(resA.Data) {
		t.Fatal("peer-filled artifact bytes differ from the origin shard's")
	}
	if got := stub.calls.Load(); got != 1 {
		t.Fatalf("planner ran %d times across the fleet, want exactly 1", got)
	}
	if snap := b.Stats(); snap.PeerFills != 1 || snap.Planned != 0 {
		t.Fatalf("B stats = %d peer fills / %d planned, want 1 / 0", snap.PeerFills, snap.Planned)
	}

	// The fill landed in both of B's tiers: a repeat is a memory hit, and
	// the disk tier can serve the artifact without the peer.
	if res, err := b.Plan(ctx, testRequest()); err != nil || res.Source != "hit-memory" {
		t.Fatalf("repeat on B = (%v, %v), want hit-memory", res, err)
	}
	if _, err := b.ArtifactLocal(ctx, resA.Fingerprint); err != nil {
		t.Fatalf("B disk tier missing the filled artifact: %v", err)
	}
}

// TestPeerFillMissDegradesToPlan pins the recursion guard and the
// failure mode: a peer consult carries HeaderPeerFill (so the peer
// answers local-only), and a fleet-wide miss degrades to this daemon's
// own cold search.
func TestPeerFillMissDegradesToPlan(t *testing.T) {
	stub.reset(nil)
	headerSeen := make(chan string, 8)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		headerSeen <- r.Header.Get(HeaderPeerFill)
		http.NotFound(w, r)
	}))
	defer peer.Close()

	const self = "http://b.invalid"
	s := newService(t, Config{Peers: &PeerConfig{
		Self:     self,
		Backends: []string{self, peer.URL},
	}})
	res, err := s.Plan(context.Background(), testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "miss" {
		t.Fatalf("source = %q, want miss (peer had nothing)", res.Source)
	}
	if got := <-headerSeen; got == "" {
		t.Fatal("peer consult did not carry the peer-fill header; fleets would recurse")
	}
	if snap := s.Stats(); snap.PeerMisses != 1 || snap.Planned != 1 {
		t.Fatalf("stats = %d peer misses / %d planned, want 1 / 1", snap.PeerMisses, snap.Planned)
	}
}

// TestPeerFillCountsTimeoutsAndErrors pins the split the stats surface
// promises: a peer that runs out the fill timeout ticks peer_timeouts,
// a peer that answers 5xx ticks peer_errors, and a fleet-wide failure
// still degrades to this daemon's own cold search — never an error to
// the caller.
func TestPeerFillCountsTimeoutsAndErrors(t *testing.T) {
	stub.reset(nil)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
	}))
	defer slow.Close()
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer broken.Close()

	const self = "http://self.invalid"
	s := newService(t, Config{Peers: &PeerConfig{
		Self:        self,
		Backends:    []string{self, slow.URL, broken.URL},
		Ranker:      fakeRanker{owners: []string{slow.URL, broken.URL, self}},
		FillTimeout: 50 * time.Millisecond,
	}})
	res, err := s.Plan(context.Background(), testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "miss" {
		t.Fatalf("source = %q, want miss (fleet consults all failed)", res.Source)
	}
	snap := s.Stats()
	if snap.PeerTimeouts != 1 {
		t.Errorf("peer_timeouts = %d, want 1 (the slow peer)", snap.PeerTimeouts)
	}
	if snap.PeerErrors != 1 {
		t.Errorf("peer_errors = %d, want 1 (the 500 peer)", snap.PeerErrors)
	}
	if snap.PeerMisses != 1 || snap.Planned != 1 {
		t.Errorf("stats = %d peer misses / %d planned, want 1 / 1", snap.PeerMisses, snap.Planned)
	}
}

// TestPeerFillCorruptBodyDegradesToMiss pins the no-wrong-bytes rule on
// the fill path: a peer 200 whose body does not verify against the
// fingerprint is a counted miss — the local planner re-derives the
// answer, and the corrupt bytes are never installed or served.
func TestPeerFillCorruptBodyDegradesToMiss(t *testing.T) {
	stub.reset(nil)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"version":1,"strategy":{}}`)) // decodes, wrong fingerprint
	}))
	defer peer.Close()

	const self = "http://self.invalid"
	s := newService(t, Config{Peers: &PeerConfig{
		Self:     self,
		Backends: []string{self, peer.URL},
	}})
	res, err := s.Plan(context.Background(), testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "miss" {
		t.Fatalf("source = %q, want miss (corrupt peer body must not fill)", res.Source)
	}
	snap := s.Stats()
	if snap.PeerErrors != 1 {
		t.Errorf("peer_errors = %d, want 1 (the unverifiable body)", snap.PeerErrors)
	}
	if snap.PeerFills != 0 {
		t.Errorf("peer_fills = %d, want 0", snap.PeerFills)
	}
	if got := stub.calls.Load(); got != 1 {
		t.Errorf("planner ran %d times, want 1 (the local recovery path)", got)
	}
}

// TestPeerFillStopsWhenBudgetExpiresMidWalk pins deadline propagation
// inside the peer walk: when the request's own budget dies during the
// first consult, the remaining peers are NOT charged a dead deadline
// each — the walk stops immediately and the caller gets the deadline
// error.
func TestPeerFillStopsWhenBudgetExpiresMidWalk(t *testing.T) {
	stub.reset(nil)
	var calls1, calls2 atomic.Int64
	mkSlow := func(calls *atomic.Int64) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			select {
			case <-r.Context().Done():
			case <-time.After(10 * time.Second):
			}
		}))
	}
	p1, p2 := mkSlow(&calls1), mkSlow(&calls2)
	defer p1.Close()
	defer p2.Close()

	const self = "http://self.invalid"
	s := newService(t, Config{Peers: &PeerConfig{
		Self:        self,
		Backends:    []string{self, p1.URL, p2.URL},
		Ranker:      fakeRanker{owners: []string{p1.URL, p2.URL, self}},
		FillTimeout: 2 * time.Second,
	}})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.Plan(ctx, testRequest())
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Plan returned %v, want context.DeadlineExceeded", err)
	}
	// The caller was released at its deadline, not after a FillTimeout
	// per peer (2s each would be ~4s).
	if elapsed > time.Second {
		t.Errorf("Plan returned after %v; the budget was 60ms", elapsed)
	}
	if got := calls1.Load(); got != 1 {
		t.Errorf("first peer saw %d consults, want 1", got)
	}
	if got := calls2.Load(); got != 0 {
		t.Errorf("second peer saw %d consults, want 0 (budget died during the first)", got)
	}
	waitFor(t, "peer_timeouts to tick", func() bool {
		return s.Stats().PeerTimeouts == 1
	})
}

// TestMemoOfferEndpoint drives POST /v1/memos: a valid GPMEMO body
// installs into the snapshot store, garbage is a 400, and a daemon with
// warm-starting disabled refuses offers outright.
func TestMemoOfferEndpoint(t *testing.T) {
	s := newService(t, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	snap := &memosnap.Snapshot{
		Key:     memosnap.Key{GraphHash: "test-graph", ShapeSig: 7, CostSig: 9},
		Devices: 4,
		Searches: []memosnap.SearchMemo{
			{MiniBatch: 8, RootB: 4, NumZones: 1},
		},
	}
	resp, err := http.Post(srv.URL+"/v1/memos", "application/octet-stream",
		strings.NewReader(string(memosnap.Encode(snap))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("valid offer: status = %d, want 204", resp.StatusCode)
	}
	if got := s.Stats().MemoOffersReceived; got != 1 {
		t.Fatalf("memo_offers_received = %d, want 1", got)
	}
	if s.memos.Lookup(snap.Key) == nil {
		t.Fatal("offered snapshot not installed in the memo store")
	}

	resp, err = http.Post(srv.URL+"/v1/memos", "application/octet-stream",
		strings.NewReader("not a snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage offer: status = %d, want 400", resp.StatusCode)
	}

	disabled := newService(t, Config{MemoSnapshots: -1})
	dsrv := httptest.NewServer(disabled.Handler())
	defer dsrv.Close()
	resp, err = http.Post(dsrv.URL+"/v1/memos", "application/octet-stream",
		strings.NewReader(string(memosnap.Encode(snap))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("offer to disabled daemon: status = %d, want 400", resp.StatusCode)
	}
}

// TestMemoOffersReachNeighborOwners pins the push side: a cold plan's
// memo snapshot is offered to the ring owner of the neighboring device
// counts, asynchronously, and decodes on arrival.
func TestMemoOffersReachNeighborOwners(t *testing.T) {
	stub.reset(nil)
	received := make(chan *memosnap.Snapshot, 8)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/memos" {
			data, err := io.ReadAll(r.Body)
			if err != nil {
				t.Errorf("reading memo offer: %v", err)
				w.WriteHeader(http.StatusBadRequest)
				return
			}
			snap, err := memosnap.Decode(data)
			if err != nil {
				t.Errorf("offered memo does not decode: %v", err)
				w.WriteHeader(http.StatusBadRequest)
				return
			}
			received <- snap
			w.WriteHeader(http.StatusNoContent)
			return
		}
		http.NotFound(w, r) // artifact consults find nothing
	}))
	defer peer.Close()

	const self = "http://a.invalid"
	s := newService(t, Config{Peers: &PeerConfig{
		Self:       self,
		Backends:   []string{self, peer.URL},
		Ranker:     fakeRanker{owners: []string{peer.URL, self}},
		OfferMemos: true,
	}})
	if _, err := s.Plan(context.Background(), testRequest()); err != nil {
		t.Fatal(err)
	}

	select {
	case snap := <-received:
		if snap.Entries() == 0 {
			t.Error("offered snapshot carries no memo entries")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no memo offer arrived at the neighbor owner")
	}
	waitFor(t, "memo_offers_sent to tick", func() bool {
		return s.Stats().MemoOffersSent >= 1
	})
}
