package main

import (
	"math"
	"testing"

	"graphpipe/internal/obs"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelfTimeNestedChildren(t *testing.T) {
	// root [0,10] > mid [1,7] > leaf [2,4]; root's self time excludes mid,
	// mid's excludes leaf, and leaf has no children.
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "mid", Start: 1, End: 7},
		{ID: 3, Parent: 2, Name: "leaf", Start: 2, End: 4},
	}
	self := selfTimes(spans)
	for i, want := range []float64{4, 4, 2} {
		if !near(self[i], want) {
			t.Errorf("%s self = %v, want %v", spans[i].Name, self[i], want)
		}
	}
}

func TestSelfTimeBackToBackAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "b", Start: 3, End: 5},   // back to back with a
		{ID: 4, Parent: 1, Name: "c", Start: 4, End: 6},   // overlaps b: counted once
		{ID: 5, Parent: 1, Name: "d", Start: 9, End: 12},  // sticks out of root
		{ID: 6, Name: "other", Start: 0, End: 1},          // another root
		{ID: 7, Parent: 6, Name: "x", Start: 0.5, End: 1}, // not root's child
	}
	self := selfTimes(spans)
	// Children cover [1,6] and [9,10] of root: 6 of its 10 seconds.
	if !near(self[0], 4) {
		t.Errorf("root self = %v, want 4", self[0])
	}
	if !near(self[5], 0.5) {
		t.Errorf("other self = %v, want 0.5", self[5])
	}
	per := byName(spans)
	if lt := per["root"]; lt.count != 1 || !near(lt.total, 10) || !near(lt.self, 4) {
		t.Errorf("byName(root) = %+v", *lt)
	}
}

func TestRecorderNestsByOpenSpans(t *testing.T) {
	r := newRecorder()
	r.setTrace("t1")
	endA := r.begin("a")
	endB := r.begin("b")
	endB()
	endC := r.begin("c")
	endC()
	endA()
	r.setTrace("t2")
	r.begin("d")()
	want := []struct {
		name, trace string
		parent      int
	}{{"a", "t1", 0}, {"b", "t1", 1}, {"c", "t1", 1}, {"d", "t2", 0}}
	if len(r.spans) != len(want) {
		t.Fatalf("%d spans, want %d", len(r.spans), len(want))
	}
	for i, w := range want {
		s := r.spans[i]
		if s.Name != w.name || s.Trace != w.trace || s.Parent != w.parent || s.End < s.Start {
			t.Errorf("span %d = %+v, want %+v", i, s, w)
		}
	}
	var nilRec *recorder
	nilRec.setTrace("x")
	nilRec.begin("ignored")()
	if nilRec.hook() != nil {
		t.Error("a nil recorder must hand the planners a nil span hook")
	}
}

func TestAdoptLinksProcesses(t *testing.T) {
	r := newRecorder()
	r.setTrace("req")
	end := r.begin("client")
	end()
	router := &obs.TraceExport{StartUnixUs: r.t0.UnixMicro(), Spans: []obs.SpanExport{
		{ID: "lb-1", Name: "router.plan", StartUs: 10, DurUs: 100},
		{ID: "lb-2", Parent: "lb-1", Name: "backend.attempt", StartUs: 20, DurUs: 80},
	}}
	shard := &obs.TraceExport{StartUnixUs: r.t0.UnixMicro() + 25, Spans: []obs.SpanExport{
		{ID: "s-1", Parent: "lb-2", Name: "service.plan", StartUs: 0, DurUs: 50},
	}}
	r.adopt([]*obs.TraceExport{router, shard}, 1)
	byN := map[string]span{}
	for _, s := range r.spans {
		byN[s.Name] = s
	}
	if byN["router.plan"].Parent != 1 || byN["backend.attempt"].Parent != byN["router.plan"].ID ||
		byN["service.plan"].Parent != byN["backend.attempt"].ID {
		t.Errorf("adopted spans not linked: %+v", r.spans)
	}
	if got := byN["service.plan"].Start - byN["router.plan"].Start; !near(got, 15e-6) {
		t.Errorf("shard span starts %v after the router's, want 15µs", got)
	}
}
