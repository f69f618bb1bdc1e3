package service

import (
	"context"
	"sync"
)

// flightGroup is a minimal singleflight: concurrent Do calls with the same
// key share one execution of fn. The repository vendors nothing, so this
// is hand-rolled; it differs from x/sync/singleflight in returning the
// shared flag to every caller (the stats layer counts deduplicated waits)
// and in not supporting Forget — plan fingerprints are stable, so a
// completed flight's result is immediately re-obtainable from the cache
// and flights never need invalidation.
type flightGroup struct {
	mu      sync.Mutex
	wg      sync.WaitGroup
	flights map[string]*flight
}

type flight struct {
	done chan struct{}
	val  *cacheEntry
	err  error
}

// Do executes fn once per key among concurrent callers. The leader (the
// call that started fn) gets shared=false; every caller that joined an
// in-progress flight gets shared=true and the leader's result, and runs
// joined (when non-nil) before it waits. The result is not retained
// after the last waiter returns: a later Do with the same key runs fn
// again, so fn must itself check whether a previous flight's result is
// already cached.
//
// fn runs in its own goroutine and always runs to completion — its
// result publishes to the cache even if every waiter leaves. Each
// waiter's patience is bounded by its own ctx: a waiter whose deadline
// fires returns ctx.Err() immediately while the flight continues, so a
// request's time budget cuts off the wait, never the work. Callers pass
// a cancellation-detached context (see detachCancellation) when one
// client hanging up must not abandon the wait.
func (g *flightGroup) Do(ctx context.Context, key string, joined func(), fn func() (*cacheEntry, error)) (val *cacheEntry, shared bool, err error) {
	g.mu.Lock()
	if g.flights == nil {
		g.flights = make(map[string]*flight)
	}
	if f, ok := g.flights[key]; ok {
		g.mu.Unlock()
		if joined != nil {
			joined()
		}
		select {
		case <-f.done:
			return f.val, true, f.err
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	g.flights[key] = f
	g.wg.Add(1)
	g.mu.Unlock()

	go func() {
		defer g.wg.Done()
		f.val, f.err = fn()
		g.mu.Lock()
		delete(g.flights, key)
		g.mu.Unlock()
		close(f.done)
	}()
	select {
	case <-f.done:
		return f.val, false, f.err
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}

// wait blocks until every in-progress flight has completed; part of the
// service's graceful shutdown.
func (g *flightGroup) wait() { g.wg.Wait() }
