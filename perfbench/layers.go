package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/graph"
)

// costCounter is the traced run's view of the cost model layer. It builds
// the same stack costmodel.NewDefault builds — a Cached layer over the
// Analytic roofline — with a timing wrapper above the cache (every call a
// planner makes) and a counting wrapper below it (the calls the cache could
// not answer).
type costCounter struct {
	calls   atomic.Int64 // every call into the cost model
	lookups atomic.Int64 // calls that consult the stage or TPS cache
	misses  atomic.Int64 // cache lookups that reached the Analytic model
	busyNs  atomic.Int64 // wall time inside the cost model
}

// model returns a cost model over topo that reports into c.
func (c *costCounter) model(topo *cluster.Topology) costmodel.Model {
	inner := &missModel{Model: costmodel.New(costmodel.DefaultParams(), topo), c: c}
	return &timedModel{Model: costmodel.NewCached(inner), c: c}
}

type timedModel struct {
	costmodel.Model
	c *costCounter
}

func (m *timedModel) enter(lookup bool) time.Time {
	m.c.calls.Add(1)
	if lookup {
		m.c.lookups.Add(1)
	}
	return time.Now()
}

func (m *timedModel) leave(t0 time.Time) { m.c.busyNs.Add(int64(time.Since(t0))) }

func (m *timedModel) OpForwardTime(op graph.Op, b float64, dev cluster.Device) float64 {
	defer m.leave(m.enter(false))
	return m.Model.OpForwardTime(op, b, dev)
}

func (m *timedModel) OpBackwardTime(op graph.Op, b float64, dev cluster.Device) float64 {
	defer m.leave(m.enter(false))
	return m.Model.OpBackwardTime(op, b, dev)
}

func (m *timedModel) Stage(g *graph.Graph, cfg costmodel.StageConfig) costmodel.StageCosts {
	defer m.leave(m.enter(true))
	return m.Model.Stage(g, cfg)
}

func (m *timedModel) TPS(g *graph.Graph, cfg costmodel.StageConfig, miniBatch int) float64 {
	defer m.leave(m.enter(true))
	return m.Model.TPS(g, cfg, miniBatch)
}

func (m *timedModel) StageMemory(g *graph.Graph, cfg costmodel.StageConfig, inFlight int) float64 {
	defer m.leave(m.enter(true))
	return m.Model.StageMemory(g, cfg, inFlight)
}

func (m *timedModel) FitsMemory(g *graph.Graph, cfg costmodel.StageConfig, inFlight int) bool {
	defer m.leave(m.enter(true))
	return m.Model.FitsMemory(g, cfg, inFlight)
}

func (m *timedModel) MaxTPS(g *graph.Graph, miniBatch int) float64 {
	defer m.leave(m.enter(false))
	return m.Model.MaxTPS(g, miniBatch)
}

// missModel sits between the cache and the Analytic model: each Stage or
// TPS call reaching it is a cache miss.
type missModel struct {
	costmodel.Model
	c *costCounter
}

func (m *missModel) Stage(g *graph.Graph, cfg costmodel.StageConfig) costmodel.StageCosts {
	m.c.misses.Add(1)
	return m.Model.Stage(g, cfg)
}

func (m *missModel) TPS(g *graph.Graph, cfg costmodel.StageConfig, miniBatch int) float64 {
	m.c.misses.Add(1)
	return m.Model.TPS(g, cfg, miniBatch)
}

// allocMB reports the heap bytes allocated since process start, in MB.
// Deltas around a call attribute allocation to it while nothing else runs.
func allocMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// peakRSSMB reads the kernel's high-water mark of this process's resident
// memory (VmHWM), which covers set-up as well as the measured phase.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}
