package main

import (
	"math"
	"sort"
)

// rng is a splitmix64 stream: no math/rand, so a seed replays the same
// sequence on every machine and Go release.
type rng struct{ state uint64 }

func newRNG(seed int64, salt string) *rng {
	h := uint64(seed) ^ 0x9E3779B97F4A7C15
	for _, b := range []byte(salt) {
		h ^= uint64(b)
		h *= 0x100000001B3
	}
	return &rng{state: h}
}

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

// zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s by inverting the cumulative weights.
type zipf struct{ cdf []float64 }

func newZipf(s float64, n int) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	total := 0.0
	for i := range z.cdf {
		total += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = total
	}
	for i := range z.cdf {
		z.cdf[i] /= total
	}
	z.cdf[n-1] = 1
	return z
}

func (z *zipf) sample(u float64) int {
	i := sort.Search(len(z.cdf), func(i int) bool { return z.cdf[i] > u })
	if i == len(z.cdf) {
		i--
	}
	return i
}

// opKind is one fleet-mix request type.
type opKind int

const (
	opPlan opKind = iota
	opArtifact
	opEvalSim
	opEvalRuntime
	opCold
)

var opNames = [...]string{"plan", "artifact", "eval-sim", "eval-runtime", "cold"}

func (k opKind) String() string { return opNames[k] }

// coldEvery places one never-seen question at every coldEvery-th request:
// a fixed 2% of the traffic plans cold, so cache writes happen beside reads
// at the same rate whatever the seed.
const coldEvery = 50

// mixShares are the shares of the remaining 98% of requests, in opKind
// order: plan 72%, artifact GET 10%, eval by fingerprint on the sim and
// the runtime backend 8% each.
var mixShares = [...]float64{72, 10, 8, 8}

// fleetOp is one generated request: its kind and, for every kind but
// opCold, the population rank it asks about; for opCold, the index of the
// never-seen question.
type fleetOp struct {
	kind opKind
	rank int
}

// opGen generates the fleet-mix request sequence from the workload seed:
// Zipf(1.1) ranks over the primed population and the mix above.
type opGen struct {
	r     *rng
	z     *zipf
	n     int // requests generated so far
	colds int
}

func newOpGen(seed int64, population int) *opGen {
	return &opGen{r: newRNG(seed, "fleet-mix/ops"), z: newZipf(1.1, population)}
}

func (g *opGen) next() fleetOp {
	g.n++
	if g.n%coldEvery == 0 {
		g.colds++
		return fleetOp{kind: opCold, rank: g.colds - 1}
	}
	u := g.r.float() * (mixShares[0] + mixShares[1] + mixShares[2] + mixShares[3])
	kind := opPlan
	for k, share := range mixShares {
		if u < share {
			kind = opKind(k)
			break
		}
		u -= share
	}
	return fleetOp{kind: kind, rank: g.z.sample(g.r.float())}
}
