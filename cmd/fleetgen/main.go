// Command fleetgen replays a Zipf-skewed synthetic planning workload
// against a planning endpoint — a graphpipe-lb router or a single
// graphpiped — and reports fleet-level latency percentiles, per-tier
// cache hit ratios, peer-fill counts, and shed rates.
//
// The workload is deterministic in -seed: the same flags replay the
// identical request sequence against any fleet, which is what makes
// before/after comparisons across topology changes meaningful. Output
// goes two ways at once: a `go test -bench`-style line on stdout, and
// (with -o) the full reduced result as JSON. Assertion flags
// (-min-hit-ratio, -max-errors) turn a replay into a smoke gate:
// scripts/fleet_smoke.sh uses them to fail CI when the caches stop
// absorbing the hot head, and compares the line's warm p99 against its
// cold p50.
//
// Example — 2000 requests, Zipf 1.2, over a 48-question population:
//
//	fleetgen -target http://127.0.0.1:7100 -requests 2000 -zipf 1.2 \
//	    -population 48 -concurrency 16 -o fleet.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"graphpipe/internal/loadgen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fleetgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		target      = flag.String("target", "http://127.0.0.1:7100", "base URL of the router or daemon to load")
		requests    = flag.Int("requests", 1000, "number of requests to replay")
		concurrency = flag.Int("concurrency", 8, "concurrent replay workers")
		zipfS       = flag.Float64("zipf", 1.1, "popularity skew exponent (0 = uniform)")
		population  = flag.Int("population", 32, "distinct planning questions in the workload")
		families    = flag.String("families", "", "comma-separated synth families to draw from (default: all)")
		devices     = flag.String("devices", "2,3,4", "comma-separated device-count ladder")
		planner     = flag.String("planner", "graphpipe", "planner every request asks for")
		seed        = flag.Int64("seed", 1, "workload seed: population and request sequence derive from it")
		timeout     = flag.Duration("timeout", 60*time.Second, "per-request timeout")
		out         = flag.String("o", "", "also write the full result as JSON to this file")
		budgetMs    = flag.Int("budget-ms", 0, "stamp every request with this end-to-end budget in ms (0: none)")
		pace        = flag.Duration("pace", 0, "per-worker sleep between requests (0: replay flat out)")
		verifyPlans = flag.Bool("verify-plans", false,
			"track a content hash per fingerprint and count 200s whose bytes differ (byte-identity check)")
		traceSample = flag.Int("trace-sample", 0,
			"trace every Nth request (?trace=1 + deterministic trace IDs) and report the slow tail's "+
				"phase attribution — queue vs search vs network (0 disables)")
		minHitRatio  = flag.Float64("min-hit-ratio", -1, "fail unless the warm hit ratio reaches this (smoke gate; -1 disables)")
		maxErrors    = flag.Int("max-errors", -1, "fail if more than this many requests errored (-1 disables)")
		maxErrorRate = flag.Float64("max-error-rate", -1,
			"fail if (errors + deadline expiries) / requests exceeds this (chaos gate; -1 disables)")
	)
	flag.Parse()

	devs, err := parseDevices(*devices)
	if err != nil {
		return err
	}
	var fams []string
	if *families != "" {
		fams = strings.Split(*families, ",")
	}

	res, err := loadgen.Run(loadgen.Config{
		Target:      *target,
		Requests:    *requests,
		Concurrency: *concurrency,
		ZipfS:       *zipfS,
		Population:  *population,
		Families:    fams,
		Devices:     devs,
		Planner:     *planner,
		Seed:        *seed,
		BudgetMs:    *budgetMs,
		VerifyPlans: *verifyPlans,
		Pace:        *pace,
		TraceSample: *traceSample,
		Client:      &http.Client{Timeout: *timeout},
	})
	if err != nil {
		return err
	}

	fmt.Println(res.BenchLine())
	fmt.Fprintf(os.Stderr,
		"fleetgen: %d/%d ok (%d shed, %d errors, %d deadline), hit ratio %.3f, %d distinct plans, %d peer fills, %d planned, %d byte mismatches, %d alternate plans, p50 %.4fs p99 %.4fs\n",
		res.Completed, res.Requests, res.Shed, res.Errors, res.DeadlineExceeded, res.HitRatio,
		res.DistinctFingerprints, res.PeerFills, res.Planned, res.ByteMismatches, res.AlternatePlans, res.Overall.P50, res.Overall.P99)
	if p := res.Phases; p != nil && p.Exemplars > 0 {
		fmt.Fprintf(os.Stderr,
			"fleetgen: slow tail (%d traced, %d exemplars): queue %.0f%%, search %.0f%%, cache %.0f%%, peer %.0f%%, network %.0f%%, other %.0f%%\n",
			p.Traced, p.Exemplars, 100*p.QueueShare, 100*p.SearchShare, 100*p.CacheShare,
			100*p.PeerShare, 100*p.NetworkShare, 100*p.OtherShare)
	}

	if *out != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}

	// Gates run after the numbers are out, so a failing run still leaves
	// its evidence on stdout and in -o.
	if *minHitRatio >= 0 && res.HitRatio < *minHitRatio {
		return fmt.Errorf("hit ratio %.3f below required %.3f", res.HitRatio, *minHitRatio)
	}
	if *maxErrors >= 0 && res.Errors > *maxErrors {
		return fmt.Errorf("%d request errors exceed allowed %d", res.Errors, *maxErrors)
	}
	if *maxErrorRate >= 0 && res.ErrorRate > *maxErrorRate {
		return fmt.Errorf("error rate %.4f exceeds allowed %.4f", res.ErrorRate, *maxErrorRate)
	}
	if *verifyPlans && res.ByteMismatches > 0 {
		return fmt.Errorf("%d byte mismatches: a cache tier served non-identical bytes for one fingerprint", res.ByteMismatches)
	}
	return nil
}

func parseDevices(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -devices entry %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-devices is empty")
	}
	return out, nil
}
