package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Workload is one named benchmark input. Why says what the workload
// exercises that the others do not; WORKLOADS.md maps each per-layer
// metric to the end-to-end metric and workload it should move.
type Workload struct {
	Name string
	Why  string
	new  func(seed int64) instance
}

// Workloads are the benchmark's inputs, all run in one process per
// invocation, one workload per process.
var Workloads = []Workload{
	{
		Name: "paper-study",
		// Closed loop mirroring `panoptes -all -out`: the 15-browser
		// crawl at zero modelled RTT, then RunIdleAll(10m) on its own
		// world, then every table and figure rendered and the results
		// directory written.
		Why: "the paper's own workload and CPU-bound: TLS on three sides, GC, browser, mitm, taint, " +
			"retained capture and report/export all do most of their work here",
		new: func(seed int64) instance {
			return &crawlInstance{spec: paperStudy, order: siteOrder(seed, paperStudy.sites)}
		},
	},
	{
		Name: "wan-crawl",
		// The same fleet over a few sites with 10 ms modelled upstream
		// RTT (BenchmarkCrawlScaling's value); no idle run or export.
		Why: "modelled round trips set the wall time, so changes that cut or overlap round trips show here " +
			"and a CPU-only gain should barely move it",
		new: func(seed int64) instance {
			return &crawlInstance{spec: wanCrawl, order: siteOrder(seed, wanCrawl.sites)}
		},
	},
	{
		Name: "population",
		// popsim over a retain=none world: no browser, proxy or TLS code
		// runs; a seeded user count.
		Why: "the streaming pipeline over mostly unsampled, unretained flows, a different use of capture and " +
			"pipeline than paper-study, and the only workload that runs popsim",
		new: func(seed int64) instance { return newPopInstance(seed) },
	},
}

// Lookup finds a workload by name.
func Lookup(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(Workloads))
	for i, w := range Workloads {
		names[i] = w.Name
	}
	sort.Strings(names)
	return Workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// crawlSpec sizes a crawl workload.
type crawlSpec struct {
	sites  int           // sites the world hosts (WorldConfig.Sites); each iteration visits all of them
	rtt    time.Duration // WorldConfig.UpstreamRTT
	idle   time.Duration // RunIdleAll duration on a second world; 0 = none
	export bool          // render every table and figure, write the results directory
}

var (
	paperStudy = crawlSpec{sites: 10, idle: 10 * time.Minute, export: true}
	wanCrawl   = crawlSpec{sites: 4, rtt: 10 * time.Millisecond}
)

// siteOrder is the seed's visiting order of the hosted sites. The seed
// orders a fixed site set rather than drawing sites from a larger pool:
// drawn sites differ in how many flows a visit makes, which spread
// flows_per_s across seeds by more than any bound worth keeping.
func siteOrder(seed int64, sites int) []int {
	return rand.New(rand.NewSource(seed)).Perm(sites)
}

// population sizing: the CLI's default admission (200 sessions/s) and
// synthesis parallelism (1) over 20 s of virtual time. Short iterations
// let a run take its median over many of them, so a host slowdown
// during one or two does not move the run's result.
const (
	popHosted   = 200
	popDuration = 20 * time.Second
	popSlice    = time.Second
	popMinUsers = 20_000
)

// popUsers is the seeded user count. Every count here exceeds the
// sessions admission lets in over popDuration, so the work per
// iteration (sessions, flows) stays the same while resident user state
// varies.
func popUsers(seed int64) int {
	return popMinUsers + int(uint64(seed)%21)*1000
}
