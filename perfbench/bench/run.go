package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"
)

// instance runs iterations of one workload for one seed.
type instance interface {
	iterate(it *iterCtx) (*iterResult, error)
}

// iterCtx is what one iteration needs to know about its run.
type iterCtx struct {
	iter int
	// reference marks the run's first, unmeasured iteration: it warms
	// caches up and builds the seed's reference outputs.
	reference bool
	// rec is set on traced iterations only.
	rec    *Recorder
	parent *Open
	outDir string
	// rss samples resident memory from the iteration's start (set-up
	// included) to the end of its measured window.
	rss *RSSSampler

	profile []byte // CPU profile of the measured window, traced only
}

func (it *iterCtx) traced() bool { return it.rec != nil }

func (it *iterCtx) begin(name string) *Open { return it.rec.Begin(name, it.parent, it.iter) }

// phase runs fn under a pprof "phase" label, so the CPU fold can tell
// rendering and export from the crawl.
func (it *iterCtx) phase(name string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels("phase", name), func(context.Context) { fn() })
}

// measured is the cost of an iteration's run, after its set-up.
type measured struct {
	wall, cpu time.Duration
	gostats   GoStats
	peakRSS   float64 // MB, set-up included
}

// measure times fn's wall and CPU time and runtime counters, with the
// CPU profiler on for traced iterations.
func (it *iterCtx) measure(fn func() error) (measured, error) {
	var prof bytes.Buffer
	if it.traced() {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return measured{}, fmt.Errorf("cpu profile: %w", err)
		}
	}
	g0, c0, t0 := ReadGoStats(), CPUTime(), time.Now()
	err := fn()
	m := measured{wall: time.Since(t0), cpu: CPUTime() - c0, gostats: ReadGoStats().Sub(g0), peakRSS: it.rss.Stop()}
	if it.traced() {
		pprof.StopCPUProfile()
		it.profile = prof.Bytes()
	}
	return m, err
}

// iterResult is one iteration's measurements and outputs.
type iterResult struct {
	setup, wall, cpu time.Duration
	gostats          GoStats
	peakRSS          float64
	visits, failed   int
	flows            int64
	sessions         int // population only

	digest   Digest
	problems []string

	// Traced iterations only.
	layer      map[string]float64
	visitMS    []time.Duration
	upstreamMS []float64
	observeNS  []float64
	sliceS     []float64
	profile    []byte
}

func newIterResult() *iterResult { return &iterResult{layer: map[string]float64{}} }

func (r *iterResult) take(m measured) {
	r.wall, r.cpu, r.gostats, r.peakRSS = m.wall, m.cpu, m.gostats, m.peakRSS
}

// Options selects one benchmark run.
type Options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	OutDir   string // run artefacts go in OutDir/<workload>-seed<seed>[-trace]
	Revision string
	// Log receives progress lines (nil: discard).
	Log func(format string, args ...any)
}

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what a run prints as its last line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Record is everything a run keeps beside its result.
type Record struct {
	Workload   string         `json:"workload"`
	Why        string         `json:"why"`
	Seed       int64          `json:"seed"`
	Trace      bool           `json:"trace"`
	Host       Host           `json:"host"`
	Size       map[string]any `json:"size"`
	Iterations []IterRecord   `json:"iterations"`
	Problems   []string       `json:"problems,omitempty"`
	Result     Result         `json:"result"`
}

// IterRecord is one measured iteration.
type IterRecord struct {
	Iter    int     `json:"iter"`
	Traced  bool    `json:"traced"`
	SetupS  float64 `json:"setup_s"`
	WallS   float64 `json:"wall_s"`
	CPUS    float64 `json:"cpu_s"`
	RSSMB   float64 `json:"peak_rss_mb"`
	Visits  int     `json:"visits"`
	Failed  int     `json:"failed"`
	Flows   int64   `json:"flows"`
	Problem bool    `json:"problem,omitempty"`
}

// Minimum measured iterations per run: enough for a median untraced;
// traced runs need traced iterations for the layer numbers and at
// least one untraced one for the tracing overhead.
const (
	minTimed           = 3
	minTraced          = 2
	minUntracedInTrace = 1

	rssInterval = 5 * time.Millisecond
)

// Run executes one benchmark run: a reference iteration, then measured
// iterations until Seconds have passed, checking every iteration's
// outputs. Traced runs alternate traced and untraced iterations.
func Run(o Options) (*Record, error) {
	wl, err := Lookup(o.Workload)
	if err != nil {
		return nil, err
	}
	logf := o.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	dir := filepath.Join(o.OutDir, fmt.Sprintf("%s-seed%d", wl.Name, o.Seed))
	if o.Trace {
		dir += "-trace"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rec := &Record{Workload: wl.Name, Why: wl.Why, Seed: o.Seed, Trace: o.Trace, Host: ReadHost(o.Revision)}
	inst := wl.new(o.Seed)

	var recorder *Recorder
	var root *Open
	if o.Trace {
		recorder = NewRecorder()
		root = recorder.Begin("workload", nil, 0)
	}
	refCtx := &iterCtx{iter: 0, reference: true, outDir: dir, rss: StartRSSSampler(rssInterval)}
	ref, err := inst.iterate(refCtx)
	refCtx.rss.Stop()
	if err != nil {
		return nil, fmt.Errorf("reference iteration: %w", err)
	}
	rec.Problems = append(rec.Problems, ref.problems...)
	logf("reference: setup %.3fs wall %.3fs visits %d flows %d", ref.setup.Seconds(), ref.wall.Seconds(), ref.visits, ref.flows)

	var timed, traced []*iterResult
	start := time.Now()
	for i := 1; ; i++ {
		// Every iteration starts from a collected heap returned to the
		// OS, as a fresh process would.
		debug.FreeOSMemory()
		it := &iterCtx{iter: i, outDir: dir, rss: StartRSSSampler(rssInterval)}
		// Traced runs start untraced, then alternate.
		if o.Trace && i%2 == 0 {
			it.rec, it.parent = recorder, root
		}
		r, err := inst.iterate(it)
		it.rss.Stop()
		if err != nil {
			return nil, fmt.Errorf("iteration %d: %w", i, err)
		}
		r.profile = it.profile
		bad := append(r.problems, r.digest.Compare(ref.digest)...)
		rec.Problems = append(rec.Problems, bad...)
		rec.Iterations = append(rec.Iterations, IterRecord{
			Iter: i, Traced: it.traced(), SetupS: r.setup.Seconds(), WallS: r.wall.Seconds(), CPUS: r.cpu.Seconds(),
			RSSMB: r.peakRSS, Visits: r.visits, Failed: r.failed, Flows: r.flows, Problem: len(bad) > 0,
		})
		logf("iter %d traced=%v: setup %.3fs wall %.3fs cpu %.3fs visits %d flows %d", i, it.traced(),
			r.setup.Seconds(), r.wall.Seconds(), r.cpu.Seconds(), r.visits, r.flows)
		if it.traced() {
			traced = append(traced, r)
		} else {
			timed = append(timed, r)
		}
		enough := len(timed) >= minTimed
		if o.Trace {
			enough = len(traced) >= minTraced && len(timed) >= minUntracedInTrace
		}
		if enough && time.Since(start).Seconds() >= o.Seconds {
			break
		}
	}
	root.End()

	all := append(append([]*iterResult(nil), timed...), traced...)
	res := Result{Correct: len(rec.Problems) == 0, Metrics: map[string]Metric{}}
	for _, r := range all {
		res.Attempted += r.visits
		res.Failed += r.failed
	}
	rec.Size = map[string]any{"visits_per_iteration": ref.visits, "flows_per_iteration": ref.flows}
	if ref.sessions > 0 {
		rec.Size["sessions_per_iteration"] = ref.sessions
	}
	for k, v := range sizeOf(inst) {
		rec.Size[k] = v
	}
	if o.Trace {
		if err := layerMetrics(res.Metrics, traced, timed, recorder, dir); err != nil {
			return nil, err
		}
	} else {
		endToEnd(res.Metrics, timed, res)
	}
	rec.Result = res
	if err := writeJSON(filepath.Join(dir, "record.json"), rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// sizeOf describes the workload's fixed size knobs for provenance.
func sizeOf(inst instance) map[string]any {
	switch x := inst.(type) {
	case *crawlInstance:
		return map[string]any{"hosted_sites": x.spec.sites, "visit_order": x.order,
			"upstream_rtt_ms": x.spec.rtt.Milliseconds(), "idle_s": x.spec.idle.Seconds(), "browsers": 15,
			"parallelism": runtime.NumCPU()}
	case *popInstance:
		return map[string]any{"users": x.users, "virtual_s": popDuration.Seconds(), "hosted_sites": popHosted}
	}
	return nil
}

// EndToEnd lists the metrics of an untraced run with their units.
var EndToEnd = []struct{ Name, Unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"visits_per_s", "1/s"},
	{"flows_per_s", "1/s"},
	{"cpu_ms_per_visit", "ms"},
	{"ok_pct", "%"},
}

func endToEnd(out map[string]Metric, timed []*iterResult, res Result) {
	col := func(f func(r *iterResult) float64) float64 {
		xs := make([]float64, len(timed))
		for i, r := range timed {
			xs[i] = f(r)
		}
		return Median(xs)
	}
	v := map[string]float64{
		"setup_s": col(func(r *iterResult) float64 { return r.setup.Seconds() }),
		"wall_s":  col(func(r *iterResult) float64 { return r.wall.Seconds() }),
		"cpu_s":   col(func(r *iterResult) float64 { return r.cpu.Seconds() }),
		// A closed world leaves goroutines and heap behind, so resident
		// memory climbs with every iteration; the first measured
		// iteration's peak is the one that does not depend on how many
		// iterations fit into the run.
		"peak_rss_mb":      timed[0].peakRSS,
		"visits_per_s":     col(func(r *iterResult) float64 { return float64(r.visits) / r.wall.Seconds() }),
		"flows_per_s":      col(func(r *iterResult) float64 { return float64(r.flows) / r.wall.Seconds() }),
		"cpu_ms_per_visit": col(func(r *iterResult) float64 { return r.cpu.Seconds() * 1e3 / float64(r.visits) }),
		"ok_pct":           100 * (1 - float64(res.Failed)/float64(res.Attempted)),
	}
	for _, m := range EndToEnd {
		out[m.Name] = Metric{Value: v[m.Name], Unit: m.Unit}
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
