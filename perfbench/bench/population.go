package bench

import (
	"fmt"
	"time"

	"panoptes/internal/analysis"
	"panoptes/internal/capture"
	"panoptes/internal/core"
	"panoptes/internal/hostlist"
	"panoptes/internal/pii"
)

// popInstance is the population workload for one seed.
type popInstance struct {
	seed  int64
	users int
}

func newPopInstance(seed int64) *popInstance {
	return &popInstance{seed: seed, users: popUsers(seed)}
}

func (p *popInstance) iterate(it *iterCtx) (*iterResult, error) {
	r := newIterResult()
	setup := it.begin("setup")
	t0 := time.Now()
	w, err := core.NewWorld(core.WorldConfig{Sites: popHosted, Retain: capture.RetainNone})
	if err != nil {
		return nil, fmt.Errorf("world: %w", err)
	}
	defer w.Close()
	e, err := w.NewPopulation(core.PopulationConfig{Population: p.users, Duration: popDuration, Seed: p.seed})
	if err != nil {
		return nil, fmt.Errorf("population: %w", err)
	}
	r.setup = time.Since(t0)
	setup.End()

	var tap *Tap
	var ref *popReference
	switch {
	case it.traced():
		tap = NewTap(w.Pipeline, it.rec, false)
		w.DB.SetTap(tap)
	case it.reference:
		ref = newPopReference(w.Pipeline, w.Suite.Names(), w.Clock.Now())
		w.DB.SetTap(ref)
	}

	var slices []float64
	m, err := it.measure(func() error {
		run := it.begin("run")
		var err error
		it.phase("run", func() {
			for at := popSlice; at <= popDuration && err == nil; at += popSlice {
				sp := it.begin("slice")
				t := time.Now()
				err = e.RunUntil(at)
				slices = append(slices, time.Since(t).Seconds())
				sp.End()
			}
		})
		run.End()
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("population run: %w", err)
	}
	r.take(m)
	s := e.Stats()
	r.visits = s.Visits
	r.flows = s.FlowsCommitted
	r.sessions = s.Sessions

	if r.digest, err = popDigest(w, e.Curve().Series()); err != nil {
		return nil, err
	}
	if ref != nil {
		r.problems = append(r.problems, ref.check(w)...)
	}
	resident := w.DB.Engine.Len() + w.DB.Native.Len() + w.DB.Engine.Pending() + w.DB.Native.Pending()
	if resident != 0 {
		r.problems = append(r.problems, fmt.Sprintf("population: retain=none left %d flows resident", resident))
	}
	if !it.traced() {
		return r, nil
	}
	L := r.layer
	r.observeNS = tap.ObserveNS()
	busy := Sum(r.observeNS)
	L["capture.engine_flows"] = float64(tap.engine.Load())
	L["capture.native_flows"] = float64(tap.native.Load())
	L["capture.retracts"] = float64(tap.retracts.Load())
	L["capture.flows_per_visit"] = float64(tap.Flows()) / float64(s.Visits)
	L["capture.resident_flows"] = float64(resident)
	L["pipeline.busy_pct"] = 100 * busy / float64(r.wall)
	L["popsim.run_s"] = r.wall.Seconds()
	L["popsim.self_pct"] = 100 * (float64(r.wall) - busy) / float64(r.wall)
	r.sliceS = slices
	L["popsim.sessions"] = float64(s.Sessions)
	L["popsim.visits"] = float64(s.Visits)
	L["popsim.sampled_visits"] = float64(s.SampledVisits)
	L["popsim.events_scheduled"] = float64(s.EventsScheduled)
	L["popsim.throttled"] = float64(s.Throttled)
	L["popsim.peak_backlog"] = float64(s.PeakBacklog)
	return r, nil
}

// popDigest normalises what a population run reports: Table 2 and the
// phone-home curve.
func popDigest(w *core.World, curve []analysis.Fig5Series) (Digest, error) {
	d := Digest{}
	if err := d.Add("table2", w.Suite.PII.Matrix()); err != nil {
		return nil, err
	}
	if err := d.Add("curve", curve); err != nil {
		return nil, err
	}
	return d, nil
}

// popReference is the commit tap of a population run's reference
// iteration. It passes every call to the pipeline and builds the
// seed's reference outputs beside it: Table 2 by batch pii.BuildMatrix
// replays over chunks of native flows (cells are "leaked at least
// once", so chunk matrices merge by union), and the phone-home curve by
// its own binning.
type popReference struct {
	inner    capture.Tap
	names    []string
	start    time.Time
	chunk    *capture.Store
	matrix   pii.Matrix
	bins     map[string][]int
	dests    map[string]map[string]int
	total    map[string]int
	binSecs  int
	numBins  int
	observed int
}

const refChunk = 4096

func newPopReference(inner capture.Tap, names []string, start time.Time) *popReference {
	return &popReference{
		inner: inner, names: names, start: start, chunk: capture.NewStore(),
		bins: map[string][]int{}, dests: map[string]map[string]int{}, total: map[string]int{},
		binSecs: 10, numBins: int(popDuration.Seconds()) / 10,
	}
}

// Observe implements capture.Tap. The population engine commits from
// one goroutine, so the reference needs no lock.
func (p *popReference) Observe(f *capture.Flow) {
	p.inner.Observe(f)
	if f.Origin != capture.OriginNative {
		return
	}
	p.observed++
	p.chunk.Add(f)
	if p.chunk.Len() >= refChunk {
		p.flush()
	}
	off := int(f.Time.Sub(p.start).Seconds()) / p.binSecs
	if off < 0 {
		return
	}
	if off >= p.numBins {
		off = p.numBins - 1
	}
	if p.bins[f.Browser] == nil {
		p.bins[f.Browser] = make([]int, p.numBins)
		p.dests[f.Browser] = map[string]int{}
	}
	p.bins[f.Browser][off]++
	p.dests[f.Browser][hostlist.RegistrableDomain(f.Host)]++
	p.total[f.Browser]++
}

func (p *popReference) flush() {
	m, _ := pii.BuildMatrix(p.chunk, p.names)
	p.matrix = MatrixOr(p.matrix, m)
	p.chunk.Reset()
}

// Retract implements capture.Tap.
func (p *popReference) Retract(attempt int64) { p.inner.Retract(attempt) }

// Seal implements capture.Tap.
func (p *popReference) Seal(attempt int64) { p.inner.Seal(attempt) }

// check compares the streaming suite and curve with the reference.
func (p *popReference) check(w *core.World) []string {
	p.flush()
	var bad []string
	if p.observed == 0 {
		bad = append(bad, "population: no native flows committed")
	}
	if msg := diff("population table2 (stream vs batch)", w.Suite.PII.Matrix(), p.matrix); msg != "" {
		bad = append(bad, msg)
	}
	res := w.Pipeline.Results()[core.PopulationCurveName]
	series, ok := res.([]analysis.Fig5Series)
	if !ok {
		return append(bad, "population: curve analyzer not registered")
	}
	want := make([]analysis.Fig5Series, 0, len(p.names))
	for _, b := range p.names {
		s := analysis.Fig5Series{Browser: b, BinSeconds: p.binSecs, Cumulative: make([]int, p.numBins),
			DestShares: map[string]float64{}, Total: p.total[b]}
		run := 0
		for i := range s.Cumulative {
			if bins := p.bins[b]; bins != nil {
				run += bins[i]
			}
			s.Cumulative[i] = run
		}
		for d, n := range p.dests[b] {
			s.DestShares[d] = 100 * float64(n) / float64(s.Total)
		}
		want = append(want, s)
	}
	if msg := diff("population curve (stream vs recount)", series, want); msg != "" {
		bad = append(bad, msg)
	}
	return bad
}
