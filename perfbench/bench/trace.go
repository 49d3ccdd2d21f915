package bench

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"panoptes/internal/capture"
)

// Span is one recorded interval. Times are wall-clock nanoseconds since
// the recorder's epoch. Spans of one page visit share Browser and Visit.
type Span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Iter    int    `json:"iter,omitempty"`
	Browser string `json:"browser,omitempty"`
	Visit   string `json:"visit,omitempty"`
	Flow    int64  `json:"flow,omitempty"`
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Recorder keeps the traced run's spans in memory until WriteJSONL.
// It is safe for concurrent use: taps and probes record from the
// proxy's and the campaign's goroutines.
type Recorder struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts an empty recorder whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *Recorder) add(s Span) {
	if s.ID == 0 {
		s.ID = r.ids.Add(1)
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Open is a span that has started and not yet ended.
type Open struct {
	r    *Recorder
	span Span
}

// Begin starts a span under parent (0 for a root). A nil recorder
// returns a nil *Open whose methods do nothing, so untraced runs share
// the traced code path.
func (r *Recorder) Begin(name string, parent *Open, iter int) *Open {
	if r == nil {
		return nil
	}
	s := Span{ID: r.ids.Add(1), Name: name, Start: r.now(), Iter: iter}
	if parent != nil {
		s.Parent = parent.span.ID
	}
	return &Open{r: r, span: s}
}

// ID is the span's identifier (0 for a nil span).
func (o *Open) ID() int64 {
	if o == nil {
		return 0
	}
	return o.span.ID
}

// End closes the span and records it.
func (o *Open) End() {
	if o == nil {
		return
	}
	o.span.End = o.r.now()
	o.r.add(o.span)
}

// Spans returns a copy of every recorded span in start order.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	out := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// GroupVisits adds one "visit" span per (iteration, browser, visit URL)
// among the exchange spans directly under phase, from the commit of
// the visit's first exchange to the response of its last, and
// re-parents those exchanges onto it. It returns the visit spans'
// durations.
func (r *Recorder) GroupVisits(phase *Open) []time.Duration {
	if r == nil || phase == nil {
		return nil
	}
	type key struct {
		iter           int
		browser, visit string
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	visits := map[key]*Span{}
	var order []key
	for i := range r.spans {
		s := &r.spans[i]
		if s.Parent != phase.span.ID || s.Name != "exchange" || s.Visit == "" {
			continue
		}
		k := key{s.Iter, s.Browser, s.Visit}
		v := visits[k]
		if v == nil {
			v = &Span{ID: r.ids.Add(1), Parent: phase.span.ID, Name: "visit",
				Start: s.Start, End: s.End, Iter: s.Iter, Browser: s.Browser, Visit: s.Visit}
			visits[k] = v
			order = append(order, k)
		}
		if s.Start < v.Start {
			v.Start = s.Start
		}
		if s.End > v.End {
			v.End = s.End
		}
		s.Parent = v.ID
	}
	out := make([]time.Duration, 0, len(order))
	for _, k := range order {
		r.spans = append(r.spans, *visits[k])
		out = append(out, visits[k].Dur())
	}
	return out
}

// WriteJSONL writes every span, one JSON object per line, in start
// order.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SelfTimes sums, per span name, each span's duration minus the part
// of it its children cover.
func SelfTimes(spans []Span) map[string]time.Duration {
	kids := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.Dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent Span, children []Span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max64(c.Start, parent.Start), min64(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		if x[1] > curHi {
			curHi = x[1]
		}
	}
	total += curHi - curLo
	return time.Duration(total)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// observed is the tap's record of one committed flow, waiting for the
// probe to close the flow's exchange.
type observed struct {
	start, end     int64
	browser, visit string
}

// Tap wraps a world's commit tap (the analysis pipeline): every call
// passes through unchanged, timed. Install it with DB.SetTap before any
// traffic flows.
type Tap struct {
	inner capture.Tap
	rec   *Recorder
	// pair keeps each observation until the probe's Response for the
	// same flow ID turns it into an exchange span (proxied traffic
	// only; synthesized population flows never reach a probe).
	pair bool

	engine, native, retracts atomic.Int64
	wsUpgrades               atomic.Int64 // WebSocket upgrade requests (not frames)

	mu       sync.Mutex
	observeN []float64 // per-flow Observe wall time, ns
	pending  map[int64]observed
	phase    *Open
	iter     int
}

// NewTap wraps inner. With pair set, observations are held for a Probe
// sharing the same recorder.
func NewTap(inner capture.Tap, rec *Recorder, pair bool) *Tap {
	return &Tap{inner: inner, rec: rec, pair: pair, pending: map[int64]observed{}}
}

// SetPhase parents subsequent spans under phase.
func (t *Tap) SetPhase(phase *Open, iter int) {
	t.mu.Lock()
	t.phase, t.iter = phase, iter
	t.mu.Unlock()
}

// Observe implements capture.Tap.
func (t *Tap) Observe(f *capture.Flow) {
	start := t.rec.now()
	t.inner.Observe(f)
	end := t.rec.now()
	if f.Origin == capture.OriginEngine {
		t.engine.Add(1)
	} else {
		t.native.Add(1)
	}
	if f.Transport == capture.TransportWS && f.Method != "WS" {
		t.wsUpgrades.Add(1)
	}
	t.mu.Lock()
	t.observeN = append(t.observeN, float64(end-start))
	if t.pair {
		t.pending[f.ID] = observed{start: start, end: end, browser: f.Browser, visit: f.VisitURL}
	}
	t.mu.Unlock()
}

// Retract implements capture.Tap.
func (t *Tap) Retract(attempt int64) {
	t.retracts.Add(1)
	t.inner.Retract(attempt)
}

// Seal implements capture.Tap.
func (t *Tap) Seal(attempt int64) { t.inner.Seal(attempt) }

// Reset forwards capture.DB.Reset's optional tap reset.
func (t *Tap) Reset() {
	if r, ok := t.inner.(interface{ Reset() }); ok {
		r.Reset()
	}
}

// take removes and returns the observation of flow id.
func (t *Tap) take(id int64) (observed, bool) {
	t.mu.Lock()
	o, ok := t.pending[id]
	delete(t.pending, id)
	t.mu.Unlock()
	return o, ok
}

// ObserveNS returns the per-flow Observe times recorded so far.
func (t *Tap) ObserveNS() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.observeN...)
}

// Flows is the number of flows observed.
func (t *Tap) Flows() int64 { return t.engine.Load() + t.native.Load() }

// Probe is a mitm addon, installed with Proxy.Use after the taint
// splitter, that times each exchange from its Request hook (the flow is
// committed by then) to its Response hook. It never modifies the flow,
// request or response. Flows are pooled and reused, so in-flight
// exchanges are keyed by flow ID, never by pointer.
type Probe struct {
	tap *Tap

	exchanges atomic.Int64

	mu         sync.Mutex
	inflight   map[int64]int64
	upstreamMS []float64
}

// NewProbe pairs a probe with the tap wrapping the same world's
// pipeline.
func NewProbe(tap *Tap) *Probe {
	return &Probe{tap: tap, inflight: map[int64]int64{}}
}

// Request implements mitm.Addon.
func (p *Probe) Request(f *capture.Flow, _ *http.Request) {
	now := p.tap.rec.now()
	p.mu.Lock()
	p.inflight[f.ID] = now
	p.mu.Unlock()
}

// Response implements mitm.Addon. The exchange span runs from the
// flow's commit (the tap's Observe, which the splitter triggers before
// this probe's Request) to the response, with the observe and the
// upstream round trip as its children.
func (p *Probe) Response(f *capture.Flow, _ *http.Response) {
	end := p.tap.rec.now()
	p.mu.Lock()
	start, ok := p.inflight[f.ID]
	delete(p.inflight, f.ID)
	if ok {
		p.upstreamMS = append(p.upstreamMS, float64(end-start)/1e6)
	}
	p.mu.Unlock()
	if !ok {
		return
	}
	p.exchanges.Add(1)
	rec := p.tap.rec
	p.tap.mu.Lock()
	phase, iter := p.tap.phase, p.tap.iter
	p.tap.mu.Unlock()
	o, seen := p.tap.take(f.ID)
	ex := Span{ID: rec.ids.Add(1), Parent: phase.ID(), Name: "exchange", Start: start, End: end,
		Iter: iter, Flow: f.ID}
	if seen {
		ex.Start, ex.Browser, ex.Visit = o.start, o.browser, o.visit
		rec.add(Span{Parent: ex.ID, Name: "observe", Start: o.start, End: o.end, Iter: iter, Flow: f.ID})
	}
	rec.add(Span{Parent: ex.ID, Name: "upstream", Start: start, End: end, Iter: iter, Flow: f.ID})
	rec.add(ex)
}

// Exchanges is the number of exchanges that completed.
func (p *Probe) Exchanges() int64 { return p.exchanges.Load() }

// UpstreamMS returns the Request→Response times recorded so far.
func (p *Probe) UpstreamMS() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]float64(nil), p.upstreamMS...)
}
