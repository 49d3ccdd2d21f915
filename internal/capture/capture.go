// Package capture is Panoptes' flow store: every HTTP(S) exchange the MITM
// proxy intercepts becomes a Flow, and the taint addon files it into one
// of two databases — engine traffic (requests the website caused) and
// native traffic (requests the browser app generated itself) — mirroring
// the paper's "two different local databases" (§2.3).
package capture

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"panoptes/internal/obs"
)

func init() {
	obs.Default.Help("capture_flows_total", "Flows filed into each capture database since process start.")
	obs.Default.Help("capture_store_flows", "Flows currently held by each capture database.")
	obs.Default.Help("capture_store_bytes", "Request wire bytes filed into each capture database (responses are accounted by mitm_bytes_total, which is populated after the flow is stored).")
	obs.Default.Help("capture_spilled_total", "Committed flows spilled to the JSONL sink instead of being retained in memory, per capture database.")
}

// Tap observes a store's commit stream. Observe is called once per
// Add, from the committing goroutine, after the flow has been filed
// (or buffered/spilled when retention is off). Retract is called when
// a navigation attempt's flows are quarantined; Seal when an attempt
// commits and can no longer be retracted. The streaming analysis
// pipeline (internal/pipeline) implements Tap.
type Tap interface {
	Observe(f *Flow)
	Retract(attempt int64)
	Seal(attempt int64)
}

// Finisher is an optional Tap extension for readers that need a flow's
// response fields. A flow committed with Store.AddOpen is still being
// written by its producer (Status, RespBytes, Err); Finish is called once
// for it, from the producer, after the last write. Flows committed with
// Add are complete when observed and get no Finish.
type Finisher interface {
	Finish(f *Flow)
}

// Taps fans the commit stream out to several taps in order — the
// streaming analysis pipeline and the export plane (internal/sink)
// ride the same stream side by side.
type Taps []Tap

// Observe implements Tap.
func (ts Taps) Observe(f *Flow) {
	for _, t := range ts {
		t.Observe(f)
	}
}

// Retract implements Tap.
func (ts Taps) Retract(attempt int64) {
	for _, t := range ts {
		t.Retract(attempt)
	}
}

// Seal implements Tap.
func (ts Taps) Seal(attempt int64) {
	for _, t := range ts {
		t.Seal(attempt)
	}
}

// Finish implements Finisher for the members that do.
func (ts Taps) Finish(f *Flow) {
	for _, t := range ts {
		if fin, ok := t.(Finisher); ok {
			fin.Finish(f)
		}
	}
}

// Reset forwards DB.Reset's optional tap reset to every member that
// supports it (the analysis pipeline does; the export plane keeps its
// counters — an export stream has no between-experiments rewind).
func (ts Taps) Reset() {
	for _, t := range ts {
		if r, ok := t.(interface{ Reset() }); ok {
			r.Reset()
		}
	}
}

// RetainMode selects which capture databases keep committed flows
// resident in memory. With streaming analysis on the commit tap the
// retained store is only needed for post-hoc exports (JSONL/HAR,
// checkpoints), so large campaigns can drop flows after analysis.
type RetainMode string

// Retention modes for the -retain flag.
const (
	RetainAll    RetainMode = "all"    // keep engine and native flows (default)
	RetainNative RetainMode = "native" // keep native flows, drop engine flows after the tap
	RetainNone   RetainMode = "none"   // drop all flows after the tap (spill to JSONL if a sink is set)
)

// Origin classifies who generated a request.
type Origin string

// Origins.
const (
	OriginEngine Origin = "engine" // caused by the visited website
	OriginNative Origin = "native" // generated by the browser app itself
)

// MaxBodyCapture caps stored request/response body prefixes.
const MaxBodyCapture = 8 * 1024

// Transport names the data-plane protocol a flow travelled over. The
// MITM proxy stamps it at capture time from the ALPN-negotiated dispatch
// (plus content sniffing for DoH, which rides HTTP but carries DNS
// messages), and every layer downstream — pool recycling, HAR export,
// NDJSON sink envelopes, checkpoint/resume, the per-transport coverage
// analysis — carries it unchanged.
const (
	TransportH1  = "h1"  // HTTP/1.1 keep-alive exchange
	TransportH2  = "h2"  // HTTP/2 frame-level exchange
	TransportWS  = "ws"  // one WebSocket telemetry frame (or its upgrade)
	TransportDoH = "doh" // DNS-over-HTTPS message (RFC 8484 body)
)

// TransportOrDefault normalises a flow's transport label: flows captured
// before the transport-aware data plane (JSONL round-trips, hand-built
// test flows) have no stamp and count as plain HTTP/1.1.
func (f *Flow) TransportOrDefault() string {
	if f.Transport == "" {
		return TransportH1
	}
	return f.Transport
}

// Flow is one captured HTTP(S) exchange.
type Flow struct {
	ID   int64     `json:"id"`
	Time time.Time `json:"time"` // virtual time at interception

	BrowserUID int    `json:"browser_uid"`
	Browser    string `json:"browser,omitempty"` // app name, annotated from UID

	Method string `json:"method"`
	Scheme string `json:"scheme"`
	// Transport is the data-plane protocol ("h1", "h2", "ws", "doh");
	// empty on flows captured before the transport-aware dispatch (treat
	// as "h1", see TransportOrDefault). ALPN is the raw protocol the
	// client negotiated on the intercepted TLS connection ("" for
	// cleartext or no-ALPN clients).
	Transport string      `json:"transport,omitempty"`
	ALPN      string      `json:"alpn,omitempty"`
	Host      string      `json:"host"`
	Path      string      `json:"path"`
	RawQuery  string      `json:"raw_query,omitempty"`
	Headers   http.Header `json:"headers,omitempty"`
	Body      []byte      `json:"body,omitempty"` // capped prefix

	Status    int `json:"status"`
	ReqBytes  int `json:"req_bytes"`
	RespBytes int `json:"resp_bytes"`

	Origin    Origin `json:"origin"`
	VisitURL  string `json:"visit_url,omitempty"` // page being visited at the time
	Incognito bool   `json:"incognito,omitempty"`
	Err       string `json:"err,omitempty"`
	// Attempt tags the navigation attempt that caused the flow (0 outside
	// attempt-scoped visits). A failed attempt's partial flows are
	// quarantined by DB.RemoveAttempt before the retry, so only committed
	// attempts reach the analyses.
	Attempt int64 `json:"attempt,omitempty"`

	// Recycling state (see pool.go). Zero for flows built by hand; only
	// AcquireFlow sets pooled, making Ref/Release meaningful.
	refs   int32
	pooled bool
	// open is set by Store.AddOpen and cleared by Store.Finish (or a
	// later Add). Only the committing goroutine, which runs the commit
	// tap, touches it.
	open bool
}

// Open reports whether the flow was committed before its exchange ended
// and has not been finished: its producer may still write Status,
// RespBytes and Err. Taps read it in Observe.
func (f *Flow) Open() bool { return f.open }

// URL reconstructs the full request URL.
func (f *Flow) URL() string {
	u := url.URL{Scheme: f.Scheme, Host: f.Host, Path: f.Path, RawQuery: f.RawQuery}
	return u.String()
}

// HeaderGet is a nil-safe header accessor.
func (f *Flow) HeaderGet(name string) string {
	if f.Headers == nil {
		return ""
	}
	return f.Headers.Get(name)
}

// NumShards is the stripe count of a Store. Sixteen is enough to make
// lock collisions rare for the paper's 15-browser fleet (at most one
// writer per browser plus the analysis readers) while keeping the
// merged-snapshot sort cheap; powers of two keep the modulo a mask.
const NumShards = 16

// shard is one mutex-striped bucket of a Store. seqs runs parallel to
// flows and carries each flow's store-wide insertion sequence number, so
// merged snapshots can reconstruct exact insertion order without
// widening the Flow wire format.
type shard struct {
	mu    sync.RWMutex
	flows []*Flow
	seqs  []uint64
}

// Store is an append-only flow database, safe for concurrent use. Flows
// are striped across NumShards mutex-protected buckets by flow ID, so
// concurrent campaign workers filing into the same database do not
// serialize on a single lock; order-preserving snapshots (All, Filter)
// merge the buckets by insertion sequence, and shard-level readers
// (ShardSnapshot) let scan-heavy consumers fan out without merging
// first. Stores created with NewNamedStore additionally report their
// size to the obs registry under a db=<name> label.
type Store struct {
	shards [NumShards]shard
	seq    atomic.Uint64 // store-wide insertion sequence
	count  atomic.Int64
	seen   atomic.Int64 // every Add ever, retained or not

	// origin, when set, is stamped onto every added flow so the commit
	// tap and downstream analyzers can classify it without knowing
	// which store it came from. Set by NewDB.
	origin Origin

	// tap, when set, observes every committed flow. Set via DB.SetTap
	// before any traffic flows (no lock: publication happens-before the
	// proxy goroutines start).
	tap Tap

	// Retention machinery. When noRetain is set, committed flows are not
	// filed into the shards: attempt-tagged flows wait in pending until
	// the attempt is sealed (spill) or removed (drop), so quarantined
	// flows never reach the spill sink; untagged flows spill immediately.
	// A flow committed with AddOpen spills no earlier than its Finish:
	// open holds it until then, the value saying whether Finish spills
	// it (true once it is untagged or its attempt sealed; false while it
	// is parked in pending or after its attempt was removed). pendingMu
	// guards pending and open.
	noRetain     atomic.Bool
	pendingMu    sync.Mutex
	pending      map[int64][]*Flow
	open         map[*Flow]bool
	pendingCount atomic.Int64
	spillMu      sync.Mutex
	spill        *json.Encoder
	spillErr     error

	// Observability series (nil for anonymous stores).
	added     *obs.Counter
	spilled   *obs.Counter
	sizeFlows *obs.Gauge
	sizeBytes *obs.Gauge
}

// NewStore returns an empty, anonymous store (no metrics).
func NewStore() *Store { return &Store{} }

// NewNamedStore returns an empty store whose flow and byte totals are
// exported as capture_* metrics labeled db=name.
func NewNamedStore(name string) *Store {
	return &Store{
		added:     obs.Default.Counter("capture_flows_total", "db", name),
		spilled:   obs.Default.Counter("capture_spilled_total", "db", name),
		sizeFlows: obs.Default.Gauge("capture_store_flows", "db", name),
		sizeBytes: obs.Default.Gauge("capture_store_bytes", "db", name),
	}
}

var flowIDs atomic.Int64

// NextFlowID allocates a process-unique flow ID.
func NextFlowID() int64 { return flowIDs.Add(1) }

// EnsureFlowIDsAbove fast-forwards the flow ID allocator past n, so a
// resumed campaign never re-issues an ID a checkpointed flow already
// carries (the export plane dedupes across the resume boundary by ID).
func EnsureFlowIDsAbove(n int64) {
	for {
		cur := flowIDs.Load()
		if cur >= n || flowIDs.CompareAndSwap(cur, n) {
			return
		}
	}
}

// shardFor picks the stripe for a flow. IDs are dense (NextFlowID) so a
// plain modulo spreads a campaign's flows evenly; flows without an ID
// (hand-built in tests, or re-read from JSONL before re-numbering) all
// land in stripe zero, which is merely a lost optimisation.
func (s *Store) shardFor(f *Flow) *shard {
	return &s.shards[uint64(f.ID)%NumShards]
}

// Add commits a complete flow: stamps the store's origin, files it (or,
// with retention off, buffers/spills it), then feeds it to the commit
// tap.
func (s *Store) Add(f *Flow) { s.add(f, false) }

// AddOpen commits a flow whose exchange is still running, as the MITM
// proxy does at request time so the analyses see it at once. The
// producer must call Finish after its last write to the flow.
func (s *Store) AddOpen(f *Flow) { s.add(f, true) }

func (s *Store) add(f *Flow, open bool) {
	f.open = open
	if s.origin != "" {
		f.Origin = s.origin
	}
	s.seen.Add(1)
	if s.added != nil {
		s.added.Inc()
	}
	if s.noRetain.Load() {
		s.addUnretained(f, open)
	} else {
		seq := s.seq.Add(1)
		sh := s.shardFor(f)
		f.Ref() // the store's reference, dropped by RemoveWhere/Reset
		sh.mu.Lock()
		sh.flows = append(sh.flows, f)
		sh.seqs = append(sh.seqs, seq)
		sh.mu.Unlock()
		s.count.Add(1)
		if s.added != nil {
			s.sizeFlows.Inc()
			s.sizeBytes.Add(float64(f.ReqBytes))
		}
	}
	if t := s.tap; t != nil {
		t.Observe(f)
	}
}

// Finish reports that the exchange of a flow committed with AddOpen has
// ended: its response fields are final. It forwards to the commit tap
// when the tap is a Finisher and, with retention off, spills the flow
// if it was held for this moment.
func (s *Store) Finish(f *Flow) {
	if fin, ok := s.tap.(Finisher); ok {
		fin.Finish(f)
	}
	if f.open && s.noRetain.Load() {
		s.pendingMu.Lock()
		spill := s.open[f] // false: still parked, or retracted
		delete(s.open, f)
		s.pendingMu.Unlock()
		if spill {
			s.spillOut(f)
			f.Release()
		}
	}
	f.open = false
}

// addUnretained files a flow when retention is off. Attempt-tagged
// flows park in pending (still counted as resident) until the attempt
// seals or is removed; complete untagged flows go straight to the
// spill sink, open ones wait in open for their Finish.
func (s *Store) addUnretained(f *Flow, open bool) {
	if f.Attempt == 0 && !open {
		s.spillOut(f)
		return
	}
	f.Ref() // the store's reference, dropped on seal/remove or at Finish
	s.pendingMu.Lock()
	if open {
		if s.open == nil {
			s.open = make(map[*Flow]bool)
		}
		s.open[f] = f.Attempt == 0
		if f.Attempt == 0 {
			s.pendingMu.Unlock()
			return
		}
	}
	if s.pending == nil {
		s.pending = make(map[int64][]*Flow)
	}
	s.pending[f.Attempt] = append(s.pending[f.Attempt], f)
	s.pendingMu.Unlock()
	s.pendingCount.Add(1)
	if s.added != nil {
		s.sizeFlows.Inc()
		s.sizeBytes.Add(float64(f.ReqBytes))
	}
}

// spillOut writes one committed flow to the spill sink, if set. The
// first encode error is kept for SpillErr.
func (s *Store) spillOut(f *Flow) {
	s.spillMu.Lock()
	if s.spill != nil {
		if err := s.spill.Encode(f); err != nil && s.spillErr == nil {
			s.spillErr = fmt.Errorf("capture: spill flow %d: %w", f.ID, err)
		}
	}
	s.spillMu.Unlock()
	if s.spilled != nil {
		s.spilled.Inc()
	}
}

// takePending detaches and returns an attempt's parked flows,
// adjusting the resident gauges.
func (s *Store) takePending(attempt int64) []*Flow {
	s.pendingMu.Lock()
	flows := s.pending[attempt]
	delete(s.pending, attempt)
	s.pendingMu.Unlock()
	if len(flows) == 0 {
		return nil
	}
	s.pendingCount.Add(int64(-len(flows)))
	if s.added != nil {
		var bytes int64
		for _, f := range flows {
			bytes += int64(f.ReqBytes)
		}
		s.sizeFlows.Add(-float64(len(flows)))
		s.sizeBytes.Add(-float64(bytes))
	}
	return flows
}

// sealAttempt commits an attempt's parked flows to the spill sink; a
// flow whose exchange is still running follows at its Finish. Only
// meaningful with retention off; must be called after the attempt's
// flows have all been added (the campaign's navigate is synchronous,
// and the fault path quiesces before quarantining).
func (s *Store) sealAttempt(attempt int64) {
	if attempt == 0 || !s.noRetain.Load() {
		return
	}
	flows := s.takePending(attempt)
	s.pendingMu.Lock()
	for i, f := range flows {
		if _, running := s.open[f]; running {
			s.open[f] = true
			flows[i] = nil
		}
	}
	s.pendingMu.Unlock()
	for _, f := range flows {
		if f != nil {
			s.spillOut(f)
			f.Release()
		}
	}
}

// removeAttempt quarantines an attempt's flows: parked flows are
// dropped before ever reaching the spill sink; retained flows are
// removed from the shards.
func (s *Store) removeAttempt(attempt int64) int {
	if attempt == 0 {
		return 0
	}
	if s.noRetain.Load() {
		dropped := s.takePending(attempt)
		for _, f := range dropped {
			f.Release()
		}
		return len(dropped)
	}
	return s.RemoveWhere(func(f *Flow) bool { return f.Attempt == attempt })
}

// SetRetention switches the store between retaining committed flows in
// the shards (true, the default) and dropping them after the commit
// tap (false). Must be set before any traffic flows.
func (s *Store) SetRetention(retain bool) { s.noRetain.Store(!retain) }

// Retained reports whether committed flows stay resident.
func (s *Store) Retained() bool { return !s.noRetain.Load() }

// SetSpill directs dropped flows (retention off) to w as JSONL.
func (s *Store) SetSpill(w io.Writer) {
	s.spillMu.Lock()
	s.spill = json.NewEncoder(w)
	s.spillMu.Unlock()
}

// SpillErr returns the first spill encode error, if any.
func (s *Store) SpillErr() error {
	s.spillMu.Lock()
	defer s.spillMu.Unlock()
	return s.spillErr
}

// Len returns the number of resident (retained) flows.
func (s *Store) Len() int { return int(s.count.Load()) }

// Seen returns the number of flows ever committed, retained or not.
func (s *Store) Seen() int64 { return s.seen.Load() }

// Pending returns the number of attempt-tagged flows parked while
// their attempt is in flight (retention off).
func (s *Store) Pending() int { return int(s.pendingCount.Load()) }

// flowSeq pairs a flow with its insertion sequence for merging.
type flowSeq struct {
	f   *Flow
	seq uint64
}

// snapshotSeq copies every shard's (flow, seq) pairs and sorts them by
// insertion sequence, reconstructing the exact order a single-slice
// store would have had.
func (s *Store) snapshotSeq() []flowSeq {
	out := make([]flowSeq, 0, s.Len())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for j, f := range sh.flows {
			out = append(out, flowSeq{f: f, seq: sh.seqs[j]})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// All returns a snapshot of the flows in insertion order.
func (s *Store) All() []*Flow {
	merged := s.snapshotSeq()
	out := make([]*Flow, len(merged))
	for i, fs := range merged {
		out[i] = fs.f
	}
	return out
}

// ShardSnapshot returns a copy of stripe i's flows in that stripe's
// local insertion order. Fan-out readers (the leak scanner, the
// analysis aggregations) process stripes independently and merge their
// own results, skipping the global order-reconstructing sort.
func (s *Store) ShardSnapshot(i int) []*Flow {
	sh := &s.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	out := make([]*Flow, len(sh.flows))
	copy(out, sh.flows)
	return out
}

// Filter returns flows satisfying pred, in order.
func (s *Store) Filter(pred func(*Flow) bool) []*Flow {
	var out []*Flow
	for _, f := range s.All() {
		if pred(f) {
			out = append(out, f)
		}
	}
	return out
}

// ByBrowser returns flows for one browser app name.
func (s *Store) ByBrowser(name string) []*Flow {
	return s.Filter(func(f *Flow) bool { return f.Browser == name })
}

// Hosts returns the distinct destination hosts, sorted.
func (s *Store) Hosts() []string {
	set := map[string]bool{}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, f := range sh.flows {
			set[f.Host] = true
		}
		sh.mu.RUnlock()
	}
	out := make([]string, 0, len(set))
	for h := range set {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// TotalBytes sums request (and optionally response) wire sizes.
func (s *Store) TotalBytes(includeResponses bool) int64 {
	var n int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, f := range sh.flows {
			n += int64(f.ReqBytes)
			if includeResponses {
				n += int64(f.RespBytes)
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// Reset clears the store.
func (s *Store) Reset() {
	var n int
	var bytes int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.flows)
		for _, f := range sh.flows {
			bytes += int64(f.ReqBytes)
			f.Release()
		}
		sh.flows = nil
		sh.seqs = nil
		sh.mu.Unlock()
	}
	s.count.Add(int64(-n))
	s.pendingMu.Lock()
	var pn int
	var pbytes int64
	for _, flows := range s.pending {
		pn += len(flows)
		for _, f := range flows {
			pbytes += int64(f.ReqBytes)
			f.Release()
		}
	}
	s.pending = nil
	for f, held := range s.open {
		if held { // not in pending, so released here
			f.Release()
		}
	}
	s.open = nil
	s.pendingMu.Unlock()
	s.pendingCount.Add(int64(-pn))
	if s.added != nil {
		// The size gauges are additive across every store sharing the
		// label, so a reset subtracts this store's contribution.
		s.sizeFlows.Add(-float64(n + pn))
		s.sizeBytes.Add(-float64(bytes + pbytes))
	}
}

// RemoveWhere deletes every flow satisfying pred and returns how many were
// removed, keeping the count and size gauges consistent. The campaign
// runner uses it to quarantine the partial flows of a failed navigation
// attempt before retrying.
func (s *Store) RemoveWhere(pred func(*Flow) bool) int {
	var removed int
	var bytes int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		flows := sh.flows[:0]
		seqs := sh.seqs[:0]
		for j, f := range sh.flows {
			if pred(f) {
				removed++
				bytes += int64(f.ReqBytes)
				f.Release()
				continue
			}
			flows = append(flows, f)
			seqs = append(seqs, sh.seqs[j])
		}
		// Clear the tail so dropped *Flow pointers are collectable.
		for j := len(flows); j < len(sh.flows); j++ {
			sh.flows[j] = nil
		}
		sh.flows = flows
		sh.seqs = seqs
		sh.mu.Unlock()
	}
	s.count.Add(int64(-removed))
	if s.added != nil && removed > 0 {
		s.sizeFlows.Add(-float64(removed))
		s.sizeBytes.Add(-float64(bytes))
	}
	return removed
}

// WriteJSONL persists the store one JSON object per line.
func (s *Store) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, f := range s.All() {
		if err := enc.Encode(f); err != nil {
			return fmt.Errorf("capture: encode flow %d: %w", f.ID, err)
		}
	}
	return nil
}

// ReadJSONL loads flows from a JSONL stream into the store.
func (s *Store) ReadJSONL(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var f Flow
		if err := json.Unmarshal([]byte(text), &f); err != nil {
			return fmt.Errorf("capture: line %d: %w", line, err)
		}
		s.Add(&f)
	}
	return sc.Err()
}

// DB is the paired engine/native database of a campaign.
type DB struct {
	Engine *Store
	Native *Store

	tap Tap
}

// NewDB creates an empty pair, exported to the obs registry as the
// db=engine and db=native capture databases. Each store stamps its
// origin onto added flows.
func NewDB() *DB {
	db := &DB{Engine: NewNamedStore("engine"), Native: NewNamedStore("native")}
	db.Engine.origin = OriginEngine
	db.Native.origin = OriginNative
	return db
}

// SetTap installs a commit tap on both stores. Must be called before
// any traffic flows (publication relies on the happens-before edge of
// starting the proxy goroutines afterwards).
func (db *DB) SetTap(t Tap) {
	db.tap = t
	db.Engine.tap = t
	db.Native.tap = t
}

// SetRetention applies a retention mode to the pair. The empty mode
// means RetainAll.
func (db *DB) SetRetention(m RetainMode) error {
	switch m {
	case "", RetainAll:
		db.Engine.SetRetention(true)
		db.Native.SetRetention(true)
	case RetainNative:
		db.Engine.SetRetention(false)
		db.Native.SetRetention(true)
	case RetainNone:
		db.Engine.SetRetention(false)
		db.Native.SetRetention(false)
	default:
		return fmt.Errorf("capture: unknown retention mode %q (want all, native or none)", m)
	}
	return nil
}

// FullyRetained reports whether both stores keep flows resident —
// required for checkpointing and post-hoc exports.
func (db *DB) FullyRetained() bool {
	return db.Engine.Retained() && db.Native.Retained()
}

// SealAttempt marks a navigation attempt committed: parked flows are
// spilled (retention off) and the tap's undo state for the attempt is
// discarded.
func (db *DB) SealAttempt(attempt int64) {
	if attempt == 0 {
		return
	}
	db.Engine.sealAttempt(attempt)
	db.Native.sealAttempt(attempt)
	if db.tap != nil {
		db.tap.Seal(attempt)
	}
}

// StoreFor returns the store matching an origin.
func (db *DB) StoreFor(o Origin) *Store {
	if o == OriginEngine {
		return db.Engine
	}
	return db.Native
}

// Reset clears both stores and, if the tap supports it, its
// accumulated analysis state.
func (db *DB) Reset() {
	db.Engine.Reset()
	db.Native.Reset()
	if r, ok := db.tap.(interface{ Reset() }); ok {
		r.Reset()
	}
}

// RemoveAttempt quarantines every flow tagged with a failed navigation
// attempt from both databases (resident or parked) and retracts the
// attempt from the commit tap, returning the number of flows removed.
func (db *DB) RemoveAttempt(attempt int64) int {
	if attempt == 0 {
		return 0
	}
	n := db.Engine.removeAttempt(attempt) + db.Native.removeAttempt(attempt)
	if db.tap != nil {
		db.tap.Retract(attempt)
	}
	return n
}

// VisitInfo is the page-visit context active for a browser while the
// proxy intercepts its traffic.
type VisitInfo struct {
	Browser   string
	URL       string
	Incognito bool
	// Attempt is the navigation-attempt tag stamped onto flows captured
	// during this visit (see Flow.Attempt); 0 when untagged.
	Attempt int64
}

// VisitContext maps browser UIDs to their current visit, letting the
// proxy addon annotate flows with the page that was open when they
// happened.
type VisitContext struct {
	mu      sync.RWMutex
	current map[int]VisitInfo
	names   map[int]string // uid -> browser app name (survives EndVisit)
}

// NewVisitContext returns an empty context.
func NewVisitContext() *VisitContext {
	return &VisitContext{current: make(map[int]VisitInfo), names: make(map[int]string)}
}

// SetBrowser registers the app name for a UID.
func (vc *VisitContext) SetBrowser(uid int, name string) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	vc.names[uid] = name
}

// BeginVisit marks uid as currently visiting url.
func (vc *VisitContext) BeginVisit(uid int, url string, incognito bool) {
	vc.BeginVisitAttempt(uid, url, incognito, 0)
}

// BeginVisitAttempt is BeginVisit with an attempt tag: flows captured until
// EndVisit carry it, so a failed attempt's traffic can be quarantined.
func (vc *VisitContext) BeginVisitAttempt(uid int, url string, incognito bool, attempt int64) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	vc.current[uid] = VisitInfo{Browser: vc.names[uid], URL: url, Incognito: incognito, Attempt: attempt}
}

// EndVisit clears the visit.
func (vc *VisitContext) EndVisit(uid int) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	delete(vc.current, uid)
}

// Lookup returns the visit info for uid; outside a visit only the
// browser name is populated.
func (vc *VisitContext) Lookup(uid int) VisitInfo {
	vc.mu.RLock()
	defer vc.mu.RUnlock()
	if v, ok := vc.current[uid]; ok {
		return v
	}
	return VisitInfo{Browser: vc.names[uid]}
}
