package sink

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"panoptes/internal/capture"
)

var testEpoch = time.Date(2023, time.May, 12, 9, 0, 0, 0, time.UTC)

// fakeClock is a hand-cranked clock for exercising the age trigger.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: testEpoch} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func flow(id int64, attempt int64) *capture.Flow {
	return &capture.Flow{ID: id, Attempt: attempt, Method: "GET", Scheme: "https", Host: "example.org", Path: "/"}
}

func TestBatchSizeTrigger(t *testing.T) {
	mem := NewMemorySink()
	e := NewExporter(Config{BatchSize: 3, Now: newFakeClock().Now}, mem)
	defer e.Close()
	for i := int64(1); i <= 7; i++ {
		e.Observe(flow(i, 0))
	}
	e.Drain() // manual-flushes the 1-event remainder
	batches := mem.Batches()
	if len(batches) != 3 {
		t.Fatalf("7 events, batch size 3: want 2 size batches + 1 drained remainder, got %d", len(batches))
	}
	if len(batches[0]) != 3 || len(batches[1]) != 3 || len(batches[2]) != 1 {
		t.Fatalf("batch sizes %d/%d/%d, want 3/3/1", len(batches[0]), len(batches[1]), len(batches[2]))
	}
	e.Close()
	if got := len(mem.Flows()); got != 7 {
		t.Fatalf("after close: want all 7 flows published, got %d", got)
	}
}

func TestAgeTrigger(t *testing.T) {
	clk := newFakeClock()
	mem := NewMemorySink()
	e := NewExporter(Config{BatchSize: 100, MaxAge: 2 * time.Second, Now: clk.Now}, mem)
	defer e.Close()
	e.Observe(flow(1, 0))
	clk.Advance(3 * time.Second)
	// The age trigger fires on arrival of the next event: the stale
	// batch flushes first, the new event starts a fresh one.
	e.Observe(flow(2, 0))
	e.Drain() // manual-flushes the fresh batch holding flow 2
	batches := mem.Batches()
	if len(batches) != 2 || len(batches[0]) != 1 || batches[0][0].Flow.ID != 1 {
		t.Fatalf("want the stale batch (flow 1) age-flushed on flow 2's arrival, got %+v", batches)
	}
	if len(batches[1]) != 1 || batches[1][0].Flow.ID != 2 {
		t.Fatalf("want flow 2 in its own fresh batch, got %+v", batches[1])
	}
}

func TestSequenceIsMonotonic(t *testing.T) {
	mem := NewMemorySink()
	e := NewExporter(Config{BatchSize: 2, Now: newFakeClock().Now}, mem)
	for i := int64(1); i <= 6; i++ {
		e.Observe(flow(i, 0))
	}
	e.Close()
	var last uint64
	for _, b := range mem.Batches() {
		for _, env := range b {
			if env.Seq <= last {
				t.Fatalf("sequence not monotonic: %d after %d", env.Seq, last)
			}
			last = env.Seq
		}
	}
	if last != 6 {
		t.Fatalf("want 6 sequenced events, last seq %d", last)
	}
}

func TestRetractedAttemptNeverReachesSink(t *testing.T) {
	mem := NewMemorySink()
	e := NewExporter(Config{BatchSize: 1, Now: newFakeClock().Now}, mem)
	e.Observe(flow(1, 7))
	e.Observe(flow(2, 7))
	e.Observe(flow(3, 8))
	if e.Pending() != 3 {
		t.Fatalf("want 3 parked flows, got %d", e.Pending())
	}
	e.Retract(7)
	e.Seal(8)
	e.Close()
	ids := mem.FlowIDs()
	if ids[1] || ids[2] {
		t.Fatalf("retracted attempt 7's flows leaked to the sink: %v", ids)
	}
	if !ids[3] {
		t.Fatalf("sealed attempt 8's flow missing from the sink: %v", ids)
	}
	if e.Pending() != 0 {
		t.Fatalf("want empty pending after seal/retract, got %d", e.Pending())
	}
}

func TestSealPreservesCaptureOrder(t *testing.T) {
	mem := NewMemorySink()
	e := NewExporter(Config{BatchSize: 100, Now: newFakeClock().Now}, mem)
	e.Observe(flow(10, 1))
	e.Observe(flow(11, 1))
	e.Observe(flow(12, 1))
	e.Seal(1)
	e.Close()
	flows := mem.Flows()
	if len(flows) != 3 {
		t.Fatalf("want 3 flows, got %d", len(flows))
	}
	for i, want := range []int64{10, 11, 12} {
		if flows[i].ID != want {
			t.Fatalf("flow %d: want ID %d, got %d", i, want, flows[i].ID)
		}
	}
}

// TestOpenFlowsWaitForFinish: a flow committed while its exchange runs
// (Store.AddOpen) reaches a batch only at its Finish — untagged, or
// sealed before the exchange ended — and a retracted one never does,
// Finish or not.
func TestOpenFlowsWaitForFinish(t *testing.T) {
	mem := NewMemorySink()
	e := NewExporter(Config{BatchSize: 1, Now: newFakeClock().Now}, mem)
	db := capture.NewDB()
	db.SetTap(e)
	idle, sealed, retracted, done := flow(1, 0), flow(2, 5), flow(3, 6), flow(4, 5)
	for _, f := range []*capture.Flow{idle, sealed, retracted} {
		db.Native.AddOpen(f)
	}
	db.Native.Add(done)
	db.SealAttempt(5)
	db.RemoveAttempt(6)
	e.Drain()
	if ids := mem.FlowIDs(); len(ids) != 1 || !ids[4] {
		t.Fatalf("before any Finish the sink holds %v, want only the finished flow 4", ids)
	}
	for _, f := range []*capture.Flow{idle, sealed, retracted} {
		f.Status = 200 // the producer's last write, then Finish
		db.Native.Finish(f)
	}
	e.Close()
	ids := mem.FlowIDs()
	if len(ids) != 3 || !ids[1] || !ids[2] || !ids[4] {
		t.Fatalf("after Finish the sink holds %v, want flows 1, 2 and 4", ids)
	}
	for _, f := range mem.Flows() {
		if f.Open() {
			t.Errorf("flow %d still open after Finish", f.ID)
		}
	}
}

func TestResumeDedupeByFlowID(t *testing.T) {
	mem := NewMemorySink()
	e := NewExporter(Config{BatchSize: 1, Now: newFakeClock().Now}, mem)
	e.SeedExported([]int64{1, 2})
	e.Observe(flow(1, 0)) // checkpoint replay: already exported pre-crash
	e.Observe(flow(2, 0))
	e.Observe(flow(3, 0)) // fresh flow
	e.Close()
	ids := mem.FlowIDs()
	if ids[1] || ids[2] {
		t.Fatalf("replayed checkpoint flows double-published: %v", ids)
	}
	if !ids[3] {
		t.Fatalf("fresh flow 3 missing: %v", ids)
	}
}

func TestDropPolicyShedsAndBoundsQueue(t *testing.T) {
	mem := NewMemorySink()
	mem.Delay = 20 * time.Millisecond
	e := NewExporter(Config{BatchSize: 1, Queue: 1, Policy: PolicyDrop, Now: newFakeClock().Now}, mem)
	for i := int64(1); i <= 50; i++ {
		e.Observe(flow(i, 0))
	}
	e.Drain()
	e.Close()
	st := e.Stats()[0]
	if st.Dropped == 0 {
		t.Fatalf("50 instant batches into a 20ms sink behind a 1-deep queue must shed: %+v", st)
	}
	if st.Published+st.Dropped != 50 {
		t.Fatalf("published %d + dropped %d != 50 offered", st.Published, st.Dropped)
	}
	// Bound: the queued batch plus the one being published.
	if st.PeakQueue > 2 {
		t.Fatalf("drop policy let the queue grow past its bound: peak %d", st.PeakQueue)
	}
}

func TestBlockPolicyDeliversEverything(t *testing.T) {
	mem := NewMemorySink()
	mem.Delay = time.Millisecond
	e := NewExporter(Config{BatchSize: 1, Queue: 1, Policy: PolicyBlock, Now: newFakeClock().Now}, mem)
	for i := int64(1); i <= 30; i++ {
		e.Observe(flow(i, 0))
	}
	e.Close()
	st := e.Stats()[0]
	if st.Published != 30 || st.Dropped != 0 {
		t.Fatalf("block policy must deliver all 30: %+v", st)
	}
	if st.PeakQueue > 3 {
		t.Fatalf("block policy queue bound exceeded: peak %d", st.PeakQueue)
	}
}

func TestFailingSinkDoesNotStallHealthyOne(t *testing.T) {
	bad := NewMemorySink()
	bad.NameTag = "bad"
	bad.FailNext(1 << 30)
	good := NewMemorySink()
	good.NameTag = "good"
	// Block policy: every batch is offered to both sinks, so "the healthy
	// sink receives all flows" is exact — the failing peer can only lose
	// its own copies.
	e := NewExporter(Config{BatchSize: 1, BreakerThreshold: 2, Policy: PolicyBlock, Now: newFakeClock().Now}, bad, good)
	for i := int64(1); i <= 20; i++ {
		e.Observe(flow(i, 0))
	}
	e.Close()
	if got := len(good.Flows()); got != 20 {
		t.Fatalf("healthy sink must receive all 20 flows despite the failing peer, got %d", got)
	}
	var badStats, goodStats SinkStats
	for _, st := range e.Stats() {
		switch st.Name {
		case "bad":
			badStats = st
		case "good":
			goodStats = st
		}
	}
	if badStats.Published != 0 || badStats.Dropped != 20 {
		t.Fatalf("failing sink accounting off: %+v", badStats)
	}
	if badStats.BreakerOpens == 0 {
		t.Fatalf("failing sink's breaker never opened: %+v", badStats)
	}
	if goodStats.BreakerOpens != 0 {
		t.Fatalf("healthy sink's breaker tripped: %+v", goodStats)
	}
}

func TestBreakerShortCircuitsPublishes(t *testing.T) {
	mem := NewMemorySink()
	mem.FailNext(2)
	calls := 0
	e := NewExporter(Config{BatchSize: 1, BreakerThreshold: 2, BreakerCooldown: time.Hour, Now: newFakeClock().Now}, countingSink{mem, &calls})
	for i := int64(1); i <= 10; i++ {
		e.Observe(flow(i, 0))
	}
	e.Close()
	// Two failures open the breaker; the remaining 8 batches must be
	// shed without touching the backend.
	if calls != 2 {
		t.Fatalf("open breaker must short-circuit publishes: backend saw %d calls, want 2", calls)
	}
	st := e.Stats()[0]
	if st.Dropped != 10 {
		t.Fatalf("want all 10 events dropped (2 errors + 8 breaker), got %+v", st)
	}
}

// countingSink counts Publish calls reaching the wrapped sink.
type countingSink struct {
	*MemorySink
	calls *int
}

func (c countingSink) Publish(batch []Envelope) error {
	*c.calls++
	return c.MemorySink.Publish(batch)
}

func TestFaultHookFailsBatches(t *testing.T) {
	mem := NewMemorySink()
	e := NewExporter(Config{BatchSize: 1, BreakerThreshold: 100, Policy: PolicyBlock, Now: newFakeClock().Now}, mem)
	var hits atomic.Int64
	e.SetFaultHook(func(name string) error {
		if name != "mem" {
			t.Errorf("hook saw sink %q", name)
		}
		if hits.Add(1) <= 3 {
			return errInjectedFailure
		}
		return nil
	})
	for i := int64(1); i <= 10; i++ {
		e.Observe(flow(i, 0))
	}
	e.Close()
	st := e.Stats()[0]
	if st.Dropped != 3 || st.Published != 7 {
		t.Fatalf("3 injected publish faults: want 3 dropped / 7 published, got %+v", st)
	}
}

func TestPublishDeltasSortedAndDecodable(t *testing.T) {
	mem := NewMemorySink()
	e := NewExporter(Config{Now: newFakeClock().Now}, mem)
	results := map[string]any{
		"zeta":  map[string]int{"n": 3},
		"alpha": []string{"x", "y"},
		"mid":   42,
	}
	if err := e.PublishDeltas(results); err != nil {
		t.Fatal(err)
	}
	e.Close()
	var got []string
	for _, b := range mem.Batches() {
		for _, env := range b {
			if env.Type != TypeDelta {
				t.Fatalf("unexpected envelope type %q", env.Type)
			}
			got = append(got, env.Analyzer)
		}
	}
	want := []string{"alpha", "mid", "zeta"}
	if len(got) != len(want) {
		t.Fatalf("want %v deltas, got %v", want, got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delta order not deterministic: want %v, got %v", want, got)
		}
	}
	var n int
	if err := json.Unmarshal(mem.Deltas()["mid"], &n); err != nil || n != 42 {
		t.Fatalf("delta payload round-trip: %v %d", err, n)
	}
}

func TestCloseIsIdempotentAndDropsLateEvents(t *testing.T) {
	mem := NewMemorySink()
	e := NewExporter(Config{BatchSize: 100, Now: newFakeClock().Now}, mem)
	e.Observe(flow(1, 0))
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e.Observe(flow(2, 0)) // after close: discarded, no panic
	e.Seal(9)
	e.Retract(9)
	if got := len(mem.Flows()); got != 1 {
		t.Fatalf("final flush must carry the partial batch and nothing after close, got %d flows", got)
	}
	if !mem.Closed() {
		t.Fatal("publisher not closed")
	}
}

func TestHTTPSinkRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ct := r.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("content type %q", ct)
		}
		if calls.Add(1) <= 2 {
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	h := NewHTTPSink(srv.URL)
	h.Sleep = func(time.Duration) {}
	if err := h.Publish([]Envelope{{Seq: 1, Type: TypeFlow, Flow: flow(1, 0)}}); err != nil {
		t.Fatalf("publish after transient 503s: %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("want 2 retries then success (3 calls), got %d", calls.Load())
	}
}

func TestHTTPSinkTreats4xxAsPermanent(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "bad payload", http.StatusBadRequest)
	}))
	defer srv.Close()
	h := NewHTTPSink(srv.URL)
	h.Sleep = func(time.Duration) {}
	if err := h.Publish([]Envelope{{Seq: 1, Type: TypeFlow, Flow: flow(1, 0)}}); err == nil {
		t.Fatal("4xx must fail the batch")
	}
	if calls.Load() != 1 {
		t.Fatalf("4xx must not be retried, got %d calls", calls.Load())
	}
}

func TestHTTPSinkExhaustsRetries(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()
	h := NewHTTPSink(srv.URL)
	h.MaxRetries = 2
	h.Sleep = func(time.Duration) {}
	if err := h.Publish([]Envelope{{Seq: 1}}); err == nil {
		t.Fatal("want failure after exhausting retries")
	}
	if calls.Load() != 3 {
		t.Fatalf("want 1 attempt + 2 retries, got %d", calls.Load())
	}
}

func TestFileSinkRotatesAndRoundTrips(t *testing.T) {
	dir := t.TempDir()
	fs := NewFileSink(dir)
	fs.RotateBytes = 1 // every batch over-fills the segment: rotate per batch
	for i := int64(1); i <= 3; i++ {
		if err := fs.Publish([]Envelope{{Seq: uint64(i), Type: TypeFlow, Flow: flow(i, 0)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	paths := fs.SegmentPaths()
	if len(paths) != 3 {
		t.Fatalf("RotateBytes=1 must rotate per batch: want 3 segments, got %d (%v)", len(paths), paths)
	}
	var ids []int64
	for _, p := range paths {
		for _, env := range readSegment(t, p) {
			ids = append(ids, env.Flow.ID)
		}
	}
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("segments must round-trip all flows in order, got %v", ids)
	}
}

func TestFileSinkOversizedBatchStaysWhole(t *testing.T) {
	dir := t.TempDir()
	fs := NewFileSink(dir)
	fs.RotateBytes = 64 // far below one big batch's compressed size

	// A single batch larger than the whole segment budget must land in
	// one segment, intact and in order — the budget is checked after the
	// batch is written, never by splitting a batch across segments.
	big := make([]Envelope, 40)
	for i := range big {
		f := flow(int64(i+1), 0)
		f.Path = fmt.Sprintf("/batch/%d/%x", i, i*2654435761) // defeat gzip a little
		big[i] = Envelope{Seq: uint64(i + 1), Type: TypeFlow, Flow: f}
	}
	if err := fs.Publish(big); err != nil {
		t.Fatal(err)
	}
	if err := fs.Publish([]Envelope{{Seq: 100, Type: TypeFlow, Flow: flow(100, 0)}}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	paths := fs.SegmentPaths()
	if len(paths) != 2 {
		t.Fatalf("oversized batch then small batch: want 2 segments, got %d (%v)", len(paths), paths)
	}
	first := readSegment(t, paths[0])
	if len(first) != len(big) {
		t.Fatalf("segment 0 holds %d envelopes, want the whole %d-envelope batch", len(first), len(big))
	}
	for i, env := range first {
		if env.Seq != uint64(i+1) {
			t.Fatalf("segment 0 out of order at %d: seq %d", i, env.Seq)
		}
	}
	second := readSegment(t, paths[1])
	if len(second) != 1 || second[0].Seq != 100 {
		t.Fatalf("segment 1 must hold only the follow-up batch, got %+v", second)
	}
}

func readSegment(t *testing.T, path string) []Envelope {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	defer zr.Close()
	var out []Envelope
	sc := bufio.NewScanner(zr)
	for sc.Scan() {
		var env Envelope
		if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, env)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestParseSpecs(t *testing.T) {
	pubs, err := ParseSpecs("http:http://idx.example/bulk, file:/tmp/x ,mem")
	if err != nil {
		t.Fatal(err)
	}
	if len(pubs) != 3 {
		t.Fatalf("want 3 publishers, got %d", len(pubs))
	}
	if h, ok := pubs[0].(*HTTPSink); !ok || h.URL != "http://idx.example/bulk" {
		t.Fatalf("spec 0: %#v", pubs[0])
	}
	if fs, ok := pubs[1].(*FileSink); !ok || fs.Dir != "/tmp/x" {
		t.Fatalf("spec 1: %#v", pubs[1])
	}
	if _, ok := pubs[2].(*MemorySink); !ok {
		t.Fatalf("spec 2: %#v", pubs[2])
	}
	if pubs, err := ParseSpecs(""); err != nil || len(pubs) != 0 {
		t.Fatalf("empty spec: %v %v", pubs, err)
	}
	for _, bad := range []string{"http:", "file:", "mem:x", "kafka:topic"} {
		if _, err := ParseSpecs(bad); err == nil {
			t.Fatalf("spec %q must be rejected", bad)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{"": PolicyDrop, "drop": PolicyDrop, "block": PolicyBlock} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParsePolicy("spill"); err == nil {
		t.Fatal("unknown policy must be rejected")
	}
}
