package bench

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"panoptes/internal/capture"
)

// callLog is a capture.Tap that records every call it receives.
type callLog struct {
	mu    sync.Mutex
	calls []string
}

func (c *callLog) add(s string) {
	c.mu.Lock()
	c.calls = append(c.calls, s)
	c.mu.Unlock()
}
func (c *callLog) Observe(f *capture.Flow) { c.add(fmt.Sprintf("observe %d %p", f.ID, f)) }
func (c *callLog) Retract(a int64)         { c.add(fmt.Sprintf("retract %d", a)) }
func (c *callLog) Seal(a int64)            { c.add(fmt.Sprintf("seal %d", a)) }
func (c *callLog) Reset()                  { c.add("reset") }

func testFlow(id int64) *capture.Flow {
	return &capture.Flow{
		ID: id, Browser: "Chrome", Method: "GET", Scheme: "https", Host: "example.com", Path: "/p",
		Headers: http.Header{"X-A": {"1"}}, Body: []byte("body"), Origin: capture.OriginNative,
		VisitURL: "https://site.test/", Attempt: 7, Transport: capture.TransportH2,
	}
}

func snapshot(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestTapPassesThrough checks the timing tap forwards every call, in
// order, with the same arguments, and leaves flows untouched.
func TestTapPassesThrough(t *testing.T) {
	direct, wrapped := &callLog{}, &callLog{}
	tap := NewTap(wrapped, NewRecorder(), true)
	f1, f2 := testFlow(1), testFlow(2)
	before := snapshot(t, f1)
	for _, tp := range []capture.Tap{direct, tap} {
		tp.Observe(f1)
		tp.Retract(7)
		tp.Observe(f2)
		tp.Seal(9)
	}
	direct.Reset()
	tap.Reset()
	if !reflect.DeepEqual(direct.calls, wrapped.calls) {
		t.Fatalf("wrapped calls %q, want %q", wrapped.calls, direct.calls)
	}
	if after := snapshot(t, f1); after != before {
		t.Errorf("tap modified the flow:\nbefore %s\nafter  %s", before, after)
	}
	if tap.Flows() != 2 || tap.retracts.Load() != 1 || len(tap.ObserveNS()) != 2 {
		t.Errorf("counts: flows %d retracts %d samples %d", tap.Flows(), tap.retracts.Load(), len(tap.ObserveNS()))
	}
	// An inner tap without Reset is not sent one.
	n := len(direct.calls)
	NewTap(struct{ capture.Tap }{direct}, NewRecorder(), false).Reset()
	if len(direct.calls) != n {
		t.Errorf("Reset reached a tap that does not implement it: %q", direct.calls[n:])
	}
}

// TestProbeLeavesExchangeUnchanged checks the probe only reads the
// flow, request and response, and pairs exchanges by flow ID even when
// a pooled flow object is reused for the next exchange.
func TestProbeLeavesExchangeUnchanged(t *testing.T) {
	rec := NewRecorder()
	tap := NewTap(&callLog{}, rec, true)
	probe := NewProbe(tap)
	phase := rec.Begin("crawl", nil, 1)
	tap.SetPhase(phase, 1)

	f := testFlow(10)
	req, _ := http.NewRequest("GET", "https://example.com/p", nil)
	req.Header.Set("X-B", "2")
	resp := &http.Response{StatusCode: 200, Header: http.Header{"X-C": {"3"}}}
	fb, rb, sb := snapshot(t, f), snapshot(t, req.Header), snapshot(t, resp.Header)

	tap.Observe(f)
	probe.Request(f, req)
	time.Sleep(2 * time.Millisecond)
	probe.Response(f, resp)
	if snapshot(t, f) != fb || snapshot(t, req.Header) != rb || snapshot(t, resp.Header) != sb || resp.StatusCode != 200 {
		t.Fatal("probe modified the exchange")
	}
	// The same object reused for another flow: keyed by ID.
	f.ID = 11
	tap.Observe(f)
	probe.Request(f, req)
	probe.Response(f, resp)
	probe.Response(f, resp) // unmatched: ignored
	phase.End()

	if probe.Exchanges() != 2 {
		t.Fatalf("exchanges = %d, want 2", probe.Exchanges())
	}
	ms := probe.UpstreamMS()
	if len(ms) != 2 || ms[0] < 2 {
		t.Fatalf("upstream ms = %v", ms)
	}
	visits := rec.GroupVisits(phase)
	if len(visits) != 1 {
		t.Fatalf("visits = %v, want one (both flows share browser and visit URL)", visits)
	}
	names := map[string]int{}
	for _, s := range rec.Spans() {
		names[s.Name]++
	}
	if want := map[string]int{"crawl": 1, "visit": 1, "exchange": 2, "observe": 2, "upstream": 2}; !reflect.DeepEqual(names, want) {
		t.Errorf("spans %v, want %v", names, want)
	}
}

// TestTapProbeConcurrent drives one tap and probe from many goroutines
// (run with -race).
func TestTapProbeConcurrent(t *testing.T) {
	rec := NewRecorder()
	tap := NewTap(&callLog{}, rec, true)
	probe := NewProbe(tap)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f := testFlow(int64(g*1000 + i))
				tap.Observe(f)
				probe.Request(f, nil)
				probe.Response(f, nil)
			}
		}(g)
	}
	wg.Wait()
	if tap.Flows() != 1600 || probe.Exchanges() != 1600 || len(probe.UpstreamMS()) != 1600 {
		t.Fatalf("flows %d exchanges %d", tap.Flows(), probe.Exchanges())
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "visit", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "exchange", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "exchange", Start: 30, End: 60},  // overlaps the first
		{ID: 4, Parent: 1, Name: "exchange", Start: 90, End: 120}, // clipped at the parent's end
		{ID: 5, Parent: 2, Name: "upstream", Start: 15, End: 35},
	}
	self := SelfTimes(spans)
	want := map[string]time.Duration{"visit": 100 - 60, "exchange": (30 - 20) + 30 + 30, "upstream": 20}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var rec *Recorder
	sp := rec.Begin("x", nil, 0)
	sp.End()
	if sp.ID() != 0 || rec.GroupVisits(sp) != nil {
		t.Fatal("nil recorder recorded something")
	}
}
