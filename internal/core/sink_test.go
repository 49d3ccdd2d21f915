package core

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"panoptes/internal/capture"
	"panoptes/internal/faultsim"
	"panoptes/internal/profiles"
	"panoptes/internal/sink"
)

// sinkWorld assembles a small testbed with an export plane wired on the
// commit tap.
func sinkWorld(t *testing.T, sites int, sc sink.Config, pubs []sink.Publisher, names ...string) *World {
	t.Helper()
	var profs []*profiles.Profile
	for _, n := range names {
		p := profiles.ByName(n)
		if p == nil {
			t.Fatalf("no profile %q", n)
		}
		profs = append(profs, p)
	}
	w, err := NewWorld(WorldConfig{Sites: sites, Profiles: profs, Sinks: pubs, SinkConfig: sc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

func retainedIDs(w *World) map[int64]bool {
	ids := make(map[int64]bool)
	for _, f := range w.DB.Engine.All() {
		ids[f.ID] = true
	}
	for _, f := range w.DB.Native.All() {
		ids[f.ID] = true
	}
	return ids
}

// sinkAnalyses snapshots the fault-insensitive analysis surface for
// byte-comparison across runs (flow IDs are process-global tickets, so
// leak findings are compared with theirs zeroed).
func sinkAnalyses(t *testing.T, w *World) []byte {
	t.Helper()
	leaks := w.Suite.LeakNative.Findings()
	for i := range leaks {
		leaks[i].FlowID = 0
	}
	blob, err := json.Marshal(map[string]any{
		"fig2":   w.Suite.Fig2.Rows(),
		"matrix": w.Suite.PII.Matrix(),
		"leaks":  leaks,
		"dns":    w.Suite.DNS.Usage(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestSinkQuarantineInvariant is the export plane's load-bearing
// acceptance test: under the keystone fault plan (retries, retractions
// and all), the set of flows reaching a sink is exactly the committed
// history the retained stores hold — no retracted attempt's flow ever
// leaks — and the analyses match a fault-free run with the same sinks
// wired, byte for byte.
func TestSinkQuarantineInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("two multi-browser crawls")
	}
	run := func(faulty bool) (*World, *sink.MemorySink) {
		mem := sink.NewMemorySink()
		// Block policy + small batches: nothing is shed, so the exported
		// set must be exact.
		w := sinkWorld(t, 3, sink.Config{BatchSize: 4, Policy: sink.PolicyBlock}, []sink.Publisher{mem}, faultBrowsers...)
		if faulty {
			w.InstallFaults(faultsim.New(keystonePlan()))
		}
		res, err := w.RunCampaign(CampaignConfig{Parallelism: 4, NavigateTimeout: 20 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors != 0 {
			t.Fatalf("faulty=%v: %d visits failed terminally", faulty, res.Errors)
		}
		if faulty && res.Retries == 0 {
			t.Fatal("fault plan injected nothing: quarantine path never exercised")
		}
		if err := w.Exporter.PublishDeltas(w.Pipeline.Results()); err != nil {
			t.Fatal(err)
		}
		w.Exporter.Drain()
		return w, mem
	}

	wFaulty, memFaulty := run(true)
	exported := memFaulty.FlowIDs()
	retained := retainedIDs(wFaulty)
	for id := range exported {
		if !retained[id] {
			t.Errorf("sink holds flow %d that no retained store committed (retracted attempt leaked)", id)
		}
	}
	for id := range retained {
		if !exported[id] {
			t.Errorf("committed flow %d never reached the sink", id)
		}
	}
	if st := wFaulty.Exporter.Stats()[0]; st.Dropped != 0 {
		t.Fatalf("block policy shed %d events; the set comparison above is void", st.Dropped)
	}
	deltas := memFaulty.Deltas()
	for _, name := range wFaulty.Pipeline.Names() {
		if _, ok := deltas[name]; !ok {
			t.Errorf("analyzer %q delta missing from the sink", name)
		}
	}

	wClean, _ := run(false)
	if got, want := sinkAnalyses(t, wFaulty), sinkAnalyses(t, wClean); string(got) != string(want) {
		t.Errorf("faulty-run analyses diverge from the fault-free run with sinks wired:\ngot  %s\nwant %s", got, want)
	}
}

// TestSinkBreakerIndependence drives a permanently failing HTTP sink
// next to a healthy file sink through a real crawl: the HTTP breaker
// must open, and the file sink must still receive every committed flow.
func TestSinkBreakerIndependence(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "index down", http.StatusInternalServerError)
	}))
	defer srv.Close()
	httpSink := &sink.HTTPSink{URL: srv.URL, MaxRetries: 1, Sleep: func(time.Duration) {}}
	dir := t.TempDir()
	fileSink := sink.NewFileSink(dir)

	w := sinkWorld(t, 2,
		sink.Config{BatchSize: 4, Policy: sink.PolicyBlock, BreakerThreshold: 2},
		[]sink.Publisher{httpSink, fileSink}, "Chrome")
	res, err := w.RunCampaign(CampaignConfig{Parallelism: 1, NavigateTimeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d visits failed", res.Errors)
	}
	w.Exporter.Drain()
	retained := retainedIDs(w)
	var httpStats, fileStats sink.SinkStats
	for _, st := range w.Exporter.Stats() {
		switch st.Name {
		case "http":
			httpStats = st
		case "file":
			fileStats = st
		}
	}
	if httpStats.Published != 0 {
		t.Fatalf("the 500-only endpoint accepted %d events", httpStats.Published)
	}
	if httpStats.BreakerOpens == 0 {
		t.Fatal("failing HTTP sink's breaker never opened")
	}
	if fileStats.BreakerOpens != 0 || fileStats.Dropped != 0 {
		t.Fatalf("healthy file sink degraded alongside the failing peer: %+v", fileStats)
	}
	if fileStats.Published != int64(len(retained)) {
		t.Fatalf("file sink published %d events, want every committed flow (%d)", fileStats.Published, len(retained))
	}

	// Close seals the last segment; every committed flow must round-trip
	// out of the gzip JSONL segments.
	w.Close()
	got := make(map[int64]bool)
	for _, p := range fileSink.SegmentPaths() {
		for _, env := range readSinkSegment(t, p) {
			if env.Type == sink.TypeFlow {
				got[env.Flow.ID] = true
			}
		}
	}
	if len(got) != len(retained) {
		t.Fatalf("segments hold %d distinct flows, want %d", len(got), len(retained))
	}
	for id := range retained {
		if !got[id] {
			t.Errorf("committed flow %d missing from the file segments", id)
		}
	}
}

func readSinkSegment(t *testing.T, path string) []sink.Envelope {
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
	var out []sink.Envelope
	sc := bufio.NewScanner(zr)
	for sc.Scan() {
		var env sink.Envelope
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

// TestSinkResumeNoDoublePublish checkpoints a campaign mid-flight with
// an export plane attached, resumes it in a fresh world with its own
// sink, and asserts the two export streams partition the final
// committed history: nothing lost, nothing published twice.
func TestSinkResumeNoDoublePublish(t *testing.T) {
	if testing.Short() {
		t.Skip("two crawls with checkpoint round-trip")
	}
	sc := sink.Config{BatchSize: 4, Policy: sink.PolicyBlock}
	mem1 := sink.NewMemorySink()
	w1 := sinkWorld(t, 3, sc, []sink.Publisher{mem1}, "Chrome", "Brave")
	r1, err := w1.RunCampaign(CampaignConfig{
		Parallelism: 1, NavigateTimeout: 20 * time.Second,
		StopAfterVisits: 4, Checkpoint: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Stopped || r1.Checkpoint == nil {
		t.Fatalf("campaign did not stop on budget: stopped=%v checkpoint=%v", r1.Stopped, r1.Checkpoint != nil)
	}
	// The operator drains before persisting the checkpoint, so every
	// checkpointed flow has left the process.
	w1.Exporter.Drain()
	data, err := json.Marshal(r1.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	cp := &Checkpoint{}
	if err := json.Unmarshal(data, cp); err != nil {
		t.Fatal(err)
	}
	ids1 := mem1.FlowIDs()
	if len(ids1) == 0 {
		t.Fatal("first leg exported nothing; the dedupe path is untested")
	}
	if got, want := len(ids1), len(cp.Engine)+len(cp.Native); got != want {
		t.Fatalf("drained first leg exported %d flows, checkpoint holds %d", got, want)
	}

	mem2 := sink.NewMemorySink()
	w2 := sinkWorld(t, 3, sc, []sink.Publisher{mem2}, "Chrome", "Brave")
	r2, err := w2.RunCampaign(CampaignConfig{
		Parallelism: 1, NavigateTimeout: 20 * time.Second, Resume: cp,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Errors != 0 {
		t.Fatalf("resumed campaign had %d errors", r2.Errors)
	}
	w2.Exporter.Drain()
	ids2 := mem2.FlowIDs()
	for id := range ids2 {
		if ids1[id] {
			t.Errorf("flow %d published by both legs (checkpoint replay was not deduped)", id)
		}
	}
	if len(ids2) == 0 {
		t.Fatal("second leg exported nothing; resume produced no new flows")
	}
	final := retainedIDs(w2)
	for id := range final {
		if !ids1[id] && !ids2[id] {
			t.Errorf("committed flow %d reached neither export leg", id)
		}
	}
	for id := range ids2 {
		if !final[id] {
			t.Errorf("second leg exported flow %d the final stores never committed", id)
		}
	}
}

// TestSinkExportsFinishedFlows pins the ownership rule of the two
// streams that encode a flow off its commit: the export plane and, with
// retention off, the spill file. The proxy commits a flow at request
// time and writes its Status and RespBytes when the exchange ends, so
// neither may encode an untagged flow before then. A batch size of 1
// flushes each flow the moment it is committed, and the modelled round
// trip keeps the exchange running while the file sink's dispatcher
// encodes: every exported and every spilled idle flow must carry its
// final response fields (and -race must see no concurrent encode and
// write).
func TestSinkExportsFinishedFlows(t *testing.T) {
	fileSink := sink.NewFileSink(t.TempDir())
	w, err := NewWorld(WorldConfig{
		Sites: 2, Profiles: []*profiles.Profile{profiles.ByName("Opera")}, UpstreamRTT: 20 * time.Millisecond,
		Sinks: []sink.Publisher{fileSink}, SinkConfig: sink.Config{BatchSize: 1},
		Retain: capture.RetainNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var spill lockedBuffer
	w.DB.Engine.SetSpill(&spill)
	w.DB.Native.SetSpill(&spill)
	if _, err := w.RunIdle("Opera", 30*time.Second); err != nil {
		t.Fatal(err)
	}
	w.Close() // drains the exporter and seals the last segment

	var exported []*capture.Flow
	for _, p := range fileSink.SegmentPaths() {
		for _, env := range readSinkSegment(t, p) {
			if env.Type == sink.TypeFlow {
				exported = append(exported, env.Flow)
			}
		}
	}
	for _, c := range []struct {
		name  string
		flows []*capture.Flow
	}{
		{"sink", exported},
		{"spill", spill.flows(t)},
	} {
		t.Run(c.name, func(t *testing.T) {
			if len(c.flows) == 0 {
				t.Fatal("no idle flows written")
			}
			for _, f := range c.flows {
				if f.Status == 0 || f.RespBytes == 0 {
					t.Errorf("flow %d %s%s written before its exchange ended: status %d, resp_bytes %d",
						f.ID, f.Host, f.Path, f.Status, f.RespBytes)
				}
			}
		})
	}
}

// lockedBuffer collects the spill JSONL of both stores. Exchanges still
// running at World.Close may spill while the test reads, so writes and
// the read share a lock (each spilled flow is one Write).
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// flows decodes the flows spilled so far.
func (b *lockedBuffer) flows(t *testing.T) []*capture.Flow {
	t.Helper()
	b.mu.Lock()
	data := bytes.Clone(b.buf.Bytes())
	b.mu.Unlock()
	var out []*capture.Flow
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		f := new(capture.Flow)
		if err := dec.Decode(f); err != nil {
			t.Fatal(err)
		}
		out = append(out, f)
	}
	return out
}
