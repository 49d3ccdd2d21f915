package browser_test

import (
	"net/http"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"panoptes/internal/browser"
	"panoptes/internal/capture"
	"panoptes/internal/core"
	"panoptes/internal/obs"
)

// divertedReady launches a browser past its wizard with its traffic
// diverted through the MITM proxy, so every native request is captured.
func divertedReady(t *testing.T, w *core.World, name string) *browser.Browser {
	t.Helper()
	b := launchReady(t, w, name)
	if err := w.Device.DivertBrowser(b.UID(), core.ProxyAddr); err != nil {
		t.Fatal(err)
	}
	return b
}

// lastPlan records the plan of the most recent native burst.
type lastPlan struct {
	mu   sync.Mutex
	plan []browser.PlannedRequest
}

func (l *lastPlan) set(plan []browser.PlannedRequest) {
	l.mu.Lock()
	l.plan = plan
	l.mu.Unlock()
}

func (l *lastPlan) get() []browser.PlannedRequest {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.plan
}

func sig(method, path, query, body string) string {
	return method + " " + path + "?" + query + " " + body
}

// plannedByHost renders each host's share of a plan as the flows it must
// produce, in plan order. DoH lookups are left out: they share the
// resolver endpoint with the app's own name lookups.
func plannedByHost(plan []browser.PlannedRequest) map[string][]string {
	out := map[string][]string{}
	for _, op := range plan {
		switch op.Kind {
		case "ws": // the upgrade, then the frame carrying the payload
			out[op.Host] = append(out[op.Host], sig(http.MethodGet, op.Path, "", ""), sig("WS", op.Path, "", op.Body))
		case "http":
			out[op.Host] = append(out[op.Host], sig(op.Method, op.Path, op.Query, op.Body))
		}
	}
	return out
}

// capturedByHost renders a browser's native flows that are not in seen,
// DoH messages excluded, per host in capture (flow ID) order, and adds
// them to seen.
func capturedByHost(w *core.World, name string, seen map[int64]bool) map[string][]string {
	var fresh []*capture.Flow
	for _, f := range w.DB.Native.ByBrowser(name) {
		if !seen[f.ID] {
			seen[f.ID] = true
			fresh = append(fresh, f)
		}
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].ID < fresh[j].ID })
	out := map[string][]string{}
	for _, f := range fresh {
		if f.Transport == capture.TransportDoH {
			continue
		}
		out[f.Host] = append(out[f.Host], sig(f.Method, f.Path, f.RawQuery, string(f.Body)))
	}
	return out
}

// TestBurstLanesKeepPerHostOrder: a visit's native flows, grouped by
// destination host, are exactly the serial plan's per-host sequences —
// every planned request sent once, in plan order on its host — for
// browsers covering h1, h2, WebSocket and DoH native traffic.
func TestBurstLanesKeepPerHostOrder(t *testing.T) {
	names := []string{"Chrome", "Edge", "Opera", "Yandex", "Dolphin", "Whale"}
	w := newWorld(t, names...)
	for _, name := range names {
		b := divertedReady(t, w, name)
		var last lastPlan
		seen := map[int64]bool{}
		// Outside a campaign the engine's requests carry no taint and
		// land in the native store too; the burst starts after the page
		// load, so everything captured by then is not the burst's.
		b.ObserveBursts(func(plan []browser.PlannedRequest) {
			capturedByHost(w, name, seen)
			last.set(plan)
		})
		for _, site := range w.Sites[:2] {
			if _, err := b.Navigate(site.URL()); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := plannedByHost(last.get())
			if len(want) == 0 {
				t.Fatalf("%s: empty burst plan", name)
			}
			if got := capturedByHost(w, name, seen); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: captured per-host flows differ from the plan:\n got %q\nwant %q", name, site.URL(), got, want)
			}
		}
	}
}

// laneGate is a proxy addon that holds each of one browser's native
// requests until requests to two distinct hosts are held together (or a
// bound passes), and records the in-flight high-water marks. DoH
// messages are counted per host but never held: the app's lookups are
// serialised, so holding one would stall every lane behind it.
type laneGate struct {
	uid int

	mu         sync.Mutex
	armed      bool
	inflight   map[string]int
	held       map[string]int
	counted    map[int64]string
	maxPerHost int
	maxHeld    int
	open       chan struct{}
	opened     bool
}

func newLaneGate(uid int) *laneGate {
	return &laneGate{uid: uid, inflight: map[string]int{}, held: map[string]int{}, counted: map[int64]string{},
		open: make(chan struct{})}
}

func (g *laneGate) arm(on bool) {
	g.mu.Lock()
	g.armed = on
	g.mu.Unlock()
}

func (g *laneGate) release() {
	if !g.opened {
		g.opened = true
		close(g.open)
	}
}

func (g *laneGate) Request(f *capture.Flow, _ *http.Request) {
	if f.BrowserUID != g.uid || f.Origin != capture.OriginNative {
		return
	}
	g.mu.Lock()
	if !g.armed {
		g.mu.Unlock()
		return
	}
	g.counted[f.ID] = f.Host
	g.inflight[f.Host]++
	if n := g.inflight[f.Host]; n > g.maxPerHost {
		g.maxPerHost = n
	}
	if f.Transport == capture.TransportDoH {
		g.mu.Unlock()
		return
	}
	g.held[f.Host]++
	hosts := 0
	for _, n := range g.held {
		if n > 0 {
			hosts++
		}
	}
	if hosts > g.maxHeld {
		g.maxHeld = hosts
	}
	if hosts >= 2 {
		g.release()
	}
	g.mu.Unlock()
	// The bound only keeps a serial sender from hanging the test; it is
	// not what the test asserts.
	select {
	case <-g.open:
	case <-time.After(5 * time.Second):
		g.mu.Lock()
		g.release()
		g.mu.Unlock()
	}
	g.mu.Lock()
	g.held[f.Host]--
	g.mu.Unlock()
}

func (g *laneGate) Response(f *capture.Flow, _ *http.Response) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if host, ok := g.counted[f.ID]; ok {
		delete(g.counted, f.ID)
		g.inflight[host]--
	}
}

// TestBurstLanesOverlap: with every native request of a visit's burst
// held at the proxy until two hosts are in flight, the burst still
// completes, because its lanes overlap; and no host ever has more than
// one request in flight, name lookups to the DoH endpoint included.
func TestBurstLanesOverlap(t *testing.T) {
	w := newWorld(t, "Opera")
	b := divertedReady(t, w, "Opera")
	gate := newLaneGate(b.UID())
	w.Proxy.Use(gate)
	// Arm at the burst, after the engine's page load.
	b.ObserveBursts(func([]browser.PlannedRequest) { gate.arm(true) })
	if _, err := b.Navigate(w.Sites[0].URL()); err != nil {
		t.Fatal(err)
	}
	gate.arm(false)

	gate.mu.Lock()
	defer gate.mu.Unlock()
	if gate.maxHeld < 2 {
		t.Errorf("at most %d host held at once: the burst's lanes never overlapped", gate.maxHeld)
	}
	if gate.maxPerHost != 1 {
		t.Errorf("up to %d requests in flight to one host, want 1", gate.maxPerHost)
	}
}

// burstCheck is the state a burst starts from.
type burstCheck struct {
	plan     []browser.PlannedRequest
	resolved map[string]bool
	probed   map[string]string
	doh      int
	fallback int64
}

// TestBurstLookupsAndProbesOnce: across visit and idle bursts, the DoH
// messages a burst sends equal its new destination hosts (not yet in the
// app's resolver cache) plus its planned DoH lookups, and the QUIC
// fallback counter moves by its new h3-advertising hosts — no lookup or
// probe is duplicated by the lanes.
func TestBurstLookupsAndProbesOnce(t *testing.T) {
	names := []string{"Chrome", "Edge", "Whale"}
	w := newWorld(t, names...)
	wantLookups, wantProbes := 0, 0
	for _, name := range names {
		b := divertedReady(t, w, name)
		fallback := obs.Default.Counter("netsim_quic_fallback_total", "browser", name)
		dohFlows := func() int {
			n := 0
			for _, f := range w.DB.Native.ByBrowser(name) {
				if f.Transport == capture.TransportDoH {
					n++
				}
			}
			return n
		}
		var mu sync.Mutex
		var cur *burstCheck
		b.ObserveBursts(func(plan []browser.PlannedRequest) {
			st := b.SessionState()
			c := &burstCheck{plan: plan, resolved: map[string]bool{}, probed: st.QUICProbed,
				doh: dohFlows(), fallback: fallback.Value()}
			for _, h := range st.ResolvedHosts {
				c.resolved[h] = true
			}
			mu.Lock()
			cur = c
			mu.Unlock()
		})
		check := func(what string) {
			mu.Lock()
			c := cur
			cur = nil
			mu.Unlock()
			if c == nil {
				return // no burst
			}
			newHosts, newH3, lookups := map[string]bool{}, map[string]bool{}, 0
			for _, op := range c.plan {
				if op.Kind == "doh" {
					lookups++
					continue
				}
				if !c.resolved[op.Host] {
					newHosts[op.Host] = true
				}
				if _, probed := c.probed[op.Host]; op.Kind == "http" && !probed && w.Inet.SupportsH3(op.Host) {
					newH3[op.Host] = true
				}
			}
			if got, want := dohFlows()-c.doh, len(newHosts)+lookups; b.Profile.DNS != "local" && got != want {
				t.Errorf("%s %s: %d DoH messages, want %d (new hosts %v + %d planned lookups)", name, what, got, want, newHosts, lookups)
			}
			wantLookups += len(newHosts)
			wantProbes += len(newH3)
			if got := fallback.Value() - c.fallback; got != int64(len(newH3)) {
				t.Errorf("%s %s: QUIC fallback counter moved %d, want %d (new h3 hosts %v)", name, what, got, len(newH3), newH3)
			}
		}
		for _, site := range w.Sites[:3] {
			if _, err := b.Navigate(site.URL()); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			check("visit " + site.URL())
		}
		for i := 0; i < 6; i++ {
			b.AdvanceActivity(5 * time.Second) // one idle tick
			check("idle tick")
		}
	}
	if wantLookups == 0 || wantProbes == 0 {
		t.Fatalf("bursts covered %d new hosts and %d new h3 hosts; the check needs both", wantLookups, wantProbes)
	}
}
