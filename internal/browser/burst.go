package browser

// Native bursts. An app's per-visit services (planVisit) and each idle
// scheduler tick (idleTick) fire several native requests at once. The
// real apps send them from independent SDK clients, so requests to
// different destinations overlap on the wire. The dispatcher plans a
// burst in the calling goroutine, groups it by destination host keeping
// each host's order, and runs one lane per host: a host's requests stay
// serial on its keep-alive connection (one QUIC probe, one h2 session,
// the same handshakes a serial burst pays), while the round trips of
// different hosts overlap. sendBurst returns only when every lane is
// done, so a burst still ends before Navigate or the idle tick returns.

import (
	"encoding/base64"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"

	"panoptes/internal/capture"
)

// Kinds of native burst request.
const (
	opHTTP = "http" // an HTTP request through nativeRequest
	opWS   = "ws"   // the WebSocket telemetry frame (body = frame)
	opDoH  = "doh"  // a DoH lookup of the qname in body
)

// nativeOp is one planned request of a native burst. host is the
// destination and the lane key.
type nativeOp struct {
	kind                            string
	method, host, path, query, body string
}

// planVisit lays out a visit's per-visit native traffic in serial order:
// the OnVisit templates, the PII beacon (Table 2), the VisitNoise beacons
// round-robin over the noise hosts, the WebSocket telemetry frame and the
// DoH PII lookup. It reads the identifier, visit counter and noise
// cursor under b.mu, once, in the calling goroutine.
func (b *Browser) planVisit(visitURL string) []nativeOp {
	p := b.Profile
	b.mu.Lock()
	defer b.mu.Unlock()

	host := ""
	if u, err := url.Parse(visitURL); err == nil {
		host = u.Hostname()
	}
	fill := strings.NewReplacer(
		"{URL}", visitURL,
		"{URL_B64}", base64.StdEncoding.EncodeToString([]byte(visitURL)),
		"{URL_ESC}", url.QueryEscape(visitURL),
		"{HOST}", host,
		"{UUID}", b.uuid,
	)
	var ops []nativeOp
	for _, t := range p.OnVisit {
		method := t.Method
		if method == "" {
			method = http.MethodGet
		}
		ops = append(ops, nativeOp{kind: opHTTP, method: method, host: t.Host, path: t.Path,
			query: fill.Replace(t.Query), body: fill.Replace(t.Body)})
	}
	// PII beacon (Table 2): device attributes as query parameters.
	if p.PII.Any() && p.PIICarrier != "" {
		ops = append(ops, nativeOp{kind: opHTTP, method: http.MethodGet, host: p.PIICarrier,
			path: "/device/profile", query: b.piiQuery()})
	}
	// Generic telemetry noise, round-robin over the noise hosts.
	for i := 0; i < p.VisitNoise && len(p.NoiseHosts) > 0; i++ {
		op := nativeOp{kind: opHTTP, method: http.MethodGet,
			host: p.NoiseHosts[b.noiseIdx%len(p.NoiseHosts)], path: "/beacon"}
		b.noiseIdx++
		if p.NoiseBytes > 0 {
			op.method = http.MethodPost
			op.body = fmt.Sprintf(`{"event":"telemetry","seq":%d,"pad":"%s"}`,
				b.visitCount, strings.Repeat("t", p.NoiseBytes))
		}
		ops = append(ops, op)
	}
	// WebSocket push telemetry: the visited URL rides inside a frame, not
	// an HTTP request line or body.
	if p.WSTelemetryHost != "" && b.transportOn(capture.TransportWS) {
		ops = append(ops, nativeOp{kind: opWS, host: p.WSTelemetryHost, path: wsTelemetryPath,
			body: fmt.Sprintf(`{"event":"page_visit","seq":%d,"url":%q,"uuid":%q}`, b.visitCount, visitURL, b.uuid)})
	}
	// DoH PII qname: the device country crosses the wire only as a DNS
	// label inside the DoH POST body.
	if p.DoHPIIQname != "" && b.dohClient != nil {
		if u, err := url.Parse(b.dohClient.Endpoint); err == nil {
			ops = append(ops, nativeOp{kind: opDoH, method: http.MethodPost, host: u.Hostname(), path: u.Path,
				body: strings.ReplaceAll(p.DoHPIIQname, "{CC}", strings.ToLower(TestbedCountry))})
		}
	}
	return ops
}

// sendBurst sends a planned burst as one lane per destination host and
// returns once every lane is done.
func (b *Browser) sendBurst(ops []nativeOp) {
	b.mu.Lock()
	observe := b.burstObserver
	b.mu.Unlock()
	if observe != nil {
		observe(ops)
	}
	lanes := hostLanes(ops)
	if len(lanes) == 1 {
		b.sendLane(lanes[0])
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(lanes))
	for _, lane := range lanes {
		go func(lane []nativeOp) {
			defer wg.Done()
			b.sendLane(lane)
		}(lane)
	}
	wg.Wait()
}

// hostLanes groups a burst by destination host, hosts in order of first
// appearance and each host's requests in plan order.
func hostLanes(ops []nativeOp) [][]nativeOp {
	idx := make(map[string]int)
	var lanes [][]nativeOp
	for _, op := range ops {
		i, ok := idx[op.host]
		if !ok {
			i = len(lanes)
			idx[op.host] = i
			lanes = append(lanes, nil)
		}
		lanes[i] = append(lanes[i], op)
	}
	return lanes
}

// sendLane sends one host's requests in order.
func (b *Browser) sendLane(lane []nativeOp) {
	for _, op := range lane {
		switch op.kind {
		case opWS:
			b.wsTelemetry(op.host, op.body)
		case opDoH:
			b.lookupMu.Lock()
			_, _ = b.dohClient.Lookup(op.body)
			b.lookupMu.Unlock()
		default:
			b.nativeRequest(op.method, op.host, op.path, op.query, op.body)
		}
	}
}
