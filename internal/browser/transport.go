package browser

// Native transport behaviours beyond plain HTTP/1.1: the QUIC
// probe-and-fallback arms race (browsers attempt UDP/443 against
// h3-advertising origins; the testbed's block-http3 firewall rule drops
// the probe and forces them onto interceptable TCP), persistent native
// HTTP/2 connections to the profile's H2Hosts, and the per-visit
// WebSocket telemetry channel. All of it leaves the device through the
// diverted network stack; the analysis pipeline sees only the wire.

import (
	"context"
	"crypto/tls"
	"fmt"
	"net"
	"net/http"

	"panoptes/internal/capture"
	"panoptes/internal/h2"
	"panoptes/internal/obs"
	"panoptes/internal/ws"
)

func init() {
	obs.Default.Help("netsim_quic_fallback_total",
		"QUIC (UDP/443) probes dropped by the block-http3 firewall rule, forcing the browser onto interceptable TCP, by browser.")
	obs.Default.Help("netsim_quic_bypass_total",
		"Native requests shipped over QUIC while UDP/443 was open (block-h3 ablation off): traffic the TCP interception plane never sees, by browser.")
}

// transportOn reports whether the campaign enabled transport t for this
// browser. Nil Options.Transports enables everything.
func (b *Browser) transportOn(t string) bool {
	if len(b.opts.Transports) == 0 {
		return true
	}
	for _, v := range b.opts.Transports {
		if v == t {
			return true
		}
	}
	return false
}

// --- QUIC probe / fallback ---

// quicBypass runs the HTTP/3 arms race for one native request. The first
// contact with an h3-advertising origin sends a UDP/443 probe: dropped
// by the firewall → the session remembers the fallback (counted once per
// origin) and every request proceeds over TCP; delivered → the origin is
// reachable over QUIC, this and every later request to it leaves as a
// datagram, and the function returns true (nothing for the TCP plane).
func (b *Browser) quicBypass(method, host, fullURL, body string) bool {
	if !b.Profile.AttemptsQUIC || b.dev.Net == nil || !b.dev.Net.SupportsH3(host) {
		return false
	}
	b.quicMu.Lock()
	state, probed := b.quicState[host]
	b.quicMu.Unlock()
	if !probed {
		delivered, err := b.dev.SendUDP(b.Pkg.UID, host, 443, []byte("quic initial "+host))
		state = "fallback"
		if err == nil && delivered {
			state = "bypass"
		}
		b.quicMu.Lock()
		if b.quicState == nil {
			b.quicState = make(map[string]string)
		}
		b.quicState[host] = state
		b.quicMu.Unlock()
		if state == "fallback" {
			obs.Default.Counter("netsim_quic_fallback_total", "browser", b.Profile.Name).Inc()
		}
	}
	if state != "bypass" {
		return false
	}
	payload := fmt.Sprintf("h3 %s %s\n%s", method, fullURL, body)
	if _, err := b.dev.SendUDP(b.Pkg.UID, host, 443, []byte(payload)); err != nil {
		return false
	}
	obs.Default.Counter("netsim_quic_bypass_total", "browser", b.Profile.Name).Inc()
	return true
}

// --- Native HTTP/2 ---

// h2NativeConn is one persistent native HTTP/2 connection.
type h2NativeConn struct {
	conn net.Conn
	hc   *h2.Client
}

// useH2 reports whether native requests to host ride the h2 path.
func (b *Browser) useH2(host string) bool {
	if !b.transportOn(capture.TransportH2) {
		return false
	}
	for _, h := range b.Profile.H2Hosts {
		if h == host {
			return true
		}
	}
	return false
}

// h2Request performs req over the host's persistent h2 connection. It
// returns true when the exchange was handled on the h2 path (success or
// counted failure) and false when ALPN negotiated http/1.1 — the caller
// then reissues the request through the ordinary client.
func (b *Browser) h2Request(req *http.Request) bool {
	host := req.URL.Hostname()
	b.h2Mu.Lock()
	defer b.h2Mu.Unlock()

	entry := b.h2Conns[host]
	if entry == nil {
		raw, err := b.dev.DialContext(context.Background(), b.Pkg.UID, host+":443")
		if err != nil {
			b.countNativeErr()
			return true
		}
		tcfg := b.clientTLS.Clone()
		tcfg.ServerName = host
		tcfg.NextProtos = []string{h2.ProtoName, "http/1.1"}
		tc := tls.Client(raw, tcfg)
		if err := tc.Handshake(); err != nil {
			raw.Close()
			b.countNativeErr()
			return true
		}
		if tc.ConnectionState().NegotiatedProtocol != h2.ProtoName {
			tc.Close()
			return false
		}
		hc, err := h2.NewClient(tc)
		if err != nil {
			tc.Close()
			b.countNativeErr()
			return true
		}
		entry = &h2NativeConn{conn: tc, hc: hc}
		if b.h2Conns == nil {
			b.h2Conns = make(map[string]*h2NativeConn)
		}
		b.h2Conns[host] = entry
	}

	resp, err := entry.hc.RoundTrip(req)
	if err != nil {
		entry.conn.Close()
		delete(b.h2Conns, host)
		b.countNativeErr()
		return true
	}
	resp.Body.Close()
	return true
}

// closeH2Conns drops every persistent h2 connection (app stop).
func (b *Browser) closeH2Conns() {
	b.h2Mu.Lock()
	defer b.h2Mu.Unlock()
	for host, e := range b.h2Conns {
		e.conn.Close()
		delete(b.h2Conns, host)
	}
}

func (b *Browser) countNativeErr() {
	b.mu.Lock()
	b.nativeErrs++
	b.mu.Unlock()
}

// --- WebSocket telemetry ---

// wsTelemetryPath is the push channel's endpoint on the telemetry host.
const wsTelemetryPath = "/push/v1/telemetry"

// wsTelemetry opens the push channel, ships one visit frame (carrying
// the visited URL and the persistent identifier), reads the ack, and
// closes.
func (b *Browser) wsTelemetry(host, frame string) {
	if b.resolve != nil {
		_ = b.resolve(host)
	}
	c, err := ws.Dial("wss://"+host+wsTelemetryPath, func(addr string) (net.Conn, error) {
		raw, err := b.dev.DialContext(context.Background(), b.Pkg.UID, addr)
		if err != nil {
			return nil, err
		}
		tcfg := b.clientTLS.Clone()
		tcfg.ServerName = host
		tc := tls.Client(raw, tcfg)
		if err := tc.Handshake(); err != nil {
			raw.Close()
			return nil, err
		}
		return tc, nil
	})
	if err != nil {
		b.countNativeErr()
		return
	}
	defer c.Close()
	if err := c.WriteMessage(ws.OpText, []byte(frame)); err != nil {
		b.countNativeErr()
		return
	}
	_, _, _ = c.ReadMessage()
}
