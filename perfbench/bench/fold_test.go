package bench

import (
	"bytes"
	"context"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// stack builds a fixture sample from frames listed leaf first.
func stack(frames ...string) Stack { return Stack{Frames: frames, NS: 10_000_000} }

func TestClassifyFixtures(t *testing.T) {
	cases := []struct {
		name string
		s    Stack
		want string
	}{
		{"tls client handshake on a net/http client goroutine", stack(
			"crypto/internal/fips140/nistec.p256SqrInternal",
			"crypto/tls.(*Conn).clientHandshake",
			"crypto/tls.(*Conn).HandshakeContext",
			"net/http.(*persistConn).addTLS.func2",
		), LayerTLSClient},
		{"tls read on a net/http client read loop", stack(
			"crypto/tls.(*Conn).Read",
			"bufio.(*Reader).Peek",
			"net/http.(*persistConn).readLoop",
		), LayerTLSClient},
		{"tls server handshake on a net/http server goroutine", stack(
			"crypto/ecdsa.SignASN1",
			"crypto/tls.(*serverHandshakeStateTLS13).sendServerCertificate",
			"crypto/tls.(*Conn).HandshakeContext",
			"net/http.(*conn).serve",
		), LayerTLSOrigin},
		{"tls background read on an origin connection", stack(
			"crypto/tls.(*Conn).Read",
			"net/http.(*connReader).backgroundRead",
		), LayerTLSOrigin},
		{"leaf minting inside the proxy's client handshake", stack(
			"crypto/ecdsa.SignASN1",
			"crypto/x509.CreateCertificate",
			"panoptes/internal/pki.(*CA).Issue",
			"panoptes/internal/mitm.(*Proxy).leafFor",
			"crypto/tls.(*serverHandshakeStateTLS13).pickCertificate",
			"crypto/tls.(*Conn).HandshakeContext",
			"panoptes/internal/mitm.(*Proxy).handleConn",
		), LayerTLSProxy},
		{"proxy upstream dial", stack(
			"crypto/tls.(*Conn).clientHandshake",
			"panoptes/internal/mitm.(*Proxy).dialUpstream",
			"panoptes/internal/mitm.(*Proxy).forward",
			"panoptes/internal/mitm.(*Proxy).handleConn",
		), LayerTLSProxy},
		{"browser-owned tls under an h2 helper", stack(
			"crypto/tls.(*Conn).Write",
			"panoptes/internal/h2.(*Client).RoundTrip",
			"panoptes/internal/webengine.(*Engine).Fetch",
		), LayerTLSClient},
		{"tls with no side", stack("crypto/tls.(*Conn).Read", "example.com/other.worker"), LayerUnattributed},
		{"background mark worker", stack("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"), LayerGC},
		{"gc assist wins over tls", stack(
			"runtime.gcAssistAlloc", "runtime.mallocgc", "crypto/tls.(*Conn).readRecord",
			"panoptes/internal/mitm.(*Proxy).handleConn",
		), LayerGC},
		{"innermost owner: analyzer under capture under mitm", stack(
			"runtime.mapassign",
			"panoptes/internal/analysis.(*Fig2Analyzer).observe",
			"panoptes/internal/pipeline.(*Pipeline).Observe",
			"panoptes/internal/capture.(*Store).Add",
			"panoptes/internal/taint.(*SplitterAddon).Request",
			"panoptes/internal/mitm.(*Proxy).serveOne",
		), LayerPipeline},
		{"shared ws helper takes the caller's layer", stack(
			"panoptes/internal/ws.(*Conn).ReadMessage",
			"panoptes/internal/cdp.(*Client).readLoop",
		), LayerBrowser},
		{"shared helper alone falls back", stack("panoptes/internal/ws.(*Conn).ReadMessage"), LayerMitm},
		{"export phase label", Stack{Frames: []string{
			"encoding/json.(*encodeState).marshal",
			"panoptes/internal/capture.(*Store).WriteJSONL",
		}, Labels: map[string]string{"phase": "export"}, NS: 1}, LayerReport},
		{"crawl phase label keeps module attribution", Stack{Frames: []string{
			"panoptes/internal/capture.(*Store).Add",
		}, Labels: map[string]string{"phase": "crawl"}, NS: 1}, LayerCapture},
		{"origin server without tls", stack(
			"net/http.(*conn).readRequest",
			"net/http.(*conn).serve",
		), LayerOrigin},
		{"scheduler", stack("runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"), LayerRuntime},
		{"profiler", stack("runtime/pprof.(*profileBuilder).addCPUData", "runtime/pprof.profileWriter"), LayerObs},
		{"benchmark wrapper", stack("sync.(*Mutex).Lock", "panoptes/perfbench/bench.(*Tap).Observe"), LayerObs},
		{"unknown root", stack("syscall.Syscall", "os.(*File).Write", "internal/poll.something"), LayerUnattributed},
		{"empty", Stack{}, LayerUnattributed},
	}
	for _, c := range cases {
		if got := Classify(c.s); got != c.want {
			t.Errorf("%s: Classify = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestFoldShares(t *testing.T) {
	f := FoldStacks([]Stack{
		{Frames: []string{"runtime.gcBgMarkWorker"}, NS: 30},
		{Frames: []string{"crypto/tls.(*Conn).Read", "net/http.(*persistConn).readLoop"}, NS: 50},
		{Frames: []string{"mystery"}, NS: 20},
	})
	if f.TotalNS != 100 || f.Samples != 3 {
		t.Fatalf("total %d over %d samples", f.TotalNS, f.Samples)
	}
	if f.Share(LayerUnattributed) != 20 || f.Share(LayerTLSClient) != 50 || f.Share(LayerGC) != 30 {
		t.Errorf("shares: %v", f.NS)
	}
	var buf bytes.Buffer
	if err := f.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "unattributed") {
		t.Errorf("table lacks the unattributed row:\n%s", buf.String())
	}
}

//go:noinline
func spinForProfile(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

// TestParseProfileRoundTrip decodes a real runtime/pprof profile.
func TestParseProfileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler busy: %v", err)
	}
	pprof.Do(context.Background(), pprof.Labels("phase", "export"), func(context.Context) {
		spinForProfile(300 * time.Millisecond)
	})
	pprof.StopCPUProfile()
	stacks, err := ParseProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var spin, labelled int
	for _, s := range stacks {
		for _, f := range s.Frames {
			if strings.HasSuffix(f, "spinForProfile") {
				spin++
				if s.Labels["phase"] == "export" {
					labelled++
				}
				break
			}
		}
	}
	if spin == 0 || labelled != spin {
		t.Fatalf("%d stacks: %d in spinForProfile, %d of them labelled", len(stacks), spin, labelled)
	}
	if f := FoldStacks(stacks); f.NS[LayerReport] == 0 {
		t.Errorf("labelled samples not folded into report: %v", f.NS)
	}
	if _, err := ParseProfile(strings.NewReader("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}
