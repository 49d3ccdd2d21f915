package faultsim

import (
	"errors"
	"testing"

	"panoptes/internal/netsim"
)

func TestArmingIsDeterministic(t *testing.T) {
	plan := Plan{Seed: 7, Rates: UniformRates(0.5)}
	a := New(plan)
	b := New(plan)
	for attempt := 1; attempt <= 3; attempt++ {
		a.BeginAttempt(1, "Chrome", "https://site0.example/", attempt)
		b.BeginAttempt(9, "Chrome", "https://site0.example/", attempt)
		ea := a.DialFault(1, "site0.example", "site0.example:443")
		eb := b.DialFault(9, "site0.example", "site0.example:443")
		if (ea == nil) != (eb == nil) {
			t.Fatalf("attempt %d: dial fault diverged: %v vs %v", attempt, ea, eb)
		}
		if ka, oka := a.TLSFault(1, "site0.example"); true {
			kb, okb := b.TLSFault(9, "site0.example")
			if oka != okb || ka != kb {
				t.Fatalf("attempt %d: tls fault diverged: %v/%v vs %v/%v", attempt, ka, oka, kb, okb)
			}
		}
		a.EndAttempt(1)
		b.EndAttempt(9)
	}
}

func TestMaxFaultAttemptsBoundsInjection(t *testing.T) {
	// Rate 1.0 arms everything, but attempts beyond the default
	// MaxFaultAttempts (2) must always be clean so retries converge.
	inj := New(Plan{Seed: 1, Rates: map[Kind]float64{DNSNXDomain: 1}})
	inj.BeginAttempt(1, "Chrome", "https://a.example/", 3)
	if err := inj.DialFault(1, "a.example", "a.example:443"); err != nil {
		t.Fatalf("attempt 3 should be clean, got %v", err)
	}
	inj.EndAttempt(1)

	inj.BeginAttempt(1, "Chrome", "https://a.example/", 2)
	if err := inj.DialFault(1, "a.example", "a.example:443"); err == nil {
		t.Fatal("attempt 2 at rate 1.0 should fault")
	}
	inj.EndAttempt(1)
}

func TestFaultsKeyedToPageHost(t *testing.T) {
	inj := New(Plan{Seed: 1, Rates: map[Kind]float64{ConnRefused: 1}})
	inj.BeginAttempt(1, "Chrome", "https://page.example/x", 1)
	if err := inj.DialFault(1, "cdn.example", "cdn.example:443"); err != nil {
		t.Fatalf("non-page host must not fault, got %v", err)
	}
	err := inj.DialFault(1, "page.example", "page.example:443")
	if err == nil {
		t.Fatal("page host dial should fault")
	}
	var refused *netsim.ErrConnRefused
	if !errors.As(err, &refused) {
		t.Fatalf("want wrapped ErrConnRefused, got %T: %v", err, err)
	}
	if k, ok := InjectedKind(err); !ok || k != ConnRefused {
		t.Fatalf("InjectedKind = %v, %v", k, ok)
	}
	// The armed fault was consumed: a second dial is clean.
	if err := inj.DialFault(1, "page.example", "page.example:443"); err != nil {
		t.Fatalf("fault should be single-shot, got %v", err)
	}
	if n := inj.EndAttempt(1); n != 1 {
		t.Fatalf("consumed = %d, want 1", n)
	}
	if inj.Counts()[ConnRefused] != 1 {
		t.Fatalf("counts = %v", inj.Counts())
	}
}

func TestScriptedFault(t *testing.T) {
	inj := New(Plan{Seed: 1, Scripted: []ScriptedFault{
		{Kind: BrowserCrash, Browser: "Firefox", Host: "b.example", Attempt: 2},
	}})
	inj.BeginAttempt(4, "Firefox", "https://b.example/", 1)
	if inj.CrashFault(4) {
		t.Fatal("scripted for attempt 2, fired on attempt 1")
	}
	inj.EndAttempt(4)
	inj.BeginAttempt(4, "Firefox", "https://b.example/", 2)
	if !inj.CrashFault(4) {
		t.Fatal("scripted crash did not fire on attempt 2")
	}
	inj.EndAttempt(4)
	inj.BeginAttempt(5, "Chrome", "https://b.example/", 2)
	if inj.CrashFault(5) {
		t.Fatal("scripted fault leaked to another browser")
	}
	inj.EndAttempt(5)
}

func TestStallReleaseOnEndAttempt(t *testing.T) {
	inj := New(Plan{Seed: 1, Scripted: []ScriptedFault{{Kind: CDPStall, Browser: "Chrome"}}})
	inj.BeginAttempt(2, "Chrome", "https://c.example/", 1)
	release, ok := inj.StallFault(2)
	if !ok {
		t.Fatal("stall should be armed")
	}
	select {
	case <-release:
		t.Fatal("release closed before EndAttempt")
	default:
	}
	inj.EndAttempt(2)
	select {
	case <-release:
	default:
		t.Fatal("EndAttempt must close the stall release channel")
	}
}

func TestChaosHookSkipsLiteralIPs(t *testing.T) {
	inj := New(Plan{Seed: 3, ChaosRates: map[Kind]float64{DNSNXDomain: 1, ConnRefused: 1}})
	hook := inj.NetHook()
	if err := hook("lookup", "10.222.0.1"); err != nil {
		t.Fatalf("literal IP must never chaos-fault, got %v", err)
	}
	if err := hook("lookup", "site.example"); err == nil {
		t.Fatal("named lookup at rate 1.0 should fault")
	}
	if err := hook("dial", "site.example"); err == nil {
		t.Fatal("named dial at rate 1.0 should fault")
	}
}

func TestNilInjectorIsNoop(t *testing.T) {
	var inj *Injector
	inj.BeginAttempt(1, "Chrome", "https://x.example/", 1)
	if err := inj.DialFault(1, "x.example", "x.example:443"); err != nil {
		t.Fatal("nil injector must not fault")
	}
	if _, ok := inj.TLSFault(1, "x.example"); ok {
		t.Fatal("nil injector must not fault")
	}
	if _, ok := inj.FlowFault(1, "x.example"); ok {
		t.Fatal("nil injector must not fault")
	}
	if inj.CrashFault(1) {
		t.Fatal("nil injector must not crash")
	}
	if _, ok := inj.StallFault(1); ok {
		t.Fatal("nil injector must not stall")
	}
	if inj.EndAttempt(1) != 0 || inj.Total() != 0 {
		t.Fatal("nil injector bookkeeping should be zero")
	}
	if inj.NetHook() != nil {
		t.Fatal("nil injector NetHook should be nil")
	}
}

func TestHostOf(t *testing.T) {
	cases := map[string]string{
		"https://a.example/path?q=1": "a.example",
		"http://b.example:8080/":     "b.example",
		"c.example":                  "c.example",
		"d.example:443":              "d.example",
	}
	for in, want := range cases {
		if got := HostOf(in); got != want {
			t.Errorf("HostOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := map[string]string{
		"browser: Chrome crashed (injected browser_crash)":                    "crash",
		"ws: connection closed":                                               "crash",
		"cdp: Page.navigate timed out after 1s":                               "cdp",
		"faultsim: injected dns_nxdomain: netsim: no such host: x.example":    "dns",
		"dnssim: rcode 2 for x.example":                                       "dns",
		"faultsim: injected conn_refused: netsim: connection refused: x":      "connect_refused",
		"webengine: document https://x: remote error: tls: internal error":    "tls",
		"device: connection to 1.2.3.4:443 dropped by firewall (rule)":        "firewall",
		"faultsim: injected conn_timeout: netsim: connect to x:443 timed out": "timeout",
		"browser: document https://x.example/ returned status 500":            "http_error",
		"webengine: document https://x: read: unexpected EOF":                 "reset",
		"navigation: campaign circuit breaker open for host x.example":        "breaker_open",
		"something inscrutable":                                               "unknown",
	}
	for in, want := range cases {
		if got := ClassifyText(in); got != want {
			t.Errorf("ClassifyText(%q) = %q, want %q", in, got, want)
		}
	}
	if Classify(nil) != "" {
		t.Error("Classify(nil) should be empty")
	}
}
