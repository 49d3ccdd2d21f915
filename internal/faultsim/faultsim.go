// Package faultsim is the seeded, deterministic fault-injection layer for
// the Panoptes testbed. The real campaign (paper §2.4) ran 15 flaky Android
// browsers against the live web for days; pages hung, apps crashed and
// cert-pinned browsers rejected the MITM leaf. faultsim reproduces that
// hostility inside the simulation — DNS NXDOMAIN/SERVFAIL, connect refusal,
// connect/read timeouts, TLS handshake failures, mid-stream resets, slow or
// 5xx origins, browser crashes and unresponsive CDP sockets — while keeping
// runs reproducible: every fault decision is a pure function of
// (seed, kind, browser, page host, attempt number).
//
// Two injection modes coexist:
//
//   - Armed (deterministic): core.RunCampaign calls BeginAttempt before each
//     navigation attempt; the plan's Rates/Scripted entries arm a set of
//     fault kinds for that (browser, url, attempt) triple, and the
//     substrate's operation sites (device dial, MITM handshake, MITM
//     exchange, browser navigate, CDP handler) consume them. Arming is
//     hash-based, so the same plan yields the same faults at parallelism 1
//     and 8, straight through or checkpoint+resumed. Attempts beyond
//     Plan.MaxFaultAttempts are always clean, so bounded retries converge.
//
//   - Chaos (occurrence-based): ChaosRates drive a global occurrence counter
//     consulted by the netsim hook and the DoH SERVFAIL hook. Chaos faults
//     interleave nondeterministically under concurrency; they exist for the
//     CI chaos smoke, not for determinism proofs.
package faultsim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"strings"
	"sync"

	"panoptes/internal/netsim"
	"panoptes/internal/obs"
)

// Kind names one injectable fault.
type Kind string

// The fault kinds. Visit-level kinds are consumed at the substrate's
// operation sites (see ArmedKinds); the chaos-only and population kinds
// are consulted by their own hooks below.
const (
	DNSNXDomain  Kind = "dns_nxdomain"  // lookup answers NXDOMAIN
	DNSServFail  Kind = "dns_servfail"  // DoH resolver answers SERVFAIL (chaos-only)
	ConnRefused  Kind = "conn_refused"  // connect refused
	ConnTimeout  Kind = "conn_timeout"  // connect times out
	ReadTimeout  Kind = "read_timeout"  // origin never answers; conn dies mid-read
	TLSHandshake Kind = "tls_handshake" // MITM leaf minting fails -> handshake alert
	PinReject    Kind = "pin_reject"    // pinned client rejects the MITM leaf
	StreamReset  Kind = "stream_reset"  // origin resets mid-body (short read)
	SlowResponse Kind = "slow_response" // origin answers, slowly (benign)
	HTTP5xx      Kind = "http_5xx"      // origin answers 500
	BrowserCrash Kind = "browser_crash" // app process dies on navigate
	CDPStall     Kind = "cdp_stall"     // DevTools socket stops answering
	SinkPublish  Kind = "sink_publish"  // export batch publish fails (chaos-only)
	PoolPoison   Kind = "pool_poison"   // upstream idle conns silently die (chaos-only)

	// Population kind: a simulated user abandons the population for
	// good at a session boundary. Consulted by the popsim engine at
	// session admission via UserChurnFault.
	UserChurn Kind = "user_churn"
)

// ArmedKinds participate in the deterministic per-attempt arming model, in
// canonical consumption order. DNSServFail is excluded: the DoH handler has
// no client identity to key an attempt on, so SERVFAIL is chaos-only.
var ArmedKinds = []Kind{
	DNSNXDomain, ConnRefused, ConnTimeout,
	TLSHandshake, PinReject,
	ReadTimeout, StreamReset, HTTP5xx, SlowResponse,
	BrowserCrash, CDPStall,
}

// ScriptedFault forces a kind onto a specific (browser, host, attempt)
// regardless of rates. Host "" matches any page host; Attempt 0 means the
// first attempt.
type ScriptedFault struct {
	Kind    Kind   `json:"kind"`
	Browser string `json:"browser"`
	Host    string `json:"host,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
}

// Plan configures an Injector. The zero plan injects nothing.
type Plan struct {
	// Seed keys every hash decision; two runs with equal plans fault
	// identically.
	Seed int64 `json:"seed"`
	// Rates arms each kind per (browser, page host, attempt) with the given
	// probability (0..1), deterministically.
	Rates map[Kind]float64 `json:"rates,omitempty"`
	// MaxFaultAttempts bounds how deep into the retry ladder armed faults
	// reach: attempts numbered above it are always clean. 0 means the
	// default of 2 (so MaxAttempts=3 campaigns always converge); negative
	// means unbounded.
	MaxFaultAttempts int `json:"max_fault_attempts,omitempty"`
	// Scripted forces specific faults independent of Rates.
	Scripted []ScriptedFault `json:"scripted,omitempty"`
	// ChaosRates drive the nondeterministic occurrence-counter mode used by
	// the netsim hook (DNSNXDomain, ConnRefused, ConnTimeout on named
	// dials/lookups) and the DoH hook (DNSServFail).
	ChaosRates map[Kind]float64 `json:"chaos_rates,omitempty"`
}

// UniformRates is a convenience for chaos smokes: every armed visit-level
// kind at the same rate.
func UniformRates(rate float64) map[Kind]float64 {
	m := make(map[Kind]float64, len(ArmedKinds))
	for _, k := range ArmedKinds {
		m[k] = rate
	}
	return m
}

func (p *Plan) maxFaultAttempts() int {
	switch {
	case p.MaxFaultAttempts == 0:
		return 2
	case p.MaxFaultAttempts < 0:
		return 1 << 30
	default:
		return p.MaxFaultAttempts
	}
}

// decide is the deterministic arming function.
func (p *Plan) decide(kind Kind, browser, host string, attempt int) bool {
	if attempt > p.maxFaultAttempts() {
		return false
	}
	for _, s := range p.Scripted {
		if s.Kind != kind || s.Browser != browser {
			continue
		}
		if s.Host != "" && s.Host != host {
			continue
		}
		want := s.Attempt
		if want == 0 {
			want = 1
		}
		if want == attempt {
			return true
		}
	}
	rate := p.Rates[kind]
	if rate <= 0 {
		return false
	}
	return hashFrac(p.Seed, "armed", string(kind), browser, host, fmt.Sprint(attempt)) < rate
}

// hashFrac maps (seed, parts...) to [0,1) via FNV-1a.
func hashFrac(seed int64, parts ...string) float64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	for _, s := range parts {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	const mod = 1 << 30
	return float64(h.Sum64()%mod) / mod
}

// attemptState is one armed navigation attempt, keyed by browser UID.
type attemptState struct {
	browser  string
	host     string
	attempt  int
	armed    map[Kind]bool
	consumed int
	release  chan struct{} // closed at EndAttempt; unblocks a CDP stall
}

// Injector holds a Plan and the live armed-attempt table. All methods are
// safe for concurrent use; nil *Injector receivers are no-ops so the
// substrate can call through unconditionally.
type Injector struct {
	plan Plan

	mu       sync.Mutex
	attempts map[int]*attemptState
	injected map[Kind]int
	chaosN   uint64
}

// New builds an Injector for plan.
func New(plan Plan) *Injector {
	obs.Default.Help("fault_injected_total", "Faults injected by faultsim, by kind.")
	return &Injector{
		plan:     plan,
		attempts: make(map[int]*attemptState),
		injected: make(map[Kind]int),
	}
}

// Plan returns the injector's plan.
func (inj *Injector) Plan() Plan { return inj.plan }

// BeginAttempt arms the plan's fault kinds for one navigation attempt
// (1-based) of browser (by UID and profile name) against pageURL.
func (inj *Injector) BeginAttempt(uid int, browser, pageURL string, attempt int) {
	if inj == nil {
		return
	}
	host := HostOf(pageURL)
	st := &attemptState{browser: browser, host: host, attempt: attempt, armed: make(map[Kind]bool)}
	for _, k := range ArmedKinds {
		if inj.plan.decide(k, browser, host, attempt) {
			st.armed[k] = true
		}
	}
	if st.armed[CDPStall] {
		st.release = make(chan struct{})
	}
	inj.mu.Lock()
	inj.attempts[uid] = st
	inj.mu.Unlock()
}

// EndAttempt disarms the attempt and returns how many faults it consumed.
// Unconsumed armed kinds are discarded. A pending CDP stall is released so
// the blocked handler goroutine can exit.
func (inj *Injector) EndAttempt(uid int) int {
	if inj == nil {
		return 0
	}
	inj.mu.Lock()
	st := inj.attempts[uid]
	delete(inj.attempts, uid)
	inj.mu.Unlock()
	if st == nil {
		return 0
	}
	if st.release != nil {
		close(st.release)
	}
	return st.consumed
}

// consume pops kind from uid's armed set if the exchange host matches the
// attempt's page host (visit-level kinds pass host == the attempt host).
func (inj *Injector) consume(uid int, host string, kinds ...Kind) (Kind, bool) {
	if inj == nil {
		return "", false
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	st := inj.attempts[uid]
	if st == nil || (host != "" && host != st.host) {
		return "", false
	}
	for _, k := range kinds {
		if st.armed[k] {
			delete(st.armed, k)
			st.consumed++
			inj.injected[k]++
			obs.Default.Counter("fault_injected_total", "kind", string(k)).Inc()
			return k, true
		}
	}
	return "", false
}

// DialFault is consulted by device.DialContext before every app-layer dial.
// It returns a non-nil classified error when a DNS or connect fault is armed
// for uid's current attempt and host is the attempt's page host.
func (inj *Injector) DialFault(uid int, host, addr string) error {
	k, ok := inj.consume(uid, host, DNSNXDomain, ConnRefused, ConnTimeout)
	if !ok {
		return nil
	}
	switch k {
	case DNSNXDomain:
		return markInjected(k, &netsim.ErrNoSuchHost{Host: host})
	case ConnRefused:
		return markInjected(k, &netsim.ErrConnRefused{Addr: addr})
	default:
		return markInjected(k, &netsim.ErrTimeout{Op: "connect", Addr: addr})
	}
}

// TLSFault is consulted by the MITM proxy before serving a TLS handshake for
// host on a connection owned by uid. When it fires the proxy fails leaf
// minting, so the client sees a fatal handshake alert.
func (inj *Injector) TLSFault(uid int, host string) (Kind, bool) {
	return inj.consume(uid, host, TLSHandshake, PinReject)
}

// FlowFault is consulted by the MITM proxy per proxied exchange, after
// capture but before forwarding, so injected exchanges still yield flows.
func (inj *Injector) FlowFault(uid int, host string) (Kind, bool) {
	return inj.consume(uid, host, ReadTimeout, StreamReset, HTTP5xx, SlowResponse)
}

// CrashFault is consulted at Browser.Navigate entry; true means the app
// process dies now.
func (inj *Injector) CrashFault(uid int) bool {
	if inj == nil {
		return false
	}
	inj.mu.Lock()
	host := ""
	if st := inj.attempts[uid]; st != nil {
		host = st.host
	}
	inj.mu.Unlock()
	if host == "" {
		return false
	}
	_, ok := inj.consume(uid, host, BrowserCrash)
	return ok
}

// StallFault is consulted by the CDP Page.navigate handler; when armed it
// returns a channel that stays blocked until EndAttempt, simulating an
// unresponsive DevTools socket (the client's wall timeout fires first).
func (inj *Injector) StallFault(uid int) (<-chan struct{}, bool) {
	if inj == nil {
		return nil, false
	}
	inj.mu.Lock()
	st := inj.attempts[uid]
	var release chan struct{}
	armed := false
	if st != nil && st.armed[CDPStall] {
		delete(st.armed, CDPStall)
		st.consumed++
		inj.injected[CDPStall]++
		armed = true
		release = st.release
	}
	inj.mu.Unlock()
	if !armed {
		return nil, false
	}
	obs.Default.Counter("fault_injected_total", "kind", string(CDPStall)).Inc()
	return release, true
}

// chaosHit implements the occurrence-counter mode: the Nth consulted
// operation faults iff hash(seed, kind, host, N) < rate. Deterministic for a
// serial caller, interleaving-dependent under concurrency.
func (inj *Injector) chaosHit(kind Kind, host string) bool {
	rate := inj.plan.ChaosRates[kind]
	if rate <= 0 {
		return false
	}
	inj.mu.Lock()
	inj.chaosN++
	n := inj.chaosN
	inj.mu.Unlock()
	if hashFrac(inj.plan.Seed, "chaos", string(kind), host, fmt.Sprint(n)) >= rate {
		return false
	}
	inj.mu.Lock()
	inj.injected[kind]++
	inj.mu.Unlock()
	obs.Default.Counter("fault_injected_total", "kind", string(kind)).Inc()
	return true
}

// NetHook adapts the chaos mode to netsim.Internet.SetFaultHook. Literal-IP
// hosts are never faulted: the control plane (Appium, CDP, the proxy
// listener) dials by IP, while web and vendor traffic dials by name.
func (inj *Injector) NetHook() func(op, host string) error {
	if inj == nil {
		return nil
	}
	return func(op, host string) error {
		if net.ParseIP(host) != nil {
			return nil
		}
		switch op {
		case "lookup":
			if inj.chaosHit(DNSNXDomain, host) {
				return markInjected(DNSNXDomain, &netsim.ErrNoSuchHost{Host: host})
			}
		case "dial":
			if inj.chaosHit(ConnRefused, host) {
				return markInjected(ConnRefused, &netsim.ErrConnRefused{Addr: host})
			}
			if inj.chaosHit(ConnTimeout, host) {
				return markInjected(ConnTimeout, &netsim.ErrTimeout{Op: "connect", Addr: host})
			}
		}
		return nil
	}
}

// DNSServFail adapts the chaos mode to dnssim.Handler.SetServFailFunc.
func (inj *Injector) DNSServFail(name string) bool {
	if inj == nil {
		return false
	}
	return inj.chaosHit(DNSServFail, name)
}

// SinkFault is the export plane's injectable publish failure
// (sink.Exporter.SetFaultHook). It runs in chaos occurrence mode keyed
// by sink name — sink publishes happen on dispatcher goroutines after
// a visit commits, outside the per-attempt arming window, so the armed
// deterministic mode does not apply.
func (inj *Injector) SinkFault(sinkName string) error {
	if inj == nil {
		return nil
	}
	if !inj.chaosHit(SinkPublish, sinkName) {
		return nil
	}
	return markInjected(SinkPublish, fmt.Errorf("faultsim: injected publish failure for sink %s", sinkName))
}

// PoolFault is the upstream idle-pool poison (connpool.Pool.SetFaultHook):
// a hit drops every idle connection for the key, forcing a redial. It runs
// in chaos occurrence mode — a redial produces the same exchange bytes, so
// analyses are unaffected and per-attempt arming does not apply.
func (inj *Injector) PoolFault(key string) error {
	if inj == nil {
		return nil
	}
	if !inj.chaosHit(PoolPoison, key) {
		return nil
	}
	return markInjected(PoolPoison, fmt.Errorf("faultsim: injected pool poison for %s", key))
}

// UserChurnFault decides whether a simulated population user leaves
// for good at the given session boundary. Pure rate mode: the decision
// is a hash of (seed, browser, user, session) — independent of event
// interleaving, parallelism and resume, so churn never perturbs the
// population determinism keystones. The per-attempt arming ladder (and
// its MaxFaultAttempts bound) does not apply: sessions are not retried
// navigations.
func (inj *Injector) UserChurnFault(browser string, user, sess int) bool {
	if inj == nil {
		return false
	}
	rate := inj.plan.Rates[UserChurn]
	if rate <= 0 {
		return false
	}
	if hashFrac(inj.plan.Seed, "armed", string(UserChurn), browser,
		fmt.Sprint(user), fmt.Sprint(sess)) >= rate {
		return false
	}
	inj.mu.Lock()
	inj.injected[UserChurn]++
	inj.mu.Unlock()
	obs.Default.Counter("fault_injected_total", "kind", string(UserChurn)).Inc()
	return true
}

// Counts returns a copy of the injected-fault tally by kind.
func (inj *Injector) Counts() map[Kind]int {
	if inj == nil {
		return nil
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make(map[Kind]int, len(inj.injected))
	for k, v := range inj.injected {
		out[k] = v
	}
	return out
}

// Total returns the total number of injected faults.
func (inj *Injector) Total() int {
	if inj == nil {
		return 0
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	n := 0
	for _, v := range inj.injected {
		n += v
	}
	return n
}

// CountsString renders Counts as "kind=n kind=n" in kind order, for exit
// reports.
func (inj *Injector) CountsString() string {
	counts := inj.Counts()
	if len(counts) == 0 {
		return "none"
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s=%d", k, counts[Kind(k)]))
	}
	return strings.Join(parts, " ")
}

// injectedError marks an injected fault while preserving the wrapped typed
// error (errors.As and substring classification both keep working).
type injectedError struct {
	kind Kind
	err  error
}

func (e *injectedError) Error() string {
	return fmt.Sprintf("faultsim: injected %s: %v", e.kind, e.err)
}
func (e *injectedError) Unwrap() error { return e.err }

func markInjected(kind Kind, err error) error { return &injectedError{kind: kind, err: err} }

// InjectedKind reports whether err carries a faultsim marker and which kind.
func InjectedKind(err error) (Kind, bool) {
	for err != nil {
		if ie, ok := err.(*injectedError); ok {
			return ie.kind, true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return "", false
		}
		err = u.Unwrap()
	}
	return "", false
}

// HostOf extracts the bare host from a URL or host:port string.
func HostOf(rawURL string) string {
	s := rawURL
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	if i := strings.IndexAny(s, "/?#"); i >= 0 {
		s = s[:i]
	}
	if h, _, err := net.SplitHostPort(s); err == nil {
		return h
	}
	return s
}

// Classify maps an error to a stable visit error class for VisitRecord
// .ErrClass and degradation accounting. Returns "" for nil.
func Classify(err error) string {
	if err == nil {
		return ""
	}
	return ClassifyText(err.Error())
}

// ClassifyText is Classify over an already-stringified error (CDP transports
// flatten error types to text, so classification is substring-based).
func ClassifyText(s string) string {
	if s == "" {
		return ""
	}
	ls := strings.ToLower(s)
	has := func(subs ...string) bool {
		for _, sub := range subs {
			if strings.Contains(ls, sub) {
				return true
			}
		}
		return false
	}
	switch {
	case has("crashed", "not running", "ws: connection closed", "process not found"):
		return "crash"
	case strings.Contains(ls, "cdp:") && has("timed out", "stalled"):
		return "cdp"
	case has("breaker open", "circuit breaker"):
		return "breaker_open"
	case has("no such host", "nxdomain", "servfail", "rcode", "doh status"):
		return "dns"
	case has("connection refused"):
		return "connect_refused"
	case has("tls", "handshake", "certificate", "x509", "remote error"):
		return "tls"
	case has("dropped by firewall"):
		return "firewall"
	case has("timed out", "timeout", "deadline exceeded"):
		return "timeout"
	case has("returned status", "bad gateway", "status 5"):
		return "http_error"
	case has("reset", "unexpected eof", "eof", "broken pipe", "closed"):
		return "reset"
	default:
		return "unknown"
	}
}
