package leak

import (
	"slices"
	"sync"

	"panoptes/internal/capture"
	"panoptes/internal/pipeline"
)

// scanEntry is one flow's scan result in arrival order. Retraction
// marks it dead instead of splicing, so undo closures stay O(1).
type scanEntry struct {
	finding Finding
	live    bool
}

// StreamScanner is the incremental form of the history-leak scan: each
// committed flow is searched as it arrives and the finding (at most
// one per flow) folded into the running set. The search itself is a
// single pass over the flow haystack of the Aho-Corasick automaton the
// detector compiled for the flow's own visit, so per-flow cost does not
// grow with the number of concurrent visits. Implements
// pipeline.Analyzer (plus Seal and Reset).
type StreamScanner struct {
	det    *Detector
	origin capture.Origin // filter for tap-driven use; "" scans every flow

	mu      sync.Mutex
	j       pipeline.Journal
	entries []*scanEntry
}

// NewStreamScanner builds a scanner over d's encoding set. A non-empty
// origin restricts tap-driven Observe calls to flows of that origin
// (batch replay via Detector.Scan always scans every flow).
func NewStreamScanner(d *Detector, origin capture.Origin) *StreamScanner {
	return &StreamScanner{det: d, origin: origin}
}

// Observe scans one committed flow from the tap stream.
func (s *StreamScanner) Observe(f *capture.Flow) {
	if s.origin != "" && f.Origin != s.origin {
		return
	}
	s.observe(f)
}

// observe is the origin-agnostic per-flow step shared with batch replay.
func (s *StreamScanner) observe(f *capture.Flow) {
	fnd, ok := s.scanOne(f)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := &scanEntry{finding: fnd, live: true}
	s.entries = append(s.entries, e)
	s.j.Note(f.Attempt, func() { e.live = false })
}

// scanOne runs the per-flow leak search outside the state lock. The
// haystack is built in a pooled buffer and searched in one pass of the
// visit's own automaton; the lowest matched pattern ID names the
// finding, reproducing the original search exactly: full URL before
// domain-only, cheapest encoding first.
func (s *StreamScanner) scanOne(f *capture.Flow) (Finding, bool) {
	if f.VisitURL == "" {
		return Finding{}, false
	}
	v := s.det.visitFor(f.VisitURL)
	if !v.ok {
		return Finding{}, false
	}
	if f.Host == v.host {
		return Finding{}, false // talking to the visited site is not exfiltration
	}
	// A DoH query to a public resolver necessarily carries the visited
	// hostname — that is name resolution doing its job, reported by the
	// DNS-usage analysis (the paper's 8/7 DoH split), not a history leak.
	// DoH bodies sent anywhere else still count.
	if IsDoHFlow(f) && dohResolvers[f.Host] {
		return Finding{}, false
	}

	// DoH flows get the decoded qnames appended, bounded by the body size.
	buf := haystackPool.Get(len(f.Path) + 2*len(f.RawQuery) + 2*len(f.Body) + 5)
	defer haystackPool.Put(buf)
	writeHaystack(buf, f)
	ms := v.ac.Scan(buf.Bytes())
	defer ms.Release()
	if len(ms.IDs()) == 0 {
		return Finding{}, false
	}
	id := slices.Min(ms.IDs())
	kind := KindFullURL
	if id >= v.nFull {
		kind = KindDomainOnly
	}
	return Finding{
		Browser: f.Browser, Host: f.Host, Kind: kind,
		Encoding: v.encs[id], VisitURL: f.VisitURL, Incognito: f.Incognito, FlowID: f.ID,
	}, true
}

// Retract undoes the attempt's findings.
func (s *StreamScanner) Retract(attempt int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.j.Retract(attempt)
}

// Seal discards the attempt's undo log.
func (s *StreamScanner) Seal(attempt int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.j.Seal(attempt)
}

// Reset drops all findings and undo state. The detector's per-visit
// automata survive: each is a pure function of its visit URL and stays
// valid across campaigns.
func (s *StreamScanner) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = nil
	s.j.Reset()
}

// Findings returns the live findings in canonical sort order.
func (s *StreamScanner) Findings() []Finding {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Finding
	for _, e := range s.entries {
		if e.live {
			out = append(out, e.finding)
		}
	}
	sortFindings(out)
	return out
}

// Finalize implements pipeline.Analyzer.
func (s *StreamScanner) Finalize() any { return s.Findings() }
