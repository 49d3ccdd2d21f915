package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"panoptes/internal/analysis"
	"panoptes/internal/capture"
	"panoptes/internal/core"
	"panoptes/internal/leak"
	"panoptes/internal/pii"
	"panoptes/internal/profiles"
)

// Normalize renders a result in the form the determinism keystones
// compare: JSON, with process-global flow IDs zeroed (random install
// IDs and the taint token never reach the analyses' outputs).
func Normalize(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var tree any
	if err := json.Unmarshal(raw, &tree); err != nil {
		return nil, err
	}
	zeroFlowIDs(tree)
	return json.Marshal(tree)
}

func zeroFlowIDs(v any) {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			if k == "FlowID" {
				x[k] = 0
				continue
			}
			zeroFlowIDs(e)
		}
	case []any:
		for _, e := range x {
			zeroFlowIDs(e)
		}
	}
}

// injectedBrowsers lists the fleet's script-injecting browsers, whose
// engine-side leaks count as their own (analysis.CombineInjectedLeaks).
func injectedBrowsers(names []string) []string {
	var out []string
	for _, n := range names {
		if p := profiles.ByName(n); p != nil && p.InjectsScript {
			out = append(out, n)
		}
	}
	return out
}

// StreamLeaks is the §3.2 finding set as the CLI reports it, from the
// streaming suite.
func StreamLeaks(w *core.World) []leak.Finding {
	names := w.Suite.Names()
	return analysis.CombineInjectedLeaks(w.Suite.LeakNative.Findings(), w.Suite.LeakEngine.Findings(), injectedBrowsers(names))
}

// CheckStreamVsBatch compares every result the streaming suite
// produced during a retained crawl with the batch analysis replayed
// over the retained stores, and the per-browser counts with the
// benchmark's own recount of the stores. It returns one line per
// mismatch.
func CheckStreamVsBatch(w *core.World) []string {
	names := w.Suite.Names()
	batchMatrix, batchPII := analysis.Table2(w.DB.Native, names)
	sBody, sQuery := w.Suite.Listing1.Result()
	bBody, bQuery := analysis.Listing1(w.DB.Native)
	pairs := []struct {
		name          string
		stream, batch any
	}{
		{"fig2", w.Suite.Fig2.Rows(), analysis.Fig2(w.DB, names)},
		{"fig3", w.Suite.Fig3.Rows(), analysis.Fig3(w.DB.Native, w.Hostlist, names)},
		{"fig4", w.Suite.Fig4.Rows(), analysis.Fig4(w.DB, names)},
		{"table2", w.Suite.PII.Matrix(), batchMatrix},
		{"table2-findings", w.Suite.PII.Findings(), batchPII},
		{"leaks", StreamLeaks(w), analysis.HistoryLeaksWithInjected(w.DB, injectedBrowsers(names))},
		{"transport", w.Suite.Transport.Rows(), analysis.TransportCoverage(w.DB, names)},
		{"dns", w.Suite.DNS.Usage(), analysis.DNSUsage(w.DB.Native, names)},
		{"trackable", w.Suite.Trackable.IDs(), analysis.TrackableIdentifiers(w.DB.Native)},
		{"listing1", [2]string{sBody, sQuery}, [2]string{bBody, bQuery}},
	}
	var bad []string
	for _, p := range pairs {
		if msg := diff(p.name, p.stream, p.batch); msg != "" {
			bad = append(bad, "stream vs batch: "+msg)
		}
	}
	rc := recount(w.DB)
	for _, r := range w.Suite.Fig2.Rows() {
		c := rc[r.Browser]
		if r.Engine != c.engine || r.Native != c.native {
			bad = append(bad, fmt.Sprintf("fig2 %s: suite engine/native %d/%d, stores hold %d/%d", r.Browser, r.Engine, r.Native, c.engine, c.native))
		}
	}
	for _, r := range w.Suite.Fig4.Rows() {
		c := rc[r.Browser]
		if r.EngineBytes != c.engineBytes || r.NativeBytes != c.nativeBytes {
			bad = append(bad, fmt.Sprintf("fig4 %s: suite bytes %d/%d, stores hold %d/%d", r.Browser, r.EngineBytes, r.NativeBytes, c.engineBytes, c.nativeBytes))
		}
	}
	for _, r := range w.Suite.Transport.Rows() {
		c := rc[r.Browser]
		got := [4]int{r.H1, r.H2, r.WS, r.DoH}
		if got != c.transport {
			bad = append(bad, fmt.Sprintf("transport %s: suite %v, stores hold %v", r.Browser, got, c.transport))
		}
	}
	return bad
}

type storeCount struct {
	engine, native           int
	engineBytes, nativeBytes int64
	transport                [4]int // h1, h2, ws, doh
}

// recount tallies the retained stores directly, independent of the
// analysis package.
func recount(db *capture.DB) map[string]storeCount {
	out := map[string]storeCount{}
	tally := func(s *capture.Store, engine bool) {
		for _, f := range s.All() {
			c := out[f.Browser]
			if engine {
				c.engine++
				c.engineBytes += int64(f.ReqBytes)
			} else {
				c.native++
				c.nativeBytes += int64(f.ReqBytes)
			}
			switch f.Transport {
			case capture.TransportH2:
				c.transport[1]++
			case capture.TransportWS:
				c.transport[2]++
			case capture.TransportDoH:
				c.transport[3]++
			default:
				c.transport[0]++
			}
			out[f.Browser] = c
		}
	}
	tally(db.Engine, true)
	tally(db.Native, false)
	return out
}

func diff(name string, got, want any) string {
	g, err := json.Marshal(got)
	if err != nil {
		return fmt.Sprintf("%s: %v", name, err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		return fmt.Sprintf("%s: %v", name, err)
	}
	if bytes.Equal(g, w) {
		return ""
	}
	return fmt.Sprintf("%s differs:\n  got  %s\n  want %s", name, clip(g), clip(w))
}

func clip(b []byte) string {
	if len(b) > 400 {
		return string(b[:400]) + "..."
	}
	return string(b)
}

// Digest is the normalised form of one iteration's outputs; iterations
// of one seed must produce identical digests.
type Digest map[string][]byte

// Add normalises v under name.
func (d Digest) Add(name string, v any) error {
	b, err := Normalize(v)
	if err != nil {
		return fmt.Errorf("normalise %s: %w", name, err)
	}
	d[name] = b
	return nil
}

// Compare lists the entries where d differs from ref.
func (d Digest) Compare(ref Digest) []string {
	var bad []string
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !bytes.Equal(d[k], ref[k]) {
			bad = append(bad, fmt.Sprintf("%s differs from the seed's reference:\n  got  %s\n  want %s", k, clip(d[k]), clip(ref[k])))
		}
	}
	return bad
}

// CrawlDigest normalises what a crawl reports: every figure and table
// the suite computes, and the visit ledger without its wall-clock
// dependent fields.
func CrawlDigest(w *core.World, res *core.CampaignResult) (Digest, error) {
	d := Digest{}
	type visit struct{ Browser, URL, ErrClass string }
	visits := make([]visit, len(res.Visits))
	for i, v := range res.Visits {
		visits[i] = visit{v.Browser, v.URL, v.ErrClass}
	}
	for _, e := range []struct {
		name string
		v    any
	}{
		{"visits", visits},
		{"fig2", w.Suite.Fig2.Rows()},
		{"fig3", w.Suite.Fig3.Rows()},
		{"fig4", w.Suite.Fig4.Rows()},
		{"table2", w.Suite.PII.Matrix()},
		{"leaks", StreamLeaks(w)},
		{"transport", w.Suite.Transport.Rows()},
		{"dns", w.Suite.DNS.Usage()},
	} {
		if err := d.Add(e.name, e.v); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// MatrixOr merges b into a: Table 2 cells are "leaked at least once",
// so the matrix of a flow stream is the union over its chunks.
func MatrixOr(a, b pii.Matrix) pii.Matrix {
	if a == nil {
		a = pii.Matrix{}
	}
	for browser, row := range b {
		if a[browser] == nil {
			a[browser] = map[pii.Attribute]bool{}
		}
		for attr, v := range row {
			a[browser][attr] = a[browser][attr] || v
		}
	}
	return a
}
