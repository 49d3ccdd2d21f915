package bench

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"panoptes/internal/analysis"
	"panoptes/internal/core"
	"panoptes/internal/leak"
	"panoptes/internal/obs"
	"panoptes/internal/profiles"
	"panoptes/internal/report"
)

// renderAll prints every table and figure `panoptes -all` prints, from
// the crawl world's streaming suite and the idle series.
func renderAll(out io.Writer, w *core.World, fig5 []analysis.Fig5Series) error {
	names := w.Suite.Names()
	fmt.Fprintln(out, "Table 1 — mobile browser dataset")
	for _, n := range names {
		if p := profiles.ByName(n); p != nil {
			fmt.Fprintf(out, "%-18s %-18s %-14s %s\n", p.Name, p.Version, p.DNS, p.Package)
		}
	}
	report.Fig2(out, w.Suite.Fig2.Rows())
	report.Fig3(out, w.Suite.Fig3.Rows())
	report.Fig4(out, w.Suite.Fig4.Rows())
	report.Table2(out, w.Suite.PII.Matrix(), names)
	report.Transports(out, w.Suite.Transport.Rows())

	findings := StreamLeaks(w)
	report.Leaks(out, leak.Summarise(findings))
	report.TrackableIDs(out, w.Suite.Trackable.IDs())
	cats := map[string]string{}
	var sensitive []string
	for _, s := range w.Sites {
		if s.Category.Sensitive() {
			cats[s.URL()] = string(s.Category)
			sensitive = append(sensitive, s.URL())
		}
	}
	browserSet := map[string]bool{}
	for _, n := range names {
		browserSet[n] = true
	}
	report.Sensitive(out, analysis.SensitiveBreakdown(findings, sensitive, browserSet,
		func(u string) string { return cats[u] }))

	geo, err := w.GeoDB()
	if err != nil {
		return fmt.Errorf("geoip: %w", err)
	}
	rows, err := analysis.GeoTransfers(findings, w.Inet, geo)
	if err != nil {
		return fmt.Errorf("geo transfers: %w", err)
	}
	report.Geo(out, rows)
	report.DNS(out, w.Suite.DNS.Usage(), names)
	uidOf := map[string]int{}
	for name, b := range w.Browsers {
		uidOf[name] = b.UID()
	}
	report.VolumeCrossCheck(out, analysis.CrossCheckFrom(w.Suite.Fig4.ReqBytesTotal, w.Device.Accounting, uidOf))
	body, _ := w.Suite.Listing1.Result()
	report.Listing1(out, body)

	sorted := append([]analysis.Fig5Series(nil), fig5...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Total > sorted[j].Total })
	report.Fig5(out, sorted)

	report.CampaignObsSummary(out, obs.Default)
	report.PipelineObsSummary(out, obs.Default)
	report.MetricsSummary(out, obs.Default)
	return nil
}

// writeResults writes the results directory `panoptes -all -out`
// writes (CSVs, JSONL flow databases, trace) plus the rendered report,
// and returns the bytes written.
func writeResults(dir string, w *core.World, rendered []byte, fig5 []analysis.Fig5Series) (int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	var total int64
	write := func(name string, fill func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(f)
		cw := &countingWriter{w: bw}
		err = fill(cw)
		if ferr := bw.Flush(); err == nil {
			err = ferr
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		total += cw.n
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	files := []struct {
		name string
		fill func(io.Writer) error
	}{
		{"report.txt", func(o io.Writer) error { _, err := o.Write(rendered); return err }},
		{"fig2.csv", func(o io.Writer) error { report.CSVFig2(o, w.Suite.Fig2.Rows()); return nil }},
		{"fig4.csv", func(o io.Writer) error { report.CSVFig4(o, w.Suite.Fig4.Rows()); return nil }},
		{"engine.jsonl", w.DB.Engine.WriteJSONL},
		{"native.jsonl", w.DB.Native.WriteJSONL},
		{"trace.jsonl", w.Trace.WriteJSONL},
	}
	for _, s := range fig5 {
		s := s
		name := fmt.Sprintf("fig5_%s.csv", strings.ReplaceAll(strings.ToLower(s.Browser), " ", "_"))
		files = append(files, struct {
			name string
			fill func(io.Writer) error
		}{name, func(o io.Writer) error { report.CSVFig5(o, s); return nil }})
	}
	for _, f := range files {
		if err := write(f.name, f.fill); err != nil {
			return total, err
		}
	}
	return total, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
