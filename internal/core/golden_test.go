package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"panoptes/internal/analysis"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_digest.txt from the current code")

// goldenIdle is the idle window of the golden run: long enough for every
// browser's burst and the first minutes of its linear rate.
const goldenIdle = 2 * time.Minute

// goldenDigest runs the calibrated fleet (all 15 browsers) over 4 hosted
// sites, then a short idle study, and renders what the paper's tables
// and figures are computed from, one JSON line per row. Values that
// differ between two runs of the same code are normalised away: flow IDs
// (process-global tickets) are zeroed, install UUIDs are replaced by a
// placeholder, and the eBPF kernel byte counts are left out.
func goldenDigest(t *testing.T) []byte {
	t.Helper()
	w := smallWorld(t, 4)
	res, err := w.RunCampaign(CampaignConfig{})
	if err != nil {
		t.Fatal(err)
	}
	names := w.Suite.Names()

	zeroIDs := func(name string) any {
		fs := w.Suite.LeakNative.Findings()
		if name == "engine" {
			fs = w.Suite.LeakEngine.Findings()
		}
		for i := range fs {
			fs[i].FlowID = 0
		}
		return fs
	}
	body, query := w.Suite.Listing1.Result()
	if op := w.Browsers["Opera"]; op != nil && op.UUID() != "" {
		body = strings.ReplaceAll(body, op.UUID(), "{UUID}")
	}
	sections := []goldenSection{
		{"browsers", names},
		{"visits", res.Visits},
		{"fig2", w.Suite.Fig2.Rows()},
		{"fig3", w.Suite.Fig3.Rows()},
		{"fig4", w.Suite.Fig4.Rows()},
		{"table2", w.Suite.PII.Matrix()},
		{"leaks_native", zeroIDs("native")},
		{"leaks_engine", zeroIDs("engine")},
		{"transport", w.Suite.Transport.Rows()},
		{"dns", w.Suite.DNS.Usage()},
		{"listing1", [2]string{body, query}},
	}

	idle, err := w.RunIdleAll(goldenIdle)
	if err != nil {
		t.Fatal(err)
	}
	idleNames := make([]string, 0, len(idle))
	for name := range idle {
		idleNames = append(idleNames, name)
	}
	sort.Strings(idleNames)
	type idleRow struct {
		Browser    string
		Flows      int
		Cumulative []int
	}
	var idleRows []idleRow
	for _, name := range idleNames {
		r := idle[name]
		s := analysis.Fig5(name, r.Flows, r.Start, goldenIdle, 10)
		idleRows = append(idleRows, idleRow{Browser: name, Flows: len(r.Flows), Cumulative: s.Cumulative})
	}
	sections = append(sections, goldenSection{"idle", idleRows})

	var buf bytes.Buffer
	for _, s := range sections {
		buf.WriteString("## " + s.name + "\n")
		rows := reflect.ValueOf(s.v)
		if rows.Kind() != reflect.Slice {
			rows = reflect.ValueOf([]any{s.v})
		}
		for i := 0; i < rows.Len(); i++ {
			line, err := json.Marshal(rows.Index(i).Interface())
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes()
}

// goldenSection is one named part of the digest; a slice renders one
// JSON line per element, anything else as a single line.
type goldenSection struct {
	name string
	v    any
}

// TestGoldenDigest is the output gate: the calibrated run's visit ledger,
// Figure 2/3/4 rows, Table 2 matrix, leak findings, transport rows, DNS
// split, Listing 1 and per-browser idle curves must match the committed
// digest byte for byte. A change that means to alter the paper's outputs
// regenerates the file and shows the diff in review:
//
//	go test ./internal/core -run TestGoldenDigest -update
func TestGoldenDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fleet crawl plus idle study")
	}
	got := goldenDigest(t)
	path := filepath.Join("testdata", "golden_digest.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("digest diverges from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("digest diverges from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
