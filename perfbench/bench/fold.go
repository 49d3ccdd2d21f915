package bench

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Stack is one CPU-profile sample: its frames leaf first (inlined
// frames expanded), its pprof labels and the CPU time it stands for.
type Stack struct {
	Frames []string
	Labels map[string]string
	NS     int64
}

// ParseProfile decodes a runtime/pprof CPU profile (gzip-compressed
// profile.proto) with the standard library only, so the fold runs
// offline wherever the profile file is.
func ParseProfile(r io.Reader) ([]Stack, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // key, str string-table indices
	}
	var (
		samples   []sample
		strs      []string
		locLines  = map[uint64][]uint64{} // location -> function ids, leaf first
		funcNames = map[uint64]int64{}    // function -> name index
		nsIndex   = -1
		types     [][2]int64
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			types = append(types, t)
		case 2: // sample
			var s sample
			if err := eachField(b, func(n, w int, v uint64, bb []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, w, v, bb)
				case 2:
					var u []uint64
					if err := appendPacked(&u, w, v, bb); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var l [2]int64
					if err := eachField(bb, func(ln, _ int, lv uint64, _ []byte) error {
						if ln == 1 || ln == 2 {
							l[ln-1] = int64(lv)
						}
						return nil
					}); err != nil {
						return err
					}
					s.labels = append(s.labels, l)
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n, _ int, v uint64, bb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(bb, func(ln, _ int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	for i, t := range types {
		if str(t[1]) == "nanoseconds" {
			nsIndex = i
		}
	}
	if nsIndex < 0 {
		return nil, errors.New("profile: no nanoseconds sample type (not a CPU profile?)")
	}
	out := make([]Stack, 0, len(samples))
	for _, s := range samples {
		if nsIndex >= len(s.values) {
			continue
		}
		st := Stack{NS: s.values[nsIndex]}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				st.Frames = append(st.Frames, str(funcNames[fn]))
			}
		}
		if len(s.labels) > 0 {
			st.Labels = map[string]string{}
			for _, l := range s.labels {
				st.Labels[str(l[0])] = str(l[1])
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked
// (one varint) or packed (length-delimited run of varints).
func appendPacked(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}

// Layer rows of the CPU fold, in report order.
const (
	LayerBrowser      = "browser"
	LayerOrigin       = "origin"
	LayerNetsim       = "netsim"
	LayerMitm         = "mitm"
	LayerTaint        = "taint"
	LayerCapture      = "capture"
	LayerPipeline     = "pipeline"
	LayerPopsim       = "popsim"
	LayerReport       = "report"
	LayerCore         = "core"
	LayerObs          = "obs"
	LayerTLSProxy     = "tls.proxy"
	LayerTLSClient    = "tls.client"
	LayerTLSOrigin    = "tls.origin"
	LayerGC           = "gc"
	LayerRuntime      = "runtime"
	LayerUnattributed = "unattributed"
)

// FoldLayers lists every row Fold can produce.
var FoldLayers = []string{
	LayerBrowser, LayerOrigin, LayerNetsim, LayerMitm, LayerTaint, LayerCapture,
	LayerPipeline, LayerPopsim, LayerReport, LayerCore, LayerObs,
	LayerTLSProxy, LayerTLSClient, LayerTLSOrigin, LayerGC, LayerRuntime, LayerUnattributed,
}

// packageLayer maps the repository's packages onto benchmark layers.
// Shared helpers (utility) take the layer of the nearest owning frame
// further up the stack and fall back to the listed layer.
var packageLayer = map[string]string{
	"core": LayerCore, "vclock": LayerCore, "faultsim": LayerCore, "breaker": LayerCore, "fabric": LayerCore,
	"browser": LayerBrowser, "webengine": LayerBrowser, "cdp": LayerBrowser, "frida": LayerBrowser,
	"appium": LayerBrowser, "profiles": LayerBrowser,
	"websim": LayerOrigin, "vendorsim": LayerOrigin,
	"netsim": LayerNetsim, "device": LayerNetsim, "netfilter": LayerNetsim, "ebpfsim": LayerNetsim,
	"dnssim": LayerNetsim, "dnsmsg": LayerNetsim, "packet": LayerNetsim, "pcap": LayerNetsim,
	"mitm": LayerMitm, "connpool": LayerMitm, "h2": LayerMitm, "ws": LayerMitm, "pki": LayerMitm,
	"bytepool": LayerMitm, "blocker": LayerMitm,
	"taint":    LayerTaint,
	"capture":  LayerCapture,
	"pipeline": LayerPipeline, "analysis": LayerPipeline, "leak": LayerPipeline, "pii": LayerPipeline,
	"match": LayerPipeline, "hostlist": LayerPipeline,
	"popsim": LayerPopsim,
	"report": LayerReport, "sink": LayerReport, "geoip": LayerReport,
	"obs": LayerObs,
}

var utility = map[string]bool{
	"h2": true, "ws": true, "bytepool": true, "match": true, "dnsmsg": true, "hostlist": true, "packet": true,
}

// moduleFrame returns the repository package a frame belongs to, or "".
// The benchmark's own frames count as package "perfbench".
func moduleFrame(fn string) string {
	if strings.HasPrefix(fn, "panoptes/perfbench") || strings.HasPrefix(fn, "main.") {
		return "perfbench"
	}
	rest, ok := strings.CutPrefix(fn, "panoptes/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

func layerOf(pkg string) string {
	if pkg == "perfbench" {
		return LayerObs
	}
	if l, ok := packageLayer[pkg]; ok {
		return l
	}
	return LayerUnattributed
}

var gcFrames = []string{
	"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock", "runtime.greyobject",
	"runtime.wbBuf", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
	"runtime.(*sweepLocked)", "runtime.(*mheap).reclaim",
}

func isGC(fn string) bool {
	for _, p := range gcFrames {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// rootLayer attributes a stack with no repository frame by its
// goroutine's root function: net/http servers in this testbed are the
// origins (websim, vendorsim), net/http clients are the browsers'
// engines; scheduler and profiler roots belong to the runtime.
func rootLayer(root string) string {
	switch {
	case strings.HasPrefix(root, "net/http.(*conn)"), strings.HasPrefix(root, "net/http.(*connReader)"):
		return LayerOrigin
	case strings.HasPrefix(root, "net/http.(*persistConn)"), strings.HasPrefix(root, "net/http.(*Transport)"):
		return LayerBrowser
	case strings.HasPrefix(root, "runtime/pprof."):
		return LayerObs
	case strings.HasPrefix(root, "runtime."):
		return LayerRuntime
	}
	return LayerUnattributed
}

// Classify assigns one sample to a fold row. Rules, first match wins:
//  1. any garbage-collector frame: gc;
//  2. a sample labelled phase=render or phase=export: report;
//  3. any crypto/tls frame: TLS, on the side of the outermost
//     repository frame (mitm: proxy, browser: client, origin: origin),
//     else of the goroutine root;
//  4. the innermost repository frame's layer, skipping shared helpers
//     when an owning frame sits further out;
//  5. the goroutine root (rootLayer).
func Classify(s Stack) string {
	if len(s.Frames) == 0 {
		return LayerUnattributed
	}
	tls := false
	for _, f := range s.Frames {
		if isGC(f) {
			return LayerGC
		}
		if strings.HasPrefix(f, "crypto/tls.") {
			tls = true
		}
	}
	if ph := s.Labels["phase"]; ph == "render" || ph == "export" {
		return LayerReport
	}
	root := s.Frames[len(s.Frames)-1]
	if tls {
		side := ""
		for i := len(s.Frames) - 1; i >= 0 && side == ""; i-- {
			if pkg := moduleFrame(s.Frames[i]); pkg != "" && !utility[pkg] {
				side = layerOf(pkg)
			}
		}
		if side == "" {
			side = rootLayer(root)
		}
		switch side {
		case LayerMitm:
			return LayerTLSProxy
		case LayerBrowser:
			return LayerTLSClient
		case LayerOrigin:
			return LayerTLSOrigin
		}
		return LayerUnattributed
	}
	fallback := ""
	for _, f := range s.Frames {
		pkg := moduleFrame(f)
		if pkg == "" {
			continue
		}
		if !utility[pkg] {
			return layerOf(pkg)
		}
		if fallback == "" {
			fallback = layerOf(pkg)
		}
	}
	if fallback != "" {
		return fallback
	}
	return rootLayer(root)
}

// Fold is CPU time per layer.
type Fold struct {
	NS      map[string]int64
	TotalNS int64
	Samples int
}

// FoldStacks classifies every sample.
func FoldStacks(stacks []Stack) Fold {
	f := Fold{NS: map[string]int64{}}
	for _, s := range stacks {
		f.NS[Classify(s)] += s.NS
		f.TotalNS += s.NS
		f.Samples++
	}
	return f
}

// Share is a layer's fraction of the folded CPU time, in percent.
func (f Fold) Share(layer string) float64 {
	if f.TotalNS == 0 {
		return 0
	}
	return 100 * float64(f.NS[layer]) / float64(f.TotalNS)
}

// WriteTable prints the fold, largest row first.
func (f Fold) WriteTable(w io.Writer) error {
	rows := append([]string(nil), FoldLayers...)
	sort.SliceStable(rows, func(i, j int) bool { return f.NS[rows[i]] > f.NS[rows[j]] })
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%-14s %10s %7s\n", "layer", "cpu_ms", "share%")
	for _, l := range rows {
		fmt.Fprintf(&buf, "%-14s %10.1f %7.2f\n", l, float64(f.NS[l])/1e6, f.Share(l))
	}
	fmt.Fprintf(&buf, "%-14s %10.1f %7.2f  (%d samples)\n", "total", float64(f.TotalNS)/1e6, 100.0, f.Samples)
	_, err := w.Write(buf.Bytes())
	return err
}
