package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// PerLayer lists the metrics of a traced run with their units. Every
// traced run reports every one; a layer a workload does not run reads
// 0, and a percentile with fewer samples than MinSamples reads 0 beside
// its sample count.
var PerLayer = []struct{ Name, Unit string }{
	{"core.crawl_s", "s"},
	{"core.idle_s", "s"},
	{"core.visit_ms.p50", "ms"},
	{"core.visit_ms.p90", "ms"},
	{"core.visit_ms.n", "count"},
	{"core.retries", "count"},
	{"mitm.exchanges_per_visit", "count"},
	{"mitm.upstream_ms.p50", "ms"},
	{"mitm.upstream_ms.p99", "ms"},
	{"mitm.upstream_ms.n", "count"},
	{"mitm.rtt_waits_per_visit", "count"},
	{"mitm.rtt_wait_ms_per_visit", "ms"},
	{"mitm.handshake_resumed_pct", "%"},
	{"mitm.handshakes_full_per_visit", "count"},
	{"mitm.conn_reuse_pct", "%"},
	{"connpool.hit_pct", "%"},
	{"connpool.evicted", "count"},
	{"mitm.leaf_certs_minted", "count"},
	{"mitm.pinning_failures", "count"},
	{"taint.mismatched", "count"},
	{"capture.flows_per_visit", "count"},
	{"capture.engine_flows", "count"},
	{"capture.native_flows", "count"},
	{"capture.retracts", "count"},
	{"capture.resident_flows", "count"},
	{"capture.bytes_retained", "B"},
	{"pipeline.observe_ns.p50", "ns"},
	{"pipeline.observe_ns.p99", "ns"},
	{"pipeline.observe_ns.n", "count"},
	{"pipeline.busy_pct", "%"},
	{"popsim.run_s", "s"},
	{"popsim.self_pct", "%"},
	{"popsim.slice_s.p50", "s"},
	{"popsim.slice_s.max", "s"},
	{"popsim.sessions", "count"},
	{"popsim.visits", "count"},
	{"popsim.sampled_visits", "count"},
	{"popsim.events_scheduled", "count"},
	{"popsim.throttled", "count"},
	{"popsim.peak_backlog", "count"},
	{"report.render_s", "s"},
	{"export.write_s", "s"},
	{"export.mb_written", "MB"},
	{"go.gc_cpu_pct", "%"},
	{"go.allocs_per_visit", "count"},
	{"go.alloc_mb_per_visit", "MB"},
	{"go.gc_cycles", "count"},
	{"cpu.browser", "ns"},
	{"cpu.origin", "ns"},
	{"cpu.netsim", "ns"},
	{"cpu.mitm", "ns"},
	{"cpu.taint", "ns"},
	{"cpu.capture", "ns"},
	{"cpu.pipeline", "ns"},
	{"cpu.popsim", "ns"},
	{"cpu.report", "ns"},
	{"cpu.core", "ns"},
	{"cpu.obs", "ns"},
	{"cpu.tls.proxy", "ns"},
	{"cpu.tls.client", "ns"},
	{"cpu.tls.origin", "ns"},
	{"cpu.gc", "ns"},
	{"cpu.runtime", "ns"},
	{"cpu.unattributed", "ns"},
	{"cpu.unattributed_pct", "%"},
	{"cpu.samples", "count"},
	{"span.crawl_self_pct", "%"},
	{"span.visit_self_pct", "%"},
	{"span.exchange_self_pct", "%"},
	{"trace.spans", "count"},
	{"trace.overhead_pct", "%"},
}

// layerMetrics assembles a traced run's per-layer metrics: scalar
// layer values are medians over traced iterations, timing
// distributions pool every traced sample, Go runtime counters come
// from the untraced iterations (tracing allocates), and the CPU fold
// covers every traced iteration's profile. The span JSONL, the raw
// profiles and the fold table are written to dir.
func layerMetrics(out map[string]Metric, traced, untraced []*iterResult, rec *Recorder, dir string) error {
	v := map[string]float64{}
	names := map[string]bool{}
	for _, r := range traced {
		for k := range r.layer {
			names[k] = true
		}
	}
	for k := range names {
		xs := make([]float64, len(traced))
		for i, r := range traced {
			xs[i] = r.layer[k]
		}
		v[k] = Median(xs)
	}

	var visitMS, upstream, observe, slices []float64
	visits := 0
	var stacks []Stack
	for _, r := range traced {
		for _, d := range r.visitMS {
			visitMS = append(visitMS, float64(d)/float64(time.Millisecond))
		}
		upstream = append(upstream, r.upstreamMS...)
		observe = append(observe, r.observeNS...)
		slices = append(slices, r.sliceS...)
		visits += r.visits
		if len(r.profile) > 0 {
			s, err := ParseProfile(bytes.NewReader(r.profile))
			if err != nil {
				return err
			}
			stacks = append(stacks, s...)
		}
	}
	dist := func(name string, xs []float64, qs ...float64) {
		for _, q := range qs {
			p, _ := Percentile(xs, q)
			v[fmt.Sprintf("%s.p%d", name, int(q*100))] = p
		}
		v[name+".n"] = float64(len(xs))
	}
	dist("core.visit_ms", visitMS, 0.5, 0.9)
	dist("mitm.upstream_ms", upstream, 0.5, 0.99)
	dist("pipeline.observe_ns", observe, 0.5, 0.99)
	if p, ok := Percentile(slices, 0.5); ok {
		v["popsim.slice_s.p50"] = p
	}
	v["popsim.slice_s.max"] = Max(slices)

	var g GoStats
	uvisits := 0
	for _, r := range untraced {
		g.GCCPU += r.gostats.GCCPU
		g.UsedCPU += r.gostats.UsedCPU
		g.Allocs += r.gostats.Allocs
		g.AllocBytes += r.gostats.AllocBytes
		g.GCCycles += r.gostats.GCCycles
		uvisits += r.visits
	}
	if g.UsedCPU > 0 {
		v["go.gc_cpu_pct"] = 100 * g.GCCPU / g.UsedCPU
	}
	if uvisits > 0 {
		v["go.allocs_per_visit"] = float64(g.Allocs) / float64(uvisits)
		v["go.alloc_mb_per_visit"] = float64(g.AllocBytes) / 1e6 / float64(uvisits)
		v["go.gc_cycles"] = float64(g.GCCycles) / float64(len(untraced))
	}

	fold := FoldStacks(stacks)
	if visits > 0 {
		for _, l := range FoldLayers {
			v["cpu."+l] = float64(fold.NS[l]) / float64(visits)
		}
	}
	v["cpu.unattributed_pct"] = fold.Share(LayerUnattributed)
	v["cpu.samples"] = float64(fold.Samples)

	spans := rec.Spans()
	self := SelfTimes(spans)
	total := map[string]time.Duration{}
	for _, s := range spans {
		total[s.Name] += s.Dur()
	}
	for _, n := range []string{"crawl", "visit", "exchange"} {
		if total[n] > 0 {
			v["span."+n+"_self_pct"] = 100 * float64(self[n]) / float64(total[n])
		}
	}
	v["trace.spans"] = float64(len(spans))
	wall := func(rs []*iterResult) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = r.wall.Seconds()
		}
		return Median(xs)
	}
	if u := wall(untraced); u > 0 {
		v["trace.overhead_pct"] = 100 * (wall(traced)/u - 1)
	}
	for _, m := range PerLayer {
		out[m.Name] = Metric{Value: v[m.Name], Unit: m.Unit}
	}

	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	if err := rec.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	for i, r := range traced {
		if len(r.profile) == 0 {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("cpu-traced%d.pprof", i+1)), r.profile, 0o644); err != nil {
			return err
		}
	}
	var tbl bytes.Buffer
	if err := fold.WriteTable(&tbl); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "cpu-fold.txt"), tbl.Bytes(), 0o644)
}
