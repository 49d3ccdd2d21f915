package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"panoptes/internal/analysis"
	"panoptes/internal/core"
	"panoptes/internal/websim"
)

// crawlInstance is paper-study or wan-crawl for one seed.
type crawlInstance struct {
	spec  crawlSpec
	order []int
}

// instrumented is a world's tap and probe in a traced iteration.
type instrumented struct {
	tap   *Tap
	probe *Probe
}

// instrument wraps the world's pipeline in a timing tap and appends a
// probe to its proxy. Call before any traffic flows.
func instrument(w *core.World, rec *Recorder) instrumented {
	tap := NewTap(w.Pipeline, rec, true)
	w.DB.SetTap(tap)
	probe := NewProbe(tap)
	w.Proxy.Use(probe)
	return instrumented{tap: tap, probe: probe}
}

func (c *crawlInstance) iterate(it *iterCtx) (*iterResult, error) {
	r := newIterResult()
	setup := it.begin("setup")
	t0 := time.Now()
	w, err := core.NewWorld(core.WorldConfig{Sites: c.spec.sites, UpstreamRTT: c.spec.rtt})
	if err != nil {
		return nil, fmt.Errorf("world: %w", err)
	}
	defer w.Close()
	var iw *core.World
	if c.spec.idle > 0 {
		if iw, err = core.NewWorld(core.WorldConfig{Sites: c.spec.sites}); err != nil {
			return nil, fmt.Errorf("idle world: %w", err)
		}
		defer iw.Close()
	}
	r.setup = time.Since(t0)
	setup.End()

	var ins, iins instrumented
	if it.traced() {
		ins = instrument(w, it.rec)
		if iw != nil {
			iins = instrument(iw, it.rec)
		}
	}
	sites := make([]*websim.Site, len(c.order))
	for i, idx := range c.order {
		sites[i] = w.Sites[idx]
	}

	var (
		res       *core.CampaignResult
		idle      map[string]*core.IdleResult
		rendered  bytes.Buffer
		crawlDur  time.Duration
		idleDur   time.Duration
		renderDur time.Duration
		exportDur time.Duration
		written   int64
		resultDir = filepath.Join(it.outDir, fmt.Sprintf("results-iter%d", it.iter))
	)
	defer os.RemoveAll(resultDir)
	m, err := it.measure(func() error {
		crawl := it.begin("crawl")
		ins.setPhase(crawl, it.iter)
		t := time.Now()
		it.phase("crawl", func() {
			res, err = w.RunCampaign(core.CampaignConfig{Sites: sites, Parallelism: runtime.NumCPU()})
		})
		crawlDur = time.Since(t)
		crawl.End()
		if err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
		r.visitMS = it.rec.GroupVisits(crawl)
		if iw == nil {
			return nil
		}
		sp := it.begin("idle")
		iins.setPhase(sp, it.iter)
		t = time.Now()
		it.phase("idle", func() { idle, err = iw.RunIdleAll(c.spec.idle) })
		idleDur = time.Since(t)
		sp.End()
		if err != nil {
			return fmt.Errorf("idle: %w", err)
		}
		if !c.spec.export {
			return nil
		}
		series := idleSeries(w.Suite.Names(), idle, c.spec.idle)
		sp = it.begin("render")
		t = time.Now()
		it.phase("render", func() { err = renderAll(&rendered, w, series) })
		renderDur = time.Since(t)
		sp.End()
		if err != nil {
			return fmt.Errorf("render: %w", err)
		}
		sp = it.begin("export")
		t = time.Now()
		it.phase("export", func() { written, err = writeResults(resultDir, w, rendered.Bytes(), series) })
		exportDur = time.Since(t)
		sp.End()
		if err != nil {
			return fmt.Errorf("export: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.take(m)

	r.visits = len(res.Visits)
	for _, v := range res.Visits {
		if v.Err != "" {
			r.failed++
		}
	}
	r.flows = w.DB.Engine.Seen() + w.DB.Native.Seen()
	if iw != nil {
		r.flows += iw.DB.Engine.Seen() + iw.DB.Native.Seen()
	}

	// Output checks, outside the measured window.
	r.problems = append(r.problems, CheckStreamVsBatch(w)...)
	if iw != nil {
		r.problems = append(r.problems, checkIdle(iw, idle, c.spec.idle)...)
	}
	if r.digest, err = CrawlDigest(w, res); err != nil {
		return nil, err
	}
	if iw != nil {
		if err := r.digest.Add("fig5", idleSeries(w.Suite.Names(), idle, c.spec.idle)); err != nil {
			return nil, err
		}
	}
	if !it.traced() {
		return r, nil
	}

	visits := float64(r.visits)
	pc := SnapshotProxy(w.Proxy)
	L := r.layer
	L["core.crawl_s"] = crawlDur.Seconds()
	L["core.idle_s"] = idleDur.Seconds()
	L["core.retries"] = float64(res.Retries)
	L["mitm.exchanges_per_visit"] = float64(ins.probe.Exchanges()) / visits
	waits := float64(RTTWaits(pc, ins.tap.wsUpgrades.Load())) / visits
	L["mitm.rtt_waits_per_visit"] = waits
	L["mitm.rtt_wait_ms_per_visit"] = waits * float64(c.spec.rtt) / 1e6
	L["mitm.handshake_resumed_pct"] = pct(pc.ClientResumed+pc.UpResumed, pc.Handshakes())
	L["mitm.handshakes_full_per_visit"] = float64(pc.ClientFull+pc.UpFull) / visits
	L["mitm.conn_reuse_pct"] = pct(pc.Reused, pc.Exchanges())
	L["connpool.hit_pct"] = pct(pc.PoolHits, pc.PoolHits+pc.PoolMisses)
	L["connpool.evicted"] = float64(pc.PoolEvicted)
	L["mitm.leaf_certs_minted"] = float64(pc.CertMints)
	L["mitm.pinning_failures"] = float64(pc.HandshakeFailures)
	L["taint.mismatched"] = float64(w.Splitter.Mismatched())
	L["capture.flows_per_visit"] = float64(ins.tap.Flows()) / visits
	L["report.render_s"] = renderDur.Seconds()
	L["export.write_s"] = exportDur.Seconds()
	L["export.mb_written"] = float64(written) / 1e6

	taps := []*Tap{ins.tap}
	worlds := []*core.World{w}
	if iw != nil {
		taps = append(taps, iins.tap)
		worlds = append(worlds, iw)
	}
	var resident, retained int64
	for _, x := range worlds {
		resident += int64(x.DB.Engine.Len() + x.DB.Native.Len() + x.DB.Engine.Pending() + x.DB.Native.Pending())
		retained += x.DB.Engine.TotalBytes(true) + x.DB.Native.TotalBytes(true)
	}
	L["capture.resident_flows"] = float64(resident)
	L["capture.bytes_retained"] = float64(retained)
	var observeNS []float64
	for _, t := range taps {
		L["capture.engine_flows"] += float64(t.engine.Load())
		L["capture.native_flows"] += float64(t.native.Load())
		L["capture.retracts"] += float64(t.retracts.Load())
		observeNS = append(observeNS, t.ObserveNS()...)
	}
	r.observeNS = observeNS
	L["pipeline.busy_pct"] = 100 * Sum(observeNS) / float64(crawlDur+idleDur)
	r.upstreamMS = ins.probe.UpstreamMS()
	if iw != nil {
		r.upstreamMS = append(r.upstreamMS, iins.probe.UpstreamMS()...)
	}
	return r, nil
}

func (ins instrumented) setPhase(phase *Open, iter int) {
	if ins.tap != nil {
		ins.tap.SetPhase(phase, iter)
	}
}

// idleSeries bins each browser's idle flows into Figure 5, in fleet
// order.
func idleSeries(names []string, idle map[string]*core.IdleResult, d time.Duration) []analysis.Fig5Series {
	out := make([]analysis.Fig5Series, 0, len(names))
	for _, n := range names {
		if r := idle[n]; r != nil {
			out = append(out, analysis.Fig5(n, r.Flows, r.Start, d, 10))
		}
	}
	return out
}

// checkIdle recomputes each browser's idle record from the idle world's
// retained native store and compares it with what RunIdle collected
// off the commit tap.
func checkIdle(iw *core.World, idle map[string]*core.IdleResult, d time.Duration) []string {
	var bad []string
	for name, r := range idle {
		var fromStore int
		for _, f := range iw.DB.Native.ByBrowser(name) {
			if !f.Time.Before(r.Start) && !f.Time.After(r.End) {
				fromStore++
			}
		}
		if fromStore != len(r.Flows) {
			bad = append(bad, fmt.Sprintf("idle %s: collector holds %d flows, native store %d", name, len(r.Flows), fromStore))
		}
	}
	if len(idle) != len(iw.Browsers) {
		bad = append(bad, fmt.Sprintf("idle: %d of %d browsers reported", len(idle), len(iw.Browsers)))
	}
	return bad
}

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
