package browser

import (
	"fmt"
	"net/http"
	"time"

	"panoptes/internal/cdp"
	"panoptes/internal/webengine"
)

// interceptTimeout bounds how long the engine waits for a CDP client to
// continue a paused request (wall-clock; the protocol runs in real time).
const interceptTimeout = 15 * time.Second

// Navigate loads a URL: the engine fetches the page and resources (each
// request passing the interception point), then the app's native
// services fire their per-visit traffic. It returns the engine's result,
// whose LoadTimeMs the orchestrator feeds to the virtual clock.
func (b *Browser) Navigate(url string) (*webengine.PageResult, error) {
	b.navEnter()
	defer b.navExit()
	b.mu.Lock()
	if !b.running {
		b.mu.Unlock()
		return nil, fmt.Errorf("browser: %s not running", b.Profile.Name)
	}
	if b.wizardStep < len(wizardSteps) {
		b.mu.Unlock()
		return nil, fmt.Errorf("browser: %s first-run wizard not completed", b.Profile.Name)
	}
	b.mu.Unlock()

	// Armed crash fault: the app process dies before touching the network,
	// leaving nothing to quarantine. The campaign runner relaunches and
	// restores the session.
	if b.faultsInj().CrashFault(b.Pkg.UID) {
		b.Stop()
		return nil, fmt.Errorf("browser: %s crashed (injected browser_crash)", b.Profile.Name)
	}

	b.mu.Lock()
	b.visitCount++
	incognito := b.incognito
	b.mu.Unlock()

	if incognito {
		// Fresh ephemeral session state per private navigation.
		b.engine.ResetSession()
	}

	res, err := b.engine.Navigate(url)
	if err != nil {
		return res, err
	}
	// A failing document status fails the visit: the page never rendered,
	// so treating it as success would count an error page's traffic as the
	// site's. (Injected http_5xx faults surface here.)
	if res.Status >= 400 {
		return res, fmt.Errorf("browser: document %s returned status %d", url, res.Status)
	}

	// Native per-visit traffic fires regardless of incognito mode — the
	// paper's central incognito finding (§3.2).
	b.sendBurst(b.planVisit(url))

	if b.cdpServer != nil {
		b.cdpServer.Emit(cdp.EventDOMContentFired, map[string]any{
			"timestamp": float64(b.clock.Now().UnixMilli()) / 1000.0,
		})
		b.cdpServer.Emit(cdp.EventLoadFired, map[string]any{
			"timestamp": float64(b.clock.Now().UnixMilli())/1000.0 + 0.05,
		})
	}
	return res, nil
}

// interceptEngineRequest is the engine's pre-flight hook: the CDP Fetch
// pause/continue exchange when a DevTools client enabled interception,
// then any Frida hook. Engine ad-blocking (CocCoc) also lives here.
func (b *Browser) interceptEngineRequest(req *http.Request) error {
	if b.Profile.EngineAdBlock && engineBlocklist.AdRelated(req.URL.Hostname()) {
		return fmt.Errorf("blocked by easylist: %s", req.URL.Hostname())
	}

	b.mu.Lock()
	fetchOn := b.fetchEnabled && b.cdpServer != nil && b.cdpServer.HasClient()
	hook := b.fridaHook
	b.mu.Unlock()

	if fetchOn {
		if err := b.pauseAndContinue(req); err != nil {
			return err
		}
	}
	if hook != nil {
		if err := hook(req); err != nil {
			return err
		}
	}
	return nil
}

// pauseAndContinue emits Fetch.requestPaused and blocks until the client
// continues the request, applying any header mutations.
func (b *Browser) pauseAndContinue(req *http.Request) error {
	b.pausedMu.Lock()
	b.pausedSeq++
	id := fmt.Sprintf("interception-job-%d.%d", b.Pkg.UID, b.pausedSeq)
	ch := make(chan []cdp.HeaderEntry, 1)
	b.paused[id] = ch
	b.pausedMu.Unlock()
	defer func() {
		b.pausedMu.Lock()
		delete(b.paused, id)
		b.pausedMu.Unlock()
	}()

	headers := make(map[string]string, len(req.Header))
	for k := range req.Header {
		headers[k] = req.Header.Get(k)
	}
	b.cdpServer.Emit(cdp.EventRequestPaused, cdp.RequestPausedParams{
		RequestID: id,
		Request: cdp.RequestPayload{
			URL: req.URL.String(), Method: req.Method, Headers: headers,
		},
	})

	select {
	case entries := <-ch:
		for _, e := range entries {
			req.Header.Set(e.Name, e.Value)
		}
		return nil
	case <-time.After(interceptTimeout):
		return fmt.Errorf("browser: Fetch interception timed out for %s", req.URL)
	}
}

// observeEngineRequest backs the Network domain's requestWillBeSent.
func (b *Browser) observeEngineRequest(u string) {
	b.mu.Lock()
	emit := b.netEnabled && b.cdpServer != nil
	b.mu.Unlock()
	if emit {
		b.cdpServer.Emit(cdp.EventRequestWillBeSent, cdp.RequestWillBeSentParams{
			RequestID: fmt.Sprintf("net-%d", b.clock.Now().UnixNano()),
			Request:   cdp.RequestPayload{URL: u, Method: http.MethodGet},
		})
	}
}
