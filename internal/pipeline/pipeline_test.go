package pipeline

import (
	"sync"
	"testing"

	"panoptes/internal/capture"
	"panoptes/internal/obs"
)

// countAnalyzer counts flows per browser with full retract support —
// the smallest possible incremental analyzer.
type countAnalyzer struct {
	mu     sync.Mutex
	j      Journal
	counts map[string]int
}

func newCountAnalyzer() *countAnalyzer {
	return &countAnalyzer{counts: make(map[string]int)}
}

func (a *countAnalyzer) Observe(f *capture.Flow) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b := f.Browser
	a.counts[b]++
	a.j.Note(f.Attempt, func() { a.counts[b]-- })
}

func (a *countAnalyzer) Retract(attempt int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.j.Retract(attempt)
}

func (a *countAnalyzer) Seal(attempt int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.j.Seal(attempt)
}

func (a *countAnalyzer) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.counts = make(map[string]int)
	a.j.Reset()
}

func (a *countAnalyzer) Finalize() any {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]int, len(a.counts))
	for k, v := range a.counts {
		if v != 0 {
			out[k] = v
		}
	}
	return out
}

func flow(browser string, attempt int64) *capture.Flow {
	return &capture.Flow{Browser: browser, Attempt: attempt}
}

func TestRetractUndoesAttempt(t *testing.T) {
	p := New()
	a := newCountAnalyzer()
	p.Register("count", a)

	p.Observe(flow("Chrome", 0))
	p.Observe(flow("Chrome", 7))
	p.Observe(flow("Brave", 7))
	p.Observe(flow("Chrome", 8))

	p.Retract(7)
	p.Seal(8)

	got := a.Finalize().(map[string]int)
	if got["Chrome"] != 2 || got["Brave"] != 0 {
		t.Fatalf("after retract: %v, want Chrome=2 Brave=0", got)
	}
	if a.j.Open() != 0 {
		t.Fatalf("journal still holds %d open attempts", a.j.Open())
	}
}

func TestJournalReverseOrder(t *testing.T) {
	var j Journal
	var order []int
	j.Note(1, func() { order = append(order, 1) })
	j.Note(1, func() { order = append(order, 2) })
	j.Note(1, func() { order = append(order, 3) })
	if n := j.Retract(1); n != 3 {
		t.Fatalf("retracted %d undos, want 3", n)
	}
	if len(order) != 3 || order[0] != 3 || order[2] != 1 {
		t.Fatalf("undo order = %v, want reverse [3 2 1]", order)
	}
	// Attempt 0 is never journalled.
	j.Note(0, func() { t.Fatal("attempt 0 journalled") })
	if j.Open() != 0 {
		t.Fatalf("open = %d, want 0", j.Open())
	}
}

func TestRegisterUnregisterReset(t *testing.T) {
	p := New()
	a := newCountAnalyzer()
	p.Register("count", a)
	if names := p.Names(); len(names) != 1 || names[0] != "count" {
		t.Fatalf("names = %v", names)
	}
	p.Observe(flow("Chrome", 0))
	p.Reset()
	if got := a.Finalize().(map[string]int); len(got) != 0 {
		t.Fatalf("after reset: %v", got)
	}
	p.Unregister("count")
	p.Observe(flow("Chrome", 0))
	if got := a.Finalize().(map[string]int); len(got) != 0 {
		t.Fatalf("unregistered analyzer still observed: %v", got)
	}
	if res := p.Results(); len(res) != 0 {
		t.Fatalf("results after unregister: %v", res)
	}
}

// TestConcurrentObserveRetract exercises the tap under the same shape
// of concurrency the campaign produces: several browsers committing
// flows in parallel, some attempts retracted, some sealed.
func TestConcurrentObserveRetract(t *testing.T) {
	p := New()
	a := newCountAnalyzer()
	p.Register("count", a)

	const browsers = 8
	const perBrowser = 50
	var wg sync.WaitGroup
	for b := 0; b < browsers; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			name := string(rune('A' + b))
			// Attempts are process-unique, sequential per browser.
			for i := 0; i < perBrowser; i++ {
				att := int64(b*perBrowser + i + 1)
				p.Observe(&capture.Flow{Browser: name, Attempt: att})
				if i%2 == 0 {
					p.Retract(att)
					p.Observe(&capture.Flow{Browser: name, Attempt: 0})
				} else {
					p.Seal(att)
				}
			}
		}(b)
	}
	wg.Wait()

	got := a.Finalize().(map[string]int)
	for b := 0; b < browsers; b++ {
		name := string(rune('A' + b))
		if got[name] != perBrowser {
			t.Fatalf("browser %s count = %d, want %d", name, got[name], perBrowser)
		}
	}
	if a.j.Open() != 0 {
		t.Fatalf("journal leaked %d open attempts", a.j.Open())
	}
}

// TestObserveTimingSampled pins the sampled observe clock: every flow
// is counted for every analyzer, only one flow in timeEvery is timed
// (the first one included, so a short run still has latencies), and
// retract/seal/reset keep their meaning under concurrent commits.
func TestObserveTimingSampled(t *testing.T) {
	p := New()
	names := []string{"sampled-a", "sampled-b"}
	analyzers := []*countAnalyzer{newCountAnalyzer(), newCountAnalyzer()}
	for i, name := range names {
		p.Register(name, analyzers[i])
	}

	const goroutines = 8
	const perGoroutine = 125
	const n = goroutines * perGoroutine
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := string(rune('A' + g))
			for i := 0; i < perGoroutine; i++ {
				att := int64(g*perGoroutine + i + 1)
				p.Observe(&capture.Flow{Browser: name, Attempt: att})
				if i%5 == 0 {
					p.Retract(att)
				} else {
					p.Seal(att)
				}
			}
		}(g)
	}
	wg.Wait()

	const retracted = goroutines * perGoroutine / 5 // i%5 == 0 for 1 in 5
	const timed = (n + timeEvery - 1) / timeEvery
	for i, name := range names {
		if got := obs.Default.Counter("pipeline_observed_total", "analyzer", name).Value(); got != n {
			t.Errorf("%s observed = %d, want %d", name, got, n)
		}
		if got := obs.Default.Counter("pipeline_retractions_total", "analyzer", name).Value(); got != retracted {
			t.Errorf("%s retractions = %d, want %d", name, got, retracted)
		}
		h := obs.Default.Histogram("pipeline_observe_seconds", nil, "analyzer", name)
		if got := h.Count(); got != timed || got == 0 {
			t.Errorf("%s timed flows = %d, want %d", name, got, timed)
		}
		counts := analyzers[i].Finalize().(map[string]int)
		for g := 0; g < goroutines; g++ {
			if got := counts[string(rune('A'+g))]; got != perGoroutine-perGoroutine/5 {
				t.Errorf("%s browser %c count = %d, want %d", name, 'A'+g, got, perGoroutine-perGoroutine/5)
			}
		}
		if open := analyzers[i].j.Open(); open != 0 {
			t.Errorf("%s journal holds %d open attempts", name, open)
		}
	}
	p.Reset()
	for i, name := range names {
		if got := analyzers[i].Finalize().(map[string]int); len(got) != 0 {
			t.Errorf("%s after reset: %v", name, got)
		}
	}
}
