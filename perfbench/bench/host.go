package bench

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Host is the provenance every run records.
type Host struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
}

// ReadHost describes the machine and build the run executes on.
func ReadHost(revision string) Host {
	return Host{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   revision,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// CPUTime is the process's user plus system time.
func CPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMB reads the process's current resident set size.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(string(f[1]), 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// RSSSampler polls the resident set size until stopped and keeps its
// peak, so each iteration reports its own peak rather than the
// process's high-water mark across iterations.
type RSSSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
	peak float64
}

// StartRSSSampler polls every interval until Stop.
func StartRSSSampler(interval time.Duration) *RSSSampler {
	s := &RSSSampler{stop: make(chan struct{}), peak: rssMB()}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if mb := rssMB(); mb > s.peak {
					s.peak = mb
				}
			}
		}
	}()
	return s
}

// Stop ends polling and returns the peak in MB. It is safe to call
// more than once.
func (s *RSSSampler) Stop() float64 {
	s.once.Do(func() {
		close(s.stop)
		s.wg.Wait()
		if mb := rssMB(); mb > s.peak {
			s.peak = mb
		}
	})
	return s.peak
}

// GoStats is a runtime/metrics snapshot.
type GoStats struct {
	GCCPU, UsedCPU float64 // seconds, runtime/metrics CPU classes
	Allocs         uint64
	AllocBytes     uint64
	GCCycles       uint64
}

var goStatNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

// ReadGoStats samples the runtime's GC and allocation counters.
func ReadGoStats() GoStats {
	s := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		s[i].Name = n
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	return GoStats{
		GCCPU:      f(0),
		UsedCPU:    f(1) - f(2),
		Allocs:     u(3),
		AllocBytes: u(4),
		GCCycles:   u(5),
	}
}

// Sub is the change from an earlier snapshot.
func (g GoStats) Sub(o GoStats) GoStats {
	return GoStats{
		GCCPU:      g.GCCPU - o.GCCPU,
		UsedCPU:    g.UsedCPU - o.UsedCPU,
		Allocs:     g.Allocs - o.Allocs,
		AllocBytes: g.AllocBytes - o.AllocBytes,
		GCCycles:   g.GCCycles - o.GCCycles,
	}
}
