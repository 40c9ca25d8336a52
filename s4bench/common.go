package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// tally counts attempted and failed operations. Every check the benchmark
// makes is one attempted operation; a failed check is a failed one.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
}

// ok records one operation that passed its checks.
func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

// fail records one failed operation and its reason.
func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.failed++
	if len(t.errs) < 20 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// span is one timed interval the benchmark recorded around a call into a
// layer. Spans of one job share the job's span as parent.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory until the run ends. A nil
// tracer records nothing, which is how untraced phases run.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span identifier, so children can name a parent that has
// not ended yet.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records one span.
func (t *tracer) add(id, parent int64, name, attr string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{id, parent, name, attr, start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// byAttr groups the durations (ms) of the spans called name by attribute.
func (t *tracer) byAttr(name string) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range t.snapshot() {
		if s.Name == name {
			out[s.Attr] = append(out[s.Attr], float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// medianSum is the sum over groups of each group's median: how a per-layer
// cost summed over a roster is reported.
func medianSum(groups map[string][]float64) float64 {
	if len(groups) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, xs := range groups {
		sum += median(xs)
	}
	return sum
}

// median returns the median of xs, NaN when empty.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, NaN when xs is empty. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// validCI reports whether a speedup interval is well formed: a positive,
// finite point and ordered, positive bounds.
func validCI(point, lo, hi float64) bool {
	return point > 0 && !math.IsInf(point, 0) && lo > 0 && lo <= hi && !math.IsInf(hi, 0)
}

// mix derives a well-spread 64-bit value from a seed and a stream position
// (splitmix64), so every generated input is a function of --seed alone.
func mix(seed int64, i uint64) int64 {
	z := uint64(seed) + (i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1) // non-negative
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// spinPolicy names the lockfree kit's wait policy in effect, by the same
// rule the kit applies: with GOMAXPROCS <= 2 every spin step yields.
func spinPolicy() string {
	if runtime.GOMAXPROCS(0) <= 2 {
		return "yield-eager (GOMAXPROCS <= 2)"
	}
	return "spin-then-yield (GOMAXPROCS > 2)"
}

// provenance describes the host and settings a result was measured with,
// so results from different hosts or spin policies are never compared.
func provenance(journalDir string) map[string]any {
	return map[string]any{
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"goos":        runtime.GOOS,
		"goarch":      runtime.GOARCH,
		"cpu_model":   cpuModel(),
		"journal_dir": journalDir,
		"spin_policy": spinPolicy(),
		"threads":     threads,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo; "unknown" where
// the file is missing.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
