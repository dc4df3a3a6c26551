package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between order statistics; xs is sorted in place. It
// returns 0 for an empty sample.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// nsToUS converts a slice of nanosecond durations to microseconds.
func nsToUS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// phase is one measured stretch of closed-loop ops.
type phase struct {
	ops, failed int64
	err         error // first failure
	elapsed     time.Duration
	// latNS has one latency per call (a call may complete several ops).
	latNS   []int64
	answers []answer
}

func (p *phase) throughput() float64 { return float64(p.ops) / p.elapsed.Seconds() }

// sample records one call that started at t0, ended at now and
// completed ops ops.
func (p *phase) sample(t0, now time.Time, ops int) {
	p.ops += int64(ops)
	p.latNS = append(p.latNS, now.Sub(t0).Nanoseconds())
}

// merge folds one caller's log into the phase.
func (p *phase) merge(o *phase) {
	p.ops += o.ops
	p.failed += o.failed
	if p.err == nil {
		p.err = o.err
	}
	p.latNS = append(p.latNS, o.latNS...)
	p.answers = append(p.answers, o.answers...)
}

// procSnap is the process-wide resource counters the per-layer "proc"
// metrics are deltas of: CPU time from getrusage and the allocator's
// cumulative counters.
type procSnap struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
}

func takeProcSnap() procSnap {
	var ru syscall.Rusage
	var cpu time.Duration
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{cpu: cpu, mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC}
}

// procMetrics fills the proc.* per-layer metrics from the counter deltas
// between two snapshots taken around ops operations.
func procMetrics(m map[string]float64, before, after procSnap, ops int) {
	n := float64(ops)
	m["proc.cpu_us_per_op"] = ratio(float64(after.cpu-before.cpu)/1e3, n)
	m["proc.allocs_per_op"] = ratio(float64(after.mallocs-before.mallocs), n)
	m["proc.alloc_bytes_per_op"] = ratio(float64(after.bytes-before.bytes), n)
	m["proc.gc_per_kop"] = ratio(1000*float64(after.gcs-before.gcs), n)
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// span is one timed call the benchmark made into a layer. Spans of one
// op share Op; Parent indexes the enclosing span within the same
// recorder (-1 for an op's root span). Times are nanoseconds since the
// tracer's origin.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer hands out per-goroutine span recorders and merges them when the
// run ends. Spans are kept in memory until then.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	recs   []*recorder
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// recorder collects the spans of one goroutine; it is not safe for
// concurrent use. A nil *recorder records nothing, which is how the
// untraced runs call the same code.
type recorder struct {
	t     *tracer
	base  int // ID offset, so IDs are unique across recorders
	spans []span
}

// recorder returns a fresh recorder with room for capacity spans.
func (t *tracer) recorder(capacity int) *recorder {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &recorder{t: t, base: len(t.recs) << 40, spans: make([]span, 0, capacity)}
	t.recs = append(t.recs, r)
	return r
}

// begin opens a span and returns its handle (-1 on a nil recorder).
func (r *recorder) begin(name string, op int64, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{
		Name: name, Op: op, ID: r.base + len(r.spans), Parent: parent,
		Start: int64(time.Since(r.t.origin)),
	})
	return r.base + len(r.spans) - 1
}

// end closes the span with the given handle.
func (r *recorder) end(h int) {
	if r == nil || h < 0 {
		return
	}
	r.spans[h-r.base].End = int64(time.Since(r.t.origin))
}

// all returns every recorded span.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, r := range t.recs {
		out = append(out, r.spans...)
	}
	return out
}

// spanStat summarizes the spans of one name: count, the median and mean
// of their durations, and the mean self time (duration minus the part
// of the interval covered by child spans).
type spanStat struct {
	Count                     int
	P50US, MeanUS, SelfMeanUS float64
}

// summarizeSpans computes per-name duration and self-time statistics.
func summarizeSpans(spans []span) map[string]spanStat {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	durs := make(map[string][]float64)
	selfs := make(map[string][]float64)
	for _, s := range spans {
		d := s.End - s.Start
		covered := unionLength(children[s.ID], s.Start, s.End)
		durs[s.Name] = append(durs[s.Name], float64(d)/1e3)
		selfs[s.Name] = append(selfs[s.Name], float64(d-covered)/1e3)
	}
	out := make(map[string]spanStat, len(durs))
	for name, ds := range durs {
		out[name] = spanStat{Count: len(ds), P50US: median(ds), MeanUS: mean(ds), SelfMeanUS: mean(selfs[name])}
	}
	return out
}

// unionLength is the length of the union of the intervals, clipped to
// [lo, hi].
func unionLength(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a >= b {
			continue
		}
		if curHi < 0 || a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes one JSON object per span to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
