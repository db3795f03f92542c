package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"zombiescope/internal/obs"
)

// tracer records the benchmark's own spans around its calls into each
// layer. Every span is mirrored into an obs span (for the Chrome trace)
// and into an in-memory record the per-layer self times are computed
// from. The tracer is private to the benchmark: it is never installed
// as the process-wide obs tracer, so the program's internal spans stay
// off and the traced run measures only the call boundaries.
//
// A nil *tracer is the untraced mode: every method is a no-op and spans
// are nil.
type tracer struct {
	ot *obs.Tracer

	mu     sync.Mutex
	nextID uint64
	spans  []spanRec
}

// spanRec is one finished span.
type spanRec struct {
	name   string
	id     uint64
	parent uint64 // 0 for a root
	dur    time.Duration
}

// span is one in-flight benchmark span.
type span struct {
	t     *tracer
	os    *obs.Span
	rec   spanRec
	start time.Time
	ended bool
}

func newTracer() *tracer { return &tracer{ot: obs.NewTracer()} }

func (t *tracer) id() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// root starts a span that opens a new trace.
func (t *tracer) root(name string) *span {
	if t == nil {
		return nil
	}
	id := t.id()
	return &span{t: t, os: t.ot.Start(name), rec: spanRec{name: name, id: id}, start: time.Now()}
}

// child starts a span caused by s.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	id := s.t.id()
	return &span{t: s.t, os: s.os.Start(name),
		rec: spanRec{name: name, id: id, parent: s.rec.id}, start: time.Now()}
}

// end finishes the span; calls after the first are no-ops. A span is
// ended by the goroutine that started it.
func (s *span) end() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.rec.dur = time.Since(s.start)
	s.os.End()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.rec)
	s.t.mu.Unlock()
}

// selfTimes returns, per span name, the total self time (duration minus
// the durations of its direct children) and the span count. The
// benchmark's spans are sequential within a parent, so children never
// overlap.
func (t *tracer) selfTimes() map[string]*selfStat {
	out := map[string]*selfStat{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	childSum := make(map[uint64]time.Duration, len(t.spans))
	for _, sp := range t.spans {
		if sp.parent != 0 {
			childSum[sp.parent] += sp.dur
		}
	}
	for _, sp := range t.spans {
		st := out[sp.name]
		if st == nil {
			st = &selfStat{}
			out[sp.name] = st
		}
		st.n++
		st.total += sp.dur
		st.self += sp.dur - childSum[sp.id]
	}
	return out
}

// selfStat aggregates the spans of one name.
type selfStat struct {
	n     int
	total time.Duration // inclusive
	self  time.Duration
}

// meanSelf is the mean self time in seconds (0 without spans).
func (s *selfStat) meanSelf() float64 {
	if s == nil || s.n == 0 {
		return 0
	}
	return s.self.Seconds() / float64(s.n)
}

// meanTotal is the mean inclusive time in seconds.
func (s *selfStat) meanTotal() float64 {
	if s == nil || s.n == 0 {
		return 0
	}
	return s.total.Seconds() / float64(s.n)
}

// writeChrome writes the spans as Chrome trace-event JSON to path.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.ot.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTable prints every span name's count, mean inclusive and mean
// self time, sorted by total self time.
func (t *tracer) printSelfTable(w io.Writer) {
	st := t.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]].self > st[names[j]].self })
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "mean_ms", "self_ms")
	for _, n := range names {
		s := st[n]
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f\n", n, s.n, s.meanTotal()*1e3, s.meanSelf()*1e3)
	}
}
