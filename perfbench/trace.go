package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval around a call the benchmark made into a
// layer. Spans nest as workload > query/append/reorg/recover > backend >
// exec.hv/exec.dw. A backend span is named backend.hit when the reuse plane
// answered the call, and backend.reorg around the System.Reorganize that
// served-repeat's Server.Reorganize makes. Query is the submission index
// (-1 outside queries).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Query  int           `json:"query"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer records spans in memory; they are written out when the run ends.
// A nil tracer records nothing, so untraced runs pay one nil check per
// call site.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// noSpan is the parent of a root span and the ID a nil tracer returns.
const noSpan = -1

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, query int) int {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Query: query, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// rename gives an open or closed span another name.
func (t *tracer) rename(id int, name string) {
	if t == nil || id == noSpan {
		return
	}
	t.mu.Lock()
	t.spans[id].Name = name
	t.mu.Unlock()
}

// child records a span whose duration was measured by a layer's own
// counters (exec.Stats) rather than observed directly: it is laid at the
// end of its parent, after any earlier children placed this way. It
// reports false, and records nothing, when the duration does not fit in
// the room the parent has left: the counters then measured something other
// than time spent inside the parent's call.
func (t *tracer) child(name string, parent, query int, d time.Duration, before time.Duration) bool {
	if t == nil || parent == noSpan || d <= 0 {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	end := p.End - before
	start := end - d
	if start < p.Start {
		return false
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Query: query, Start: start, End: end})
	return true
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanStat is what the spans of one name add up to. Self time is a span's
// duration minus the part of its interval its children cover.
type spanStat struct {
	n             int
	total, self   time.Duration
	durMS, selfMS []float64 // per span
}

// spanTimes sums the closed spans per name.
func spanTimes(spans []span) map[string]spanStat {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != noSpan {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]spanStat{}
	for _, s := range spans {
		if s.End < s.Start {
			continue // never closed: the call did not return
		}
		d := s.End - s.Start
		self := d - covered(s, kids[s.ID])
		st := out[s.Name]
		st.n++
		st.total += d
		st.self += self
		st.durMS = append(st.durMS, ms(d))
		st.selfMS = append(st.selfMS, ms(self))
		out[s.Name] = st
	}
	return out
}

// covered returns how much of parent's interval the children cover,
// counting overlapping children once.
func covered(parent span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum time.Duration
	var curLo, curHi time.Duration = -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				sum += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		sum += curHi - curLo
	}
	return sum
}

// spanSummary renders each span name's count, total and self time.
func spanSummary(spans []span) []string {
	st := spanTimes(spans)
	names := make([]string, 0, len(st))
	for name := range st {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]string, 0, len(names))
	for _, name := range names {
		out = append(out, fmt.Sprintf("span   %-10s n=%-7d total_s=%-10.4f self_s=%.4f", name, st[name].n, st[name].total.Seconds(), st[name].self.Seconds()))
	}
	return out
}

// writeSpans saves the spans as JSON lines, the stamp first.
func writeSpans(path string, st stamp, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(st); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
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
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
