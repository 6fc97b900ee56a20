package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	if got := minSamplesFor(0.95); got != 200 {
		t.Fatalf("minSamplesFor(0.95) = %d, want 200", got)
	}
	if minQueries != minSamplesFor(0.95) {
		t.Fatalf("minQueries = %d, want %d", minQueries, minSamplesFor(0.95))
	}
	for n := 1; n <= 3000; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: summarize must sort
		}
		s := summarize(xs)
		p, ok := s.highest()
		if n < 20 {
			if ok {
				t.Fatalf("n=%d: reported p%v with fewer than %d samples beyond the median", n, p*100, minBeyond)
			}
			continue
		}
		if !ok {
			t.Fatalf("n=%d: no percentile reported", n)
		}
		if b := s.beyond(p); b < minBeyond {
			t.Fatalf("n=%d: p%v has %d samples beyond it, want >= %d", n, p*100, b, minBeyond)
		}
		for _, higher := range percentiles {
			if higher > p && s.beyond(higher) >= minBeyond {
				t.Fatalf("n=%d: reported p%v but p%v also has %d samples beyond it", n, p*100, higher*100, s.beyond(higher))
			}
		}
		// Nearest rank: the p-quantile of 1..n is ceil(p*n).
		if got, want := s.quantile(p), math.Ceil(p*float64(n)); got != want {
			t.Fatalf("n=%d: quantile(%v) = %v, want %v", n, p, got, want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{199, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		if p, _ := summarize(make([]float64, c.n)).highest(); p != c.want {
			t.Errorf("n=%d: highest percentile %v, want %v", c.n, p, c.want)
		}
	}
	if got := percentileName("query", 0.999); got != "query_p99.9_ms" {
		t.Errorf("percentileName = %q", got)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	if err := checkMetricTable(metricTable); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []metricDef{
		{Name: "_x", Unit: "ms", Kind: kindNote},
		{Name: "x y", Unit: "ms", Kind: kindNote},
		{Name: strings.Repeat("a", 65), Unit: "ms", Kind: kindNote},
		{Name: "x", Unit: "m s", Kind: kindNote},
		{Name: "x", Unit: strings.Repeat("u", 17), Kind: kindNote},
		{Name: "x", Unit: "ms", Kind: kindE2E},
		{Name: "exec.x", Unit: "ms", Better: lower, Kind: kindLayer, Layer: "core"},
	} {
		if checkMetricTable([]metricDef{bad}) == nil {
			t.Errorf("checkMetricTable accepted %+v", bad)
		}
	}
	if checkMetricTable([]metricDef{metricTable[0], metricTable[0]}) == nil {
		t.Error("checkMetricTable accepted a duplicate name")
	}
}

// TestBenchmarkFileMatchesTable checks BENCHMARK.json against the metric
// table: the same end-to-end and per-layer metrics with the same units and
// directions, and the workloads this program runs.
func TestBenchmarkFileMatchesTable(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
	var e2e, layer []string
	for _, m := range f.EndToEnd {
		e2e = append(e2e, m.Name)
		d, ok := metricByName(m.Name)
		if !ok || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("end_to_end %s (%s, %s) does not match the table entry %+v", m.Name, m.Unit, m.Better, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range f.PerLayer {
		layer = append(layer, m.Name)
		d, ok := metricByName(m.Name)
		if !ok || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per_layer %s (%s, %s) does not match the table entry %+v", m.Name, m.Unit, m.Better, d)
		}
	}
	if !slices.Contains(e2e, "setup_s") {
		t.Error("end_to_end lacks setup_s")
	}
	if !reflect.DeepEqual(e2e, metricsOfKind(kindE2E)) {
		t.Errorf("end_to_end %v, table %v", e2e, metricsOfKind(kindE2E))
	}
	if !reflect.DeepEqual(layer, metricsOfKind(kindLayer)) {
		t.Errorf("per_layer %v, table %v", layer, metricsOfKind(kindLayer))
	}
}

// runResult runs the benchmark with args and decodes its last output line.
func runResult(t *testing.T, args ...string) (map[string]any, string) {
	t.Helper()
	var out, errb bytes.Buffer
	args = append(args, "--scale", "small", "--seconds", "0", "--spans", t.TempDir())
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("%v: exit %d\nstdout:\n%s\nstderr:\n%s", args, code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not JSON: %v", args, err)
	}
	return res, out.String()
}

// TestSmokeEveryWorkload runs every workload at small scale, untraced and
// traced, with every correctness check on.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			res, text := runResult(t, "--workload", w, "--trace", trace)
			var keys []string
			for k := range res {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
				t.Fatalf("%s trace=%s: result keys %v, want %v", w, trace, keys, want)
			}
			if res["correct"] != true || res["failed"].(float64) != 0 || res["attempted"].(float64) < 1 {
				t.Fatalf("%s trace=%s: correct=%v attempted=%v failed=%v", w, trace, res["correct"], res["attempted"], res["failed"])
			}
			kind := kindE2E
			if trace == "1" {
				kind = kindLayer
			}
			metrics := res["metrics"].(map[string]any)
			var got []string
			for name, v := range metrics {
				got = append(got, name)
				m := v.(map[string]any)
				val := m["value"].(float64)
				if d, _ := metricByName(name); m["unit"] != d.Unit || math.IsNaN(val) || math.IsInf(val, 0) {
					t.Errorf("%s trace=%s: metric %s = %v", w, trace, name, m)
				}
				if kind == kindE2E && val <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, val)
				}
			}
			want := metricsOfKind(kind)
			slices.Sort(got)
			slices.Sort(want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%s: metrics %v, want %v", w, trace, got, want)
			}
			for _, stamp := range []string{"num_cpu=", "gomaxprocs=", "go=go", "scale=small", "seed=1"} {
				if !strings.Contains(text, stamp) {
					t.Errorf("%s trace=%s: report lacks %q", w, trace, stamp)
				}
			}
		}
	}
}

// TestSeedArgument checks that the seed alone decides the inputs: the same
// seed gives the same data, query draws and appended lines, a different
// seed gives different ones, and a run on another seed passes every check.
func TestSeedArgument(t *testing.T) {
	inputs := func(seed int64) (string, []int, [][][]string) {
		b, err := newBench(options{workload: wIngest, seed: seed, scale: "small"})
		if err != nil {
			t.Fatal(err)
		}
		s, err := b.newSystem(nil)
		if err != nil {
			t.Fatal(err)
		}
		log, err := s.sys.Catalog().Log("tweets")
		if err != nil {
			t.Fatal(err)
		}
		draw := queryDraws(seed, 1, len(b.sqls))
		draws := make([]int, 200)
		for i := range draws {
			draws[i] = draw()
		}
		batches, err := b.appendBatches()
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(log.Lines, "\n"), draws, batches
	}
	d1, q1, a1 := inputs(1)
	d1b, q1b, a1b := inputs(1)
	d2, q2, a2 := inputs(2)
	if d1 != d1b || !reflect.DeepEqual(q1, q1b) || !reflect.DeepEqual(a1, a1b) {
		t.Fatal("the same seed gave different inputs")
	}
	if d1 == d2 {
		t.Error("seeds 1 and 2 gave the same data")
	}
	if reflect.DeepEqual(q1, q2) {
		t.Error("seeds 1 and 2 gave the same query draws")
	}
	if reflect.DeepEqual(a1, a2) {
		t.Error("seeds 1 and 2 gave the same appended lines")
	}
	for _, w := range workloads {
		res, _ := runResult(t, "--workload", w, "--seed", "2")
		if res["correct"] != true {
			t.Errorf("%s with seed 2: checks failed", w)
		}
	}
}

func TestSpanTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: noSpan, Name: "query", Start: ms(0), End: ms(10)},
		{ID: 1, Parent: 0, Name: "exec.hv", Start: ms(2), End: ms(6)},
		{ID: 2, Parent: 0, Name: "exec.dw", Start: ms(5), End: ms(8)},  // overlaps exec.hv by 1ms
		{ID: 3, Parent: 0, Name: "exec.dw", Start: ms(9), End: ms(12)}, // runs past its parent
		{ID: 4, Parent: noSpan, Name: "reorg", Start: ms(20), End: -1}, // never closed
	}
	st := spanTimes(spans)
	if q := st["query"]; q.total != ms(10) || q.self != ms(10-6-1) || !reflect.DeepEqual(q.selfMS, []float64{3}) {
		t.Errorf("query %+v, want total 10ms and self 3ms", q)
	}
	if dw := st["exec.dw"]; dw.total != ms(6) || dw.n != 2 || !reflect.DeepEqual(dw.durMS, []float64{3, 3}) {
		t.Errorf("exec.dw %+v", dw)
	}
	if st["reorg"].n != 0 {
		t.Errorf("an unclosed span was counted: %+v", st["reorg"])
	}

	tr := newTracer()
	q := tr.begin("query", noSpan, 7)
	tr.end(q)
	tr.spans[q].End = tr.spans[q].Start + ms(10)
	if !tr.child("exec.dw", q, 7, ms(3), 0) || !tr.child("exec.hv", q, 7, ms(7), ms(3)) {
		t.Fatal("children that fit their parent were refused")
	}
	if tr.child("exec.hv", q, 7, ms(1), ms(10)) {
		t.Error("a child longer than the room its parent has left was accepted")
	}
	got := tr.snapshot()
	if len(got) != 3 {
		t.Fatalf("%d spans recorded, want 3", len(got))
	}
	if dw, hv := got[1], got[2]; dw.End != got[0].End || dw.End-dw.Start != ms(3) || hv.End != dw.Start || hv.Start != got[0].Start {
		t.Errorf("child spans misplaced: %+v", got)
	}
	tr.rename(q, "backend.hit")
	if tr.snapshot()[0].Name != "backend.hit" {
		t.Error("rename did not rename")
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", noSpan, 0); id != noSpan {
		t.Errorf("nil tracer begin = %d", id)
	}
	nilTracer.end(0)
	nilTracer.rename(0, "y")
	if !nilTracer.child("x", 0, 0, ms(1), 0) {
		t.Error("nil tracer child reported a misfit")
	}
}

// validName matches a metric name: a letter or digit first, then at most
// 63 letters, digits, '_', '.' and '-'.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validUnit matches a unit: at most 16 letters, digits, '_', '/', '%',
// '.' and '-'.
var validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// checkMetricTable reports the first malformed or duplicated entry.
func checkMetricTable(table []metricDef) error {
	seen := map[string]bool{}
	for _, d := range table {
		switch {
		case !validName.MatchString(d.Name):
			return fmt.Errorf("metric name %q is malformed", d.Name)
		case !validUnit.MatchString(d.Unit):
			return fmt.Errorf("metric %q: unit %q is malformed", d.Name, d.Unit)
		case seen[d.Name]:
			return fmt.Errorf("metric %q listed twice", d.Name)
		case d.Kind != kindE2E && d.Kind != kindLayer && d.Kind != kindNote:
			return fmt.Errorf("metric %q: unknown kind %q", d.Name, d.Kind)
		case d.Kind != kindNote && d.Better != lower && d.Better != higher:
			return fmt.Errorf("metric %q has no direction", d.Name)
		case d.Kind == kindLayer && !strings.HasPrefix(d.Name, d.Layer+"."):
			return fmt.Errorf("per-layer metric %q is not named <module>.<metric> for module %q", d.Name, d.Layer)
		}
		seen[d.Name] = true
	}
	return nil
}

// metricsOfKind returns the table's names of one kind, in table order.
func metricsOfKind(kind string) []string {
	var out []string
	for _, d := range metricTable {
		if d.Kind == kind {
			out = append(out, d.Name)
		}
	}
	return out
}

// TestQueryDrawsFollowZipf checks the served-repeat draws: query k-1 of
// the stream is drawn with weight 1/k.
func TestQueryDrawsFollowZipf(t *testing.T) {
	const n, draws = 32, 200000
	count := make([]int, n)
	draw := queryDraws(3, 0, n)
	for i := 0; i < draws; i++ {
		count[draw()]++
	}
	h := 0.0
	for k := 1; k <= n; k++ {
		h += 1 / float64(k)
	}
	for _, k := range []int{1, 2, 4, 32} {
		got, want := float64(count[k-1])/draws, 1/(float64(k)*h)
		if math.Abs(got-want) > 0.1*want {
			t.Errorf("query %d drawn with share %.4f, want %.4f", k-1, got, want)
		}
	}
}

// TestQuietSegments checks the steal rule of served-repeat's segments:
// those with more steal than the first-quartile segment are left out, ties
// kept.
func TestQuietSegments(t *testing.T) {
	for _, tc := range []struct {
		steal []float64
		want  []int
	}{
		{[]float64{0, 0, 0, 0}, []int{0, 1, 2, 3}},
		{[]float64{0.1, 0, 0.2, 0}, []int{1, 3}},
		{[]float64{0.3, 0.1, 0.2}, []int{1}},
		{[]float64{0.4, 0.3, 0.2, 0.1, 0.5}, []int{2, 3}},
		{[]float64{0.05}, []int{0}},
	} {
		segs := make([]segment, len(tc.steal))
		for i, s := range tc.steal {
			segs[i] = segment{steal: s, wall: time.Duration(i)}
		}
		var got []int
		for _, sg := range quiet(segs) {
			got = append(got, int(sg.wall))
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("quiet(%v) kept %v, want %v", tc.steal, got, tc.want)
		}
	}
}
