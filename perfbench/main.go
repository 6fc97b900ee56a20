// Command perfbench is the repository benchmark. It drives the MISO
// multistore system from outside, through the Go API of the data,
// workload, multistore and serve packages, on three workloads:
//
//	evolving       the paper's 32-query evolving-analyst stream on MS-MISO,
//	               one fresh system per pass, tuner reorganizing every 3 queries
//	served-repeat  two sessions with Zipf-skewed repeats through serve.Server
//	               on one MS-MISO system with the reuse plane on, alternating
//	               paced segments (latency) and closed-loop ones (throughput)
//	ingest         the evolving stream interleaved with log appends, with the
//	               durability plane and reuse on, ending in crash recovery
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// runs the same workload and seed untraced and then traced, and reports
// the per-layer split. Every answer is checked against an answer computed
// by a different route (HV-ONLY, no views, no splits); any failed check
// makes the run exit nonzero. The last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload evolving --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// Workload names.
const (
	wEvolving = "evolving"
	wServed   = "served-repeat"
	wIngest   = "ingest"
)

var workloads = []string{wEvolving, wServed, wIngest}

// options is one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string
	spansDir string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var list bool
	fs.StringVar(&o.workload, "workload", wEvolving, "workload: "+strings.Join(workloads, ", ")+", or all")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: drives the data, the query draws and the appended lines")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long one run measures")
	fs.IntVar(&trace, "trace", 0, "0 measures end-to-end metrics; 1 adds a traced run and reports per-layer metrics")
	fs.StringVar(&o.scale, "scale", "paper", "data scale: paper or small")
	fs.StringVar(&o.spansDir, "spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	fs.BoolVar(&list, "list", false, "print every metric with its layer, the end-to-end metric it should move and on which workloads, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if list {
		writeMetricMap(stdout)
		return 0
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	o.trace = trace == 1
	if _, err := scaleConfig(o.scale); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if o.seconds < 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must not be negative")
		return 2
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloads
	}
	code := 0
	for _, name := range names {
		o.workload = name
		res, err := runWorkload(o)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		res.writeText(stdout)
		if err := res.writeJSON(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if !res.correct() {
			for _, f := range res.failures {
				fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", name, f)
			}
			code = 1
		}
	}
	return code
}

// runWorkload runs one workload and returns its result.
func runWorkload(o options) (*result, error) {
	var w func(b *bench) (plain, traced *loop, err error)
	switch o.workload {
	case wEvolving:
		w = runEvolving
	case wServed:
		w = runServed
	case wIngest:
		w = runIngest
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s or all)", o.workload, strings.Join(workloads, ", "))
	}
	b, err := newBench(o)
	if err != nil {
		return nil, err
	}
	steal0, total0, stealOK := cpuTimes()
	plain, traced, err := w(b)
	if err != nil {
		return nil, err
	}
	b.reportSamples(plain)
	if steal1, total1, ok := cpuTimes(); stealOK && ok && total1 > total0 {
		b.res.report("cpu_steal_frac", float64(steal1-steal0)/float64(total1-total0), 0)
	}
	if traced != nil {
		b.res.check(traced.tti == plain.tti, "traced TTI %v differs from untraced %v", traced.tti, plain.tti)
		b.res.check(traced.digest == plain.digest, "traced StateDigest %016x differs from untraced %016x", traced.digest, plain.digest)
		spans := b.tr.snapshot()
		b.reportLayers(plain, traced, spans)
		if o.workload == wEvolving {
			b.res.timing("query_ex_reorg", traced.lat, 0.95)
		}
		b.res.spans = spanSummary(spans)
		if err := writeSpans(b.spansPath(), b.res.stamp, spans); err != nil {
			return nil, err
		}
	}
	return b.res, nil
}

// stamp identifies the conditions a result was measured under.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Scale      string  `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
}

func newStamp(o options) stamp {
	return stamp{
		Workload: o.workload, Seed: o.seed, Scale: o.scale, Seconds: o.seconds, Trace: o.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
}

// measured is one reported metric value. N is the sample count behind it
// (0 for a counter) and Beyond the number of samples above a reported
// percentile.
type measured struct {
	Name   string
	Value  float64
	N      int
	Beyond int
}

// result is everything one workload run reports.
type result struct {
	stamp     stamp
	attempted int
	failed    int
	failures  []string
	metrics   []measured
	// notes are extra report lines: workload-specific and diagnostic
	// figures that are not part of the machine-readable result.
	notes []measured
	// spans summarizes the traced run's spans, one line per span name.
	spans []string
}

func (r *result) correct() bool { return len(r.failures) == 0 }

// check records a failed correctness check when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// checkErr records err, if any, as a failed check.
func (r *result) checkErr(err error, what string) {
	if err != nil {
		r.failures = append(r.failures, what+": "+err.Error())
	}
}

// report records a value under its metric's name; n is its sample count
// (0 for a counter).
func (r *result) report(name string, v float64, n int) {
	r.record(measured{Name: name, Value: v, N: n})
}

// record files a measured value: into the machine-readable result when
// its metric's kind is the run's (end-to-end on an untraced run, per-layer
// on a traced one), into the report notes otherwise.
func (r *result) record(m measured) {
	want := kindE2E
	if r.stamp.Trace {
		want = kindLayer
	}
	if d, ok := metricByName(m.Name); ok && d.Kind == want {
		r.metrics = append(r.metrics, m)
		return
	}
	r.notes = append(r.notes, m)
}

// timing reports a sample set of milliseconds as prefix_p50_ms, the given
// percentiles, and the highest percentile the samples support.
func (r *result) timing(prefix string, ms []float64, ps ...float64) {
	s := summarize(ms)
	ps = append([]float64{0.5}, ps...)
	if p, ok := s.highest(); ok && !slices.Contains(ps, p) {
		ps = append(ps, p)
	}
	for _, p := range ps {
		r.record(measured{Name: percentileName(prefix, p), Value: s.quantile(p), N: s.n(), Beyond: s.beyond(p)})
	}
}

func (r *result) writeText(w io.Writer) {
	st := r.stamp
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d scale=%s seconds=%g trace=%v num_cpu=%d gomaxprocs=%d go=%s\n",
		st.Workload, st.Seed, st.Scale, st.Seconds, st.Trace, st.NumCPU, st.GOMAXPROCS, st.GoVersion)
	line := func(kind string, m measured) {
		unit := "ms" // percentiles beyond the table's rows
		if d, ok := metricByName(m.Name); ok {
			unit = d.Unit
		}
		fmt.Fprintf(w, "%-6s %-26s %14.6g %-6s", kind, m.Name, m.Value, unit)
		switch {
		case m.Beyond > 0:
			fmt.Fprintf(w, " n=%d beyond=%d", m.N, m.Beyond)
		case m.N > 0:
			fmt.Fprintf(w, " n=%d", m.N)
		}
		fmt.Fprintln(w)
	}
	for _, m := range r.metrics {
		line("metric", m)
	}
	for _, m := range r.notes {
		line("note", m)
	}
	for _, l := range r.spans {
		fmt.Fprintln(w, l)
	}
	fmt.Fprintf(w, "# operations attempted=%d failed=%d error_rate=%g checks=%s\n",
		r.attempted, r.failed, r.errorRate(), map[bool]string{true: "pass", false: "FAIL"}[r.correct()])
}

func (r *result) errorRate() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeJSON prints the machine-readable result line.
func (r *result) writeJSON(w io.Writer) error {
	ms := make(map[string]jsonMetric, len(r.metrics))
	for _, m := range r.metrics {
		d, _ := metricByName(m.Name) // record admits only table metrics
		ms[m.Name] = jsonMetric{Value: m.Value, Unit: d.Unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}
