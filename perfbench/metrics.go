package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// samples is a sorted set of measurements.
type samples []float64

func summarize(xs []float64) samples {
	s := append(samples(nil), xs...)
	sort.Float64s(s)
	return s
}

func (s samples) n() int { return len(s) }

// rank is the 1-based nearest rank of quantile p: the smallest sample
// with at least a share p of the samples at or below it.
func (s samples) rank(p float64) int {
	r := int(math.Ceil(p * float64(len(s))))
	if r < 1 {
		r = 1
	}
	return r
}

// quantile returns the nearest-rank p-quantile (NaN for no samples).
func (s samples) quantile(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return s[s.rank(p)-1]
}

// beyond counts the samples above the p-quantile's rank.
func (s samples) beyond(p float64) int {
	if len(s) == 0 {
		return 0
	}
	return len(s) - s.rank(p)
}

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail percentile resting on fewer is one or two unlucky samples.
const minBeyond = 10

// percentiles is the ladder a timing's tail is reported on.
var percentiles = []float64{0.5, 0.9, 0.95, 0.99, 0.999, 0.9999}

// highest returns the highest percentile on the ladder with at least
// minBeyond samples beyond it.
func (s samples) highest() (float64, bool) {
	best, ok := 0.0, false
	for _, p := range percentiles {
		if s.beyond(p) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// minSamplesFor returns the fewest samples that put minBeyond samples
// beyond the p-quantile.
func minSamplesFor(p float64) int {
	for n := 1; ; n++ {
		if n-int(math.Ceil(p*float64(n))) >= minBeyond {
			return n
		}
	}
}

func median(xs []float64) float64 { return summarize(xs).quantile(0.5) }

// percentileName names a percentile metric: p=0.95 gives prefix_p95_ms,
// p=0.999 gives prefix_p99.9_ms.
func percentileName(prefix string, p float64) string {
	return prefix + "_p" + strconv.FormatFloat(p*100, 'f', -1, 64) + "_ms"
}

// Metric kinds: end-to-end metrics come from untraced runs and are in
// BENCHMARK.json's end_to_end list; layer metrics come from the traced
// run and are in its per_layer list; notes are printed in the report only,
// because they exist on some workloads and not others or are diagnostics.
const (
	kindE2E   = "end_to_end"
	kindLayer = "per_layer"
	kindNote  = "note"
)

// A share "over client call time" divides by the summed query, reorg,
// append and recover spans of the traced run: the traced section's wall
// time on the single-stream workloads, both sessions' time on
// served-repeat.

// metricDef describes one metric: where it is measured, which
// end-to-end metric it should move, and on which workloads.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"; notes may leave it empty
	Kind   string
	Layer  string // module the metric measures
	Moves  string // end-to-end metrics it should move
	On     string // workloads it should move them on
	Doc    string
}

const (
	allW   = "evolving, served-repeat, ingest"
	sinkW  = "evolving, ingest"
	lower  = "lower"
	higher = "higher"
)

// metricTable is every metric the benchmark reports. Its per-layer rows
// are the layer -> end-to-end metric -> workload map the benchmark was
// designed around; `perfbench --list` prints it.
var metricTable = []metricDef{
	// End-to-end, untraced.
	{"setup_s", "s", lower, kindE2E, "bench", "", allW, "median time from start until the first query can be submitted: data.Generate, multistore.New, ProvideFutureWorkload (and serve.NewServer on served-repeat); each set-up starts after a full collection, with earlier systems unreachable"},
	{"throughput_qps", "1/s", higher, kindE2E, "bench", "", allW, "median completed queries per second over the timed section's passes (evolving, ingest) or the quarter-second closed-loop segments with no more steal than the first-quartile segment (served-repeat)"},
	{"query_p50_ms", "ms", lower, kindE2E, "bench", "", allW, "median wall time of System.RunContext or Server.Do (served-repeat: over the paced segments, 500 queries per second offered, with no more steal than the first-quartile segment)"},
	{"query_p95_ms", "ms", lower, kindE2E, "bench", "", allW, "95th percentile query wall time (served-repeat: over the same segments as query_p50_ms)"},
	{"alloc_mb_per_query", "MB", lower, kindE2E, "go", "", allW, "runtime TotalAlloc delta of the timed section per completed query"},
	{"retained_heap_mb", "MB", lower, kindE2E, "go", "", allW, "HeapAlloc after runtime.GC with the system still live, at the end of the last pass (served-repeat: after the warm-up pass)"},
	{"query_p99_ms", "ms", lower, kindNote, "bench", "", "served-repeat", "99th percentile query wall time"},
	{"query_p99.9_ms", "ms", lower, kindNote, "bench", "", "served-repeat", "99.9th percentile query wall time"},
	{"query_p99.99_ms", "ms", lower, kindNote, "bench", "", "served-repeat", "99.99th percentile query wall time"},
	{"query_ex_reorg_p50_ms", "ms", lower, kindNote, "bench", "", "evolving", "median query wall time in the traced run, where reorganizations are separate calls"},
	{"query_ex_reorg_p95_ms", "ms", lower, kindNote, "bench", "", "evolving", "95th percentile query wall time in the traced run, where reorganizations are separate calls: against query_p95_ms it shows the tail the reorganizations form"},
	{"tti_sim_s", "s", lower, kindNote, "multistore", "", sinkW, "simulated time-to-insight of one pass (deterministic; the paper's metric)"},
	{"append_p50_ms", "ms", lower, kindNote, "multistore", "", "ingest", "median AppendToLog wall time"},
	{"append_p90_ms", "ms", lower, kindNote, "multistore", "", "ingest", "90th percentile AppendToLog wall time"},
	{"append_p95_ms", "ms", lower, kindNote, "multistore", "", "ingest", "95th percentile AppendToLog wall time"},
	{"append_p99_ms", "ms", lower, kindNote, "multistore", "", "ingest", "99th percentile AppendToLog wall time"},
	{"recover_ms", "ms", lower, kindNote, "durability", "", "ingest", "median wall time of multistore.Recover from the latest checkpoint plus the WAL"},
	{"error_rate", "frac", lower, kindNote, "bench", "", allW, "failed operations over attempted ones"},
	{"cpu_steal_frac", "frac", lower, kindNote, "bench", "", allW, "share of the machine's CPU time its hypervisor stole during the run (/proc/stat, Linux only); the wall-time metrics slow with it"},

	// Per-layer, traced.
	{"data.generate_s", "s", lower, kindLayer, "data", "setup_s", allW, "median data.Generate wall time"},
	{"data.log_mb", "MB", lower, kindLayer, "data", "setup_s", allW, "raw generated log bytes"},
	{"exec.hv.extract_s", "s", lower, kindLayer, "exec", "throughput_qps, query_p50_ms", sinkW, "HV Extract (JSON scan) wall time per completed query (exec.Stats; the stores time each operator at its exec.RunNode boundary)"},
	{"exec.hv.extract_rows", "count", lower, kindLayer, "exec", "throughput_qps, query_p50_ms", sinkW, "rows extracted per completed query"},
	{"exec.hv.filter_s", "s", lower, kindLayer, "exec", "throughput_qps, query_p50_ms", sinkW, "HV filter time per completed query"},
	{"exec.hv.join_s", "s", lower, kindLayer, "exec", "throughput_qps, query_p50_ms", sinkW, "HV join time per completed query"},
	{"exec.hv.aggregate_s", "s", lower, kindLayer, "exec", "throughput_qps, query_p50_ms", sinkW, "HV aggregate time per completed query"},
	{"exec.hv.total_s", "s", lower, kindLayer, "exec", "throughput_qps, query_p50_ms", sinkW, "all HV operator wall time per completed query"},
	{"exec.dw.total_s", "s", lower, kindLayer, "exec", "throughput_qps, query_p50_ms", sinkW, "all DW operator wall time per completed query"},
	{"exec.share", "frac", lower, kindLayer, "exec", "throughput_qps, query_p50_ms", sinkW, "HV plus DW operator time over client call time"},
	{"multistore.query_self_ms", "ms", lower, kindLayer, "multistore", "query_p50_ms", "evolving", "time inside the system per query outside exec operators: parse, build, optimizer choice, rewrite, bookkeeping (on ingest also the automatic reorganizations)"},
	{"multistore.self_share", "frac", lower, kindLayer, "multistore", "query_p50_ms", "evolving", "multistore self time over client call time"},
	{"multistore.append_ms", "ms", lower, kindNote, "multistore", "append_p50_ms", "ingest", "median AppendToLog wall time in the traced run"},
	{"multistore.append_share", "frac", lower, kindLayer, "multistore", "append_p50_ms", "ingest", "AppendToLog time over client call time"},
	{"multistore.views_dropped", "count", lower, kindLayer, "multistore", "append_p50_ms", "ingest", "views dropped by appends per pass"},
	{"sqlparser.parse_us", "us", lower, kindLayer, "sqlparser", "query_p50_ms", "served-repeat", "median sqlparser.Parse time over the workload SQL"},
	{"logical.build_us", "us", lower, kindLayer, "logical", "query_p50_ms", "served-repeat", "median Builder.BuildSQL time over the workload SQL"},
	{"core.reorg_ms", "ms", lower, kindNote, "core", "query_p95_ms, throughput_qps", "evolving", "median wall time of System.Reorganize or Server.Reorganize"},
	{"core.reorg_total_s", "s", lower, kindNote, "core", "query_p95_ms, throughput_qps", "evolving", "summed reorganization wall time of the traced section"},
	{"core.reorg_share", "frac", lower, kindLayer, "core", "query_p95_ms, throughput_qps", "evolving", "reorganization time over client call time (0 on ingest, whose reorganizations run inside queries)"},
	{"core.reorgs", "count", lower, kindLayer, "core", "query_p95_ms, throughput_qps", "evolving", "reorganizations per pass (served-repeat: per run)"},
	{"core.views_moved", "count", lower, kindLayer, "core", "tti_sim_s", "evolving", "views moved between stores per pass, from ReorgLog"},
	{"core.moved_mb", "MB", lower, kindLayer, "core", "tti_sim_s", "evolving", "logical view bytes moved per pass, from ReorgLog"},
	{"views.used_per_query", "count", higher, kindLayer, "views", "tti_sim_s", "evolving", "views read per completed query"},
	{"views.created", "count", lower, kindLayer, "views", "tti_sim_s", "evolving", "opportunistic views created per pass"},
	{"hv.view_mb", "MB", lower, kindLayer, "hv", "tti_sim_s", "evolving", "logical bytes of HV views at the end of a pass"},
	{"dw.view_mb", "MB", lower, kindLayer, "dw", "tti_sim_s", "evolving", "logical bytes of DW views at the end of a pass"},
	{"transfer.mb", "MB", lower, kindLayer, "transfer", "tti_sim_s", "evolving", "logical bytes transferred HV to DW per pass"},
	{"mqo.hit_rate", "frac", higher, kindLayer, "mqo", "throughput_qps, query_p50_ms", "served-repeat (ingest: overhead only)", "cache hits over cache lookups"},
	{"mqo.piggybacked", "count", higher, kindLayer, "mqo", "throughput_qps, query_p50_ms", "served-repeat", "queries that shared a concurrent leader's execution, per run"},
	{"mqo.invalidations", "count", lower, kindLayer, "mqo", "throughput_qps, query_p50_ms", "served-repeat, ingest", "cache entries dropped by invalidation (per pass on ingest, per run on served-repeat)"},
	{"mqo.evictions", "count", lower, kindLayer, "mqo", "throughput_qps, query_p50_ms", "served-repeat", "cache entries displaced by LRU pressure (per pass on ingest, per run on served-repeat)"},
	{"mqo.cache_mb", "MB", lower, kindLayer, "mqo", "throughput_qps, query_p50_ms", "served-repeat", "cache bytes resident at the end"},
	{"mqo.hit_ms", "ms", lower, kindNote, "mqo", "throughput_qps, query_p50_ms", "served-repeat", "median backend span of the calls the reuse plane answered"},
	{"mqo.miss_ms", "ms", lower, kindNote, "mqo", "throughput_qps, query_p50_ms", "served-repeat", "median backend span of the calls that executed"},
	{"mqo.hit_share", "frac", lower, kindLayer, "mqo", "throughput_qps, query_p50_ms", "served-repeat", "backend time of the calls the reuse plane answered (cache hits, piggybacked followers) over all backend time"},
	{"serve.queue_ms", "ms", lower, kindNote, "serve", "query_p99_ms", "served-repeat", "median query span self time: Server.Do wall time outside the backend call"},
	{"serve.queue_share", "frac", lower, kindLayer, "serve", "query_p99_ms", "served-repeat", "query span self time (Do outside the backend call) over query span time; about 0 where queries call the System directly"},
	{"serve.drain_ms", "ms", lower, kindNote, "serve", "query_p99_ms", "served-repeat", "median reorg span self time: Server.Reorganize outside the backend's Reorganize"},
	{"serve.shed", "count", lower, kindLayer, "serve", "query_p99_ms", "served-repeat", "queries shed at admission"},
	{"durability.wal_records", "count", lower, kindLayer, "durability", "append_p50_ms, throughput_qps, recover_ms", "ingest", "WAL records per pass"},
	{"durability.wal_mb", "MB", lower, kindLayer, "durability", "append_p50_ms, throughput_qps, recover_ms", "ingest", "WAL bytes per pass (WAL.LSN)"},
	{"durability.checkpoints", "count", lower, kindLayer, "durability", "append_p50_ms, throughput_qps, recover_ms", "ingest", "checkpoints per pass"},
	{"durability.replayed_records", "count", lower, kindLayer, "durability", "recover_ms", "ingest", "WAL records replayed by Recover"},
	{"durability.recover_share", "frac", lower, kindLayer, "durability", "recover_ms", "ingest", "Recover time over client call time"},
	{"go.gc_cpu_frac", "frac", lower, kindLayer, "go", "alloc_mb_per_query, throughput_qps", allW, "runtime GCCPUFraction at the end of the run"},
	{"go.mallocs_per_query", "count", lower, kindLayer, "go", "alloc_mb_per_query, throughput_qps", allW, "heap allocations per completed query"},
	{"go.gc_cycles", "count", lower, kindLayer, "go", "alloc_mb_per_query, throughput_qps", allW, "GC cycles per 1000 completed queries"},
	{"trace.overhead_frac", "frac", lower, kindLayer, "trace", "", allW, "untraced throughput_qps over traced, minus 1: traced wall time per query over untraced, minus 1"},
}

var metricIndex = func() map[string]metricDef {
	m := make(map[string]metricDef, len(metricTable))
	for _, d := range metricTable {
		m[d.Name] = d
	}
	return m
}()

func metricByName(name string) (metricDef, bool) {
	d, ok := metricIndex[name]
	return d, ok
}

// writeMetricMap prints the metric table.
func writeMetricMap(w io.Writer) {
	for _, d := range metricTable {
		fmt.Fprintf(w, "%-10s %-26s %-5s layer=%s", d.Kind, d.Name, d.Unit, d.Layer)
		if d.Moves != "" {
			fmt.Fprintf(w, " moves=[%s]", d.Moves)
		}
		fmt.Fprintf(w, " on=[%s]\n    %s\n", d.On, d.Doc)
	}
}
