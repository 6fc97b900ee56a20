package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"miso/internal/data"
	"miso/internal/exec"
	"miso/internal/logical"
	"miso/internal/multistore"
	"miso/internal/sqlparser"
	"miso/internal/storage"
	"miso/internal/workload"
)

// The paper's main configuration: view budgets at twice each store's base
// data and a 10 GB transfer budget, as in experiments.Default.
const (
	budgetMultiple = 2.0
	transferBudget = 10 << 30
)

// scaleConfig maps a scale name to a data configuration.
func scaleConfig(name string) (data.Config, error) {
	switch name {
	case "paper":
		return data.DefaultConfig(), nil
	case "small":
		return data.SmallConfig(), nil
	}
	return data.Config{}, fmt.Errorf("unknown scale %q (want paper or small)", name)
}

// Seeds derived from the workload seed for the inputs other than the data.
func appendSeed(seed int64) int64         { return seed*1_000_003 + 1 }
func sessionSeed(seed int64, i int) int64 { return seed*1_000_003 + 2 + int64(i) }

// bench is one workload run.
type bench struct {
	opt  options
	data data.Config
	sqls []string
	res  *result
	// tr holds the traced run's spans; nil when --trace is 0.
	tr *tracer
}

// minQueries is the fewest query samples a loop collects, so that the
// reported 95th percentile has at least minBeyond samples beyond it; a
// loop measures past --seconds until it has them.
var minQueries = minSamplesFor(0.95)

func newBench(o options) (*bench, error) {
	dc, err := scaleConfig(o.scale)
	if err != nil {
		return nil, err
	}
	dc.Seed = o.seed
	b := &bench{opt: o, data: dc, sqls: workload.SQLs(), res: &result{stamp: newStamp(o)}}
	if o.trace {
		b.tr = newTracer()
	}
	return b, nil
}

func (b *bench) spansPath() string {
	return filepath.Join(b.opt.spansDir, fmt.Sprintf("%s-seed%d.jsonl", b.opt.workload, b.opt.seed))
}

func (b *bench) deadline() time.Duration {
	return time.Duration(b.opt.seconds * float64(time.Second))
}

// op counts one attempted operation and, when err is non-nil, one failed.
func (b *bench) op(err error) {
	b.res.attempted++
	if err != nil {
		b.res.failed++
	}
}

// system is one set-up MS-MISO system.
type system struct {
	sys      *multistore.System
	cfg      multistore.Config
	generate time.Duration
	setup    time.Duration
	logBytes int64
}

// newSystem generates the seeded data and builds an MS-MISO system over
// it, timing the whole set-up and data generation alone.
func (b *bench) newSystem(mod func(*multistore.Config)) (*system, error) {
	start := time.Now()
	cat, err := data.Generate(b.data)
	if err != nil {
		return nil, fmt.Errorf("generating data: %w", err)
	}
	gen := time.Since(start)
	cfg := multistore.DefaultConfig(multistore.VariantMSMiso)
	cfg.SetBudgets(cat, budgetMultiple, transferBudget)
	if mod != nil {
		mod(&cfg)
	}
	sys := multistore.New(cfg, cat)
	if err := sys.ProvideFutureWorkload(b.sqls); err != nil {
		return nil, fmt.Errorf("providing the workload: %w", err)
	}
	return &system{sys: sys, cfg: cfg, generate: gen, setup: time.Since(start), logBytes: rawLogBytes(cat)}, nil
}

func rawLogBytes(cat *storage.Catalog) int64 {
	var n int64
	for _, name := range cat.LogNames() {
		if l, err := cat.Log(name); err == nil {
			n += l.RawBytes()
		}
	}
	return n
}

// reference computes every workload answer on a different route from the
// one measured: HV-ONLY, which keeps no views and never splits a plan.
// before(i, sys) runs before query i, so the reference sees the same
// appends as the measured system. It returns the answers' data digests.
func (b *bench) reference(before func(i int, sys *multistore.System) error) ([]uint64, error) {
	cat, err := data.Generate(b.data)
	if err != nil {
		return nil, fmt.Errorf("reference: generating data: %w", err)
	}
	cfg := multistore.DefaultConfig(multistore.VariantHVOnly)
	cfg.SetBudgets(cat, budgetMultiple, transferBudget)
	sys := multistore.New(cfg, cat)
	out := make([]uint64, len(b.sqls))
	for i, sql := range b.sqls {
		if before != nil {
			if err := before(i, sys); err != nil {
				return nil, fmt.Errorf("reference: %w", err)
			}
		}
		rep, err := sys.RunContext(context.Background(), sql)
		if err != nil {
			return nil, fmt.Errorf("reference query %d: %w", i, err)
		}
		out[i] = storage.ChecksumData(rep.Result)
	}
	return out, nil
}

// checker compares answers with the reference, digesting each distinct
// result table once: cached answers are the same table.
type checker struct {
	ref  []uint64
	memo map[*storage.Table]uint64
	res  *result
}

func newChecker(ref []uint64, res *result) *checker {
	return &checker{ref: ref, memo: map[*storage.Table]uint64{}, res: res}
}

func (c *checker) answer(i int, rep *multistore.QueryReport) {
	if rep == nil || rep.Result == nil {
		c.res.check(false, "query %d returned no result table", i)
		return
	}
	d, ok := c.memo[rep.Result]
	if !ok {
		d = storage.ChecksumData(rep.Result)
		c.memo[rep.Result] = d
	}
	c.res.check(d == c.ref[i], "query %d answer digest %016x differs from the HV-ONLY reference %016x", i, d, c.ref[i])
}

// memSnap is a runtime.MemStats reading.
type memSnap struct {
	alloc, mallocs uint64
	gcs            uint32
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{alloc: m.TotalAlloc, mallocs: m.Mallocs, gcs: m.NumGC}
}

func (m *memSnap) addDelta(from, to memSnap) {
	m.alloc += to.alloc - from.alloc
	m.mallocs += to.mallocs - from.mallocs
	m.gcs += to.gcs - from.gcs
}

// retainedHeap returns HeapAlloc in MB after a full collection; callers
// keep the system they measure reachable across the call.
func retainedHeap() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

func gcCPUFraction() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.GCCPUFraction
}

// cpuTimes reads the machine's CPU time counters from /proc/stat: the
// time the hypervisor stole from this VM and the total over all states.
// ok is false where the file cannot be read.
func cpuTimes() (steal, total uint64, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user and nice.
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, x := range f[1:9] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// execProbe reads the per-operator exec.Stats attached to each store.
// Both stores run a plan node by node through exec.RunNode, which times
// one operator's wall time after its inputs are computed, so the operator
// times of one call are disjoint intervals inside it. (The fused pipelines
// of exec.Run, whose stage times are summed across morsel workers, are not
// on this path; a query whose operator time exceeded its wall time would
// fail the run, see bench.query.)
type execProbe struct {
	hv, dw exec.Stats
}

// execSnap is one reading of both stores' operator counters.
type execSnap struct {
	hvOp   map[string]time.Duration
	hvRows map[string]int64
	hv, dw time.Duration
}

func (p *execProbe) attach(sys *multistore.System) {
	sys.HV().SetExecStats(&p.hv)
	sys.DW().SetExecStats(&p.dw)
}

func (p *execProbe) read() execSnap {
	s := execSnap{hvOp: map[string]time.Duration{}, hvRows: map[string]int64{}}
	for _, o := range p.hv.Breakdown() {
		s.hvOp[o.Op] = o.Time
		s.hvRows[o.Op] = o.Rows
		s.hv += o.Time
	}
	for _, o := range p.dw.Breakdown() {
		s.dw += o.Time
	}
	return s
}

// sub returns the counters accrued between from and s.
func (s execSnap) sub(from execSnap) execSnap {
	d := execSnap{hvOp: map[string]time.Duration{}, hvRows: map[string]int64{}, hv: s.hv - from.hv, dw: s.dw - from.dw}
	for op, t := range s.hvOp {
		d.hvOp[op] = t - from.hvOp[op]
		d.hvRows[op] = s.hvRows[op] - from.hvRows[op]
	}
	return d
}

func (s *execSnap) add(d execSnap) {
	if s.hvOp == nil {
		s.hvOp, s.hvRows = map[string]time.Duration{}, map[string]int64{}
	}
	for op, t := range d.hvOp {
		s.hvOp[op] += t
		s.hvRows[op] += d.hvRows[op]
	}
	s.hv += d.hv
	s.dw += d.dw
}

// layerAcc accumulates the traced run's counters that no span covers:
// operator times and the system's own logs and statistics. Layer times are
// read from the spans.
type layerAcc struct {
	passes   int
	queries  int
	exec     execSnap
	generate []float64
	logBytes int64

	reorgs, viewsMoved          int
	movedBytes                  int64
	viewsDropped                int
	usedViews, created          int
	hvBytes, dwBytes, xferBytes int64
	walRecords, checkpoints     int
	walBytes                    int64
	replayed                    int
	shed                        int
	reuse                       multistore.ReuseStats
}

// passState collects a finished pass's system-level counters.
func (a *layerAcc) passState(sys *multistore.System, reports []*multistore.QueryReport) {
	a.passes++
	for _, r := range sys.ReorgLog() {
		a.reorgs++
		a.viewsMoved += r.MovedToDW + r.MovedToHV
		a.movedBytes += r.Bytes
	}
	for _, r := range reports {
		a.usedViews += len(r.UsedViews)
		a.created += r.NewViews
		a.xferBytes += r.TransferBytes
	}
	a.hvBytes += sys.HV().Views.TotalBytes()
	a.dwBytes += sys.DW().Views.TotalBytes()
	if d := sys.Durability(); d != nil {
		a.walRecords += d.WAL().Records()
		a.walBytes += int64(d.WAL().LSN())
		a.checkpoints += d.Checkpoints()
	}
}

// backendCall makes one call into the System under a backend span, renamed
// backend.hit when the reuse plane answered it (a cache hit or a follower
// that shared a concurrent leader's execution).
func backendCall(tr *tracer, parent, query int, f func() (*multistore.QueryReport, error)) (*multistore.QueryReport, int, error) {
	bs := tr.begin("backend", parent, query)
	rep, err := f()
	if err == nil && (rep.CacheHit || rep.Piggybacked) {
		tr.rename(bs, "backend.hit")
	}
	tr.end(bs)
	return rep, bs, err
}

// planProbe times the side-effect-free front end on each workload SQL:
// sqlparser.Parse and logical.Builder.BuildSQL, median over rounds.
func (b *bench) planProbe(cat *storage.Catalog) (parseUS, buildUS float64, n int, err error) {
	const rounds = 20
	builder := logical.NewBuilder(cat)
	var parse, build []float64
	for r := 0; r < rounds; r++ {
		for _, sql := range b.sqls {
			t0 := time.Now()
			if _, err := sqlparser.Parse(sql); err != nil {
				return 0, 0, 0, err
			}
			t1 := time.Now()
			if _, err := builder.BuildSQL(sql); err != nil {
				return 0, 0, 0, err
			}
			t2 := time.Now()
			parse = append(parse, float64(t1.Sub(t0).Nanoseconds())/1e3)
			build = append(build, float64(t2.Sub(t1).Nanoseconds())/1e3)
		}
	}
	return median(parse), median(build), len(parse), nil
}
