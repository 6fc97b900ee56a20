package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"miso/internal/multistore"
	"miso/internal/serve"
)

// Served-repeat shape. Two sessions and two workers match the machine the
// benchmark was sized on (nproc 2).
const (
	sessions    = 2
	setupRounds = 5
	// zipfExponent is the skew of the sessions' query draws: Zipf's law in
	// its original form, the k-th most popular query drawn with weight 1/k.
	// It is an assumption, not a measured trace of analysts' repeats; web
	// request traces put the exponent between about 0.6 and 0.85 (Breslau
	// et al., INFOCOM 1999). Every answer is cached after the warm-up, so
	// the exponent decides which answers' digest re-verification dominates
	// a hit's cost, and with it throughput: changing it changes the
	// benchmark.
	zipfExponent = 1.0
	// pacedRate is the offered load, in queries per second over both
	// sessions, under which latency is measured: about an eighth of what
	// two closed-loop sessions complete on the 2-vCPU VM the benchmark was
	// sized on. Saturated, the sessions, the server's workers and the
	// garbage collector contend for both CPUs, and the latency tail
	// measures that contention and the host's scheduling rather than the
	// system. The rate also sets how often the collector runs: at 1000 per
	// second the queries overlapping its mark phases reached down to the
	// 95th percentile (p95/p50 1.67, p97/p95 1.19), at 500 the tail past
	// p95 is smooth (1.44, 1.07).
	pacedRate = 500
	// segmentLen is the length of one timed segment. Paced and closed-loop
	// segments alternate, so both see the same host, and short enough that
	// a burst of steal falls in a few of them.
	segmentLen = time.Second / 4
)

// callKey carries a submission's span and query index from the session
// through serve.Server to the timing backend in the query's context.
type callKey struct{}

// call is what the timing backend learns about one submission.
type call struct {
	span  int
	query int
}

// timedBackend is a serve.Backend that records a backend span around each
// call the server makes into the System.
type timedBackend struct {
	sys *multistore.System
	tr  *tracer
	// reorgSpan is the parent span of the next Reorganize; the warm-up sets
	// it before calling Server.Reorganize, which calls Reorganize on the
	// same goroutine.
	reorgSpan int
}

func (t *timedBackend) run(ctx context.Context, f func() (*multistore.QueryReport, error)) (*multistore.QueryReport, error) {
	c, ok := ctx.Value(callKey{}).(call)
	if !ok {
		c = call{span: noSpan, query: -1}
	}
	rep, _, err := backendCall(t.tr, c.span, c.query, f)
	return rep, err
}

// RunContext implements serve.Backend.
func (t *timedBackend) RunContext(ctx context.Context, sql string) (*multistore.QueryReport, error) {
	return t.run(ctx, func() (*multistore.QueryReport, error) { return t.sys.RunContext(ctx, sql) })
}

// RunDegraded implements serve.Backend.
func (t *timedBackend) RunDegraded(ctx context.Context, sql string) (*multistore.QueryReport, error) {
	return t.run(ctx, func() (*multistore.QueryReport, error) { return t.sys.RunDegraded(ctx, sql) })
}

// Reorganize implements serve.Backend. The server calls it with no query
// in flight.
func (t *timedBackend) Reorganize() error {
	rs := t.tr.begin("backend.reorg", t.reorgSpan, -1)
	err := t.sys.Reorganize()
	t.tr.end(rs)
	return err
}

// runServed measures repeated analyst queries served concurrently. One
// MS-MISO system with the reuse plane on and no query-count
// reorganization is warmed with one pass of the evolving stream, with
// online reorganizations through Server.Reorganize before every third
// submission as the paper's tuner would place them. Then two sessions draw
// Zipf-skewed queries from the 32 and call Server.Do for the run's seconds,
// in quarter-second segments that alternate between pacedRate, which gives
// the latency metrics, and back to back, which gives the throughput. No
// reorganization runs in that timed section: each one
// empties the result cache, and refilling it made the throughput of a
// run depend on where the run's end fell in the reorganization cycle.
func runServed(b *bench) (plain, traced *loop, err error) {
	ref, err := b.reference(nil)
	if err != nil {
		return nil, nil, err
	}
	if plain, err = b.servedLoop(nil, ref); err != nil || b.tr == nil {
		return plain, nil, err
	}
	traced, err = b.servedLoop(b.tr, ref)
	return plain, traced, err
}

// served is one set-up serving stack.
type served struct {
	*system
	backend *timedBackend
	srv     *serve.Server
}

func (b *bench) newServed(tr *tracer) (*served, error) {
	start := time.Now()
	s, err := b.newSystem(func(c *multistore.Config) {
		c.ReorgEvery = 0
		c.Reuse = multistore.ReuseConfig{Enabled: true}
	})
	if err != nil {
		return nil, err
	}
	be := &timedBackend{sys: s.sys, tr: tr, reorgSpan: noSpan}
	srv := serve.NewServer(serve.Config{Workers: sessions}, be)
	s.setup = time.Since(start)
	return &served{system: s, backend: be, srv: srv}, nil
}

// queryDraws returns session s's query sequence: Zipf-distributed ranks
// over the n queries, query k of the evolving stream at rank k+1. The
// ranking is fixed rather than seeded: the hot answers decide what a cache
// hit costs, and a seeded ranking spread alloc_mb_per_query by 22% and
// throughput_qps by 26% across five seeds (IQR over median, 2-vCPU VM).
// The seed moves the draws and the data.
func queryDraws(seed int64, s, n int) func() int {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -zipfExponent)
		cdf[k] = sum
	}
	rng := rand.New(rand.NewSource(sessionSeed(seed, s)))
	return func() int {
		return min(sort.SearchFloat64s(cdf, rng.Float64()*sum), n-1)
	}
}

// sessionLog is what one client observed.
type sessionLog struct {
	lat       []float64
	queries   []int
	results   []*multistore.QueryReport
	attempted int
	errs      []error
}

// submit sends query i through the server and logs what it saw.
func (b *bench) submit(st *served, tr *tracer, parent, i int, lg *sessionLog) {
	c := call{span: tr.begin("query", parent, i), query: i}
	t0 := time.Now()
	rep, err := st.srv.Do(context.WithValue(context.Background(), callKey{}, c), b.sqls[i])
	d := time.Since(t0)
	tr.end(c.span)
	lg.attempted++
	if err != nil {
		lg.errs = append(lg.errs, fmt.Errorf("query %d: %w", i, err))
		return
	}
	lg.lat = append(lg.lat, ms(d))
	lg.queries = append(lg.queries, i)
	lg.results = append(lg.results, rep)
}

// reorganizeOnline runs one online reorganization through the server's
// drain barrier under a reorg span; the backend's own Reorganize is its
// backend.reorg child, so the reorg span's self time is the drain.
func (b *bench) reorganizeOnline(st *served, tr *tracer, parent int, lg *sessionLog) {
	rs := tr.begin("reorg", parent, -1)
	st.backend.reorgSpan = rs
	err := st.srv.Reorganize()
	tr.end(rs)
	lg.attempted++
	if err != nil {
		lg.errs = append(lg.errs, fmt.Errorf("reorganize: %w", err))
	}
}

// servedLoop sets the stack up setupRounds times (timing each), warms it,
// then runs the sessions' segments for the run's seconds. The traced
// section spans the warm-up and the sessions; the end-to-end metrics come
// from the sessions alone.
func (b *bench) servedLoop(tr *tracer, ref []uint64) (*loop, error) {
	l := &loop{}
	var st *served
	for i := 0; i < setupRounds; i++ {
		if st != nil {
			st.srv.Close()
			st = nil
		}
		runtime.GC() // as timedSetup: the previous stack is unreachable
		sp := tr.begin("setup", noSpan, -1)
		s, err := b.newServed(tr)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		st = s
		l.setup = append(l.setup, s.setup.Seconds())
	}
	defer st.srv.Close()
	st.srv.SetReorgHook(st.sys.InvalidateReuse)
	var probe execProbe
	if tr != nil {
		probe.attach(st.sys)
		l.acc.generate = append(l.acc.generate, st.generate.Seconds())
		l.acc.logBytes = st.logBytes
	}

	e0 := probe.read()
	ws := tr.begin("workload", noSpan, -1)
	var warm sessionLog
	for i := range b.sqls {
		if i > 0 && i%3 == 0 {
			b.reorganizeOnline(st, tr, ws, &warm)
		}
		b.submit(st, tr, ws, i, &warm)
	}

	// The System keeps a report per query, so the heap at the end of the
	// sessions grows with throughput; the retained heap is read here, after
	// the same 32-query stream the other workloads end with.
	l.retained = retainedHeap()

	draws := make([]func() int, sessions)
	for i := range draws {
		draws[i] = queryDraws(b.opt.seed, i, len(b.sqls))
	}
	// The timed section alternates segments: paced ones give the latency,
	// closed-loop ones the throughput, each over its quiet segments. The
	// first segment, a closed-loop one, is not measured: it pays for
	// collecting the warm-up's garbage. The paced segments must hold
	// minQueries samples even if only a quarter of them are quiet.
	m0 := readMem()
	var paced, closed []segment
	logs := []sessionLog{warm}
	pacedN := 0
	start := time.Now()
	for seg := 0; seg < 3 || time.Since(start) < b.deadline() || pacedN < 4*minQueries; seg++ {
		var interval time.Duration
		if seg%2 == 1 {
			interval = time.Second / pacedRate * sessions
		}
		sg := b.runSegment(st, tr, ws, draws, interval)
		logs = append(logs, sg.logs...)
		switch {
		case seg == 0:
		case seg%2 == 1:
			paced = append(paced, sg)
			pacedN += sg.completed()
		default:
			closed = append(closed, sg)
		}
	}
	l.mem.addDelta(m0, readMem())
	tr.end(ws)
	for _, sg := range quiet(paced) {
		for _, lg := range sg.logs {
			l.lat = append(l.lat, lg.lat...)
		}
	}
	for _, sg := range quiet(closed) {
		l.rates = append(l.rates, float64(sg.completed())/sg.wall.Seconds())
	}

	chk := newChecker(ref, b.res)
	a := &l.acc
	for k, lg := range logs {
		b.res.attempted += lg.attempted
		b.res.failed += len(lg.errs)
		for _, err := range lg.errs {
			b.res.checkErr(err, "served")
		}
		for j, i := range lg.queries {
			rep := lg.results[j]
			chk.answer(i, rep)
			a.usedViews += len(rep.UsedViews)
			a.created += rep.NewViews
			a.xferBytes += rep.TransferBytes
		}
		a.queries += len(lg.queries)
		if k > 0 {
			l.queries += len(lg.lat)
		}
	}
	b.res.checkErr(st.sys.CheckInvariants(), "CheckInvariants")
	m := st.srv.Metrics()
	b.res.checkErr(m.Check(), "serve metrics")
	if tr != nil {
		a.exec = probe.read().sub(e0)
		a.shed = m.Sheds
		a.reuse = st.sys.ReuseStats()
		a.passState(st.sys, nil)
	}
	l.cat = st.sys.Catalog()
	return l, nil
}

// segment is what the sessions observed in one timed segment.
type segment struct {
	logs  []sessionLog
	wall  time.Duration
	steal float64 // share of the machine's CPU time its hypervisor stole
}

func (sg segment) completed() int {
	n := 0
	for _, lg := range sg.logs {
		n += len(lg.lat)
	}
	return n
}

// runSegment runs the sessions for one segment, session i drawing its
// queries from draws[i]. With a zero interval each session sends its next
// query as soon as the last one returns. Otherwise each sends one query
// every interval, session i offset by i*interval/sessions; a session that
// falls behind its schedule sends at once.
func (b *bench) runSegment(st *served, tr *tracer, parent int, draws []func() int, interval time.Duration) segment {
	sg := segment{logs: make([]sessionLog, len(draws))}
	steal0, total0, ok0 := cpuTimes()
	start := time.Now()
	stop := start.Add(segmentLen)
	var wg sync.WaitGroup
	for i := range sg.logs {
		wg.Add(1)
		go func(i int, lg *sessionLog) {
			defer wg.Done()
			next := start.Add(interval * time.Duration(i) / time.Duration(len(draws)))
			for time.Now().Before(stop) {
				if interval > 0 {
					time.Sleep(time.Until(next))
					next = next.Add(interval)
				}
				b.submit(st, tr, parent, draws[i](), lg)
			}
		}(i, &sg.logs[i])
	}
	wg.Wait()
	sg.wall = time.Since(start)
	if steal1, total1, ok := cpuTimes(); ok0 && ok && total1 > total0 {
		sg.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	return sg
}

// quiet returns the segments in which the hypervisor stole no more of the
// machine's CPU time than in the segment at the first quartile: at least a
// quarter of them, and all of them on a host that steals nothing. Steal
// comes in bursts of seconds, and a query caught by one waits out the
// host's time slice: on the 2-vCPU VM the benchmark was sized on, runs
// with 0.7% and 11% steal read a paced p95 of 0.65 and 1.19 ms over all
// segments, and 0.61 and 0.83 ms over the quiet ones.
func quiet(segs []segment) []segment {
	steal := make([]float64, len(segs))
	for i, sg := range segs {
		steal[i] = sg.steal
	}
	q := summarize(steal).quantile(0.25)
	var out []segment
	for _, sg := range segs {
		if sg.steal <= q {
			out = append(out, sg)
		}
	}
	return out
}

var _ serve.Backend = (*timedBackend)(nil)
