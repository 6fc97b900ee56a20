package main

import (
	"time"
)

// reportSamples adds the end-to-end metrics of an untraced loop, and the
// workload-specific figures it has as notes.
func (b *bench) reportSamples(s *loop) {
	q := float64(max(s.queries, 1))
	b.res.report("setup_s", median(s.setup), len(s.setup))
	b.res.report("throughput_qps", median(s.rates), len(s.rates))
	b.res.timing("query", s.lat, 0.95)
	b.res.report("alloc_mb_per_query", float64(s.mem.alloc)/1e6/q, s.queries)
	b.res.report("retained_heap_mb", s.retained, 0)
	b.res.report("error_rate", b.res.errorRate(), b.res.attempted)
	if s.tti != 0 {
		b.res.report("tti_sim_s", s.tti, 0)
	}
	if len(s.appendMS) > 0 {
		b.res.timing("append", s.appendMS)
	}
	if len(s.recoverMS) > 0 {
		b.res.report("recover_ms", median(s.recoverMS), len(s.recoverMS))
	}
}

// reportLayers adds the per-layer metrics of a traced loop: layer times
// from its spans, everything else from counters no span covers. plain is
// the untraced loop of the same run, the base of the tracing overhead and
// of the Go runtime counters.
func (b *bench) reportLayers(plain, traced *loop, spans []span) {
	a := &traced.acc
	r := b.res
	st := spanTimes(spans)
	// Shares are of the clients' call time: the summed spans of the calls
	// made into the system. On the single-stream workloads that is the
	// traced section's wall time; served-repeat's two sessions add theirs.
	calls := st["query"].total + st["reorg"].total + st["append"].total + st["recover"].total
	q := float64(max(a.queries, 1))
	passes := float64(max(a.passes, 1))
	share := func(d time.Duration) float64 { return ratio(d, calls) }
	perQuery := func(d time.Duration) float64 { return d.Seconds() / q }
	mb := func(n int64) float64 { return float64(n) / 1e6 }
	// note reports a span name's median duration, when it has spans.
	note := func(metric string, s spanStat, xs []float64) {
		if s.n > 0 {
			r.report(metric, median(xs), s.n)
		}
	}

	r.report("data.generate_s", median(a.generate), len(a.generate))
	r.report("data.log_mb", mb(a.logBytes), 0)

	r.report("exec.hv.extract_s", perQuery(a.exec.hvOp["extract"]), a.queries)
	r.report("exec.hv.extract_rows", float64(a.exec.hvRows["extract"])/q, a.queries)
	r.report("exec.hv.filter_s", perQuery(a.exec.hvOp["filter"]), a.queries)
	r.report("exec.hv.join_s", perQuery(a.exec.hvOp["join"]), a.queries)
	r.report("exec.hv.aggregate_s", perQuery(a.exec.hvOp["aggregate"]), a.queries)
	r.report("exec.hv.total_s", perQuery(a.exec.hv), a.queries)
	r.report("exec.dw.total_s", perQuery(a.exec.dw), a.queries)
	r.report("exec.share", share(a.exec.hv+a.exec.dw), 0)

	// Multistore self time is backend time outside exec operators. Single-
	// stream runs lay each call's operator time under its backend span, so
	// the backend spans' self time excludes it; the concurrent calls of
	// served-repeat cannot be told apart, so their operator time is taken
	// off in total. Every operator runs inside a backend call, so a
	// negative remainder is a measuring fault.
	backend, hit := st["backend"], st["backend.hit"]
	unplaced := a.exec.hv + a.exec.dw - st["exec.hv"].total - st["exec.dw"].total
	self := backend.self + hit.self - unplaced
	r.check(self >= 0, "multistore self time %v is negative: exec operator time exceeds backend time", self)
	r.report("multistore.query_self_ms", ms(self)/q, a.queries)
	r.report("multistore.self_share", share(self), 0)
	r.report("multistore.append_share", share(st["append"].total), st["append"].n)
	r.report("multistore.views_dropped", float64(a.viewsDropped)/passes, a.passes)
	note("multistore.append_ms", st["append"], st["append"].durMS)

	parse, build, n, err := b.planProbe(traced.cat)
	r.checkErr(err, "plan probe")
	r.report("sqlparser.parse_us", parse, n)
	r.report("logical.build_us", build, n)

	reorg := st["reorg"]
	r.report("core.reorg_share", share(reorg.total), reorg.n)
	r.report("core.reorgs", float64(a.reorgs)/passes, a.passes)
	r.report("core.views_moved", float64(a.viewsMoved)/passes, a.passes)
	r.report("core.moved_mb", mb(a.movedBytes)/passes, a.passes)
	note("core.reorg_ms", reorg, reorg.durMS)
	if reorg.n > 0 {
		r.report("core.reorg_total_s", reorg.total.Seconds(), reorg.n)
	}

	r.report("views.used_per_query", float64(a.usedViews)/q, a.queries)
	r.report("views.created", float64(a.created)/passes, a.passes)
	r.report("hv.view_mb", mb(a.hvBytes)/passes, a.passes)
	r.report("dw.view_mb", mb(a.dwBytes)/passes, a.passes)
	r.report("transfer.mb", mb(a.xferBytes)/passes, a.passes)

	c := a.reuse.Cache
	hitRate := 0.0
	if lookups := c.Hits + c.Misses; lookups > 0 {
		hitRate = float64(c.Hits) / float64(lookups)
	}
	r.report("mqo.hit_rate", hitRate, c.Hits+c.Misses)
	r.report("mqo.piggybacked", float64(a.reuse.Flight.Shared), 0)
	r.report("mqo.invalidations", float64(c.Invalidations), 0)
	r.report("mqo.evictions", float64(c.Evictions), 0)
	r.report("mqo.cache_mb", mb(c.Bytes), 0)
	r.report("mqo.hit_share", ratio(hit.total, hit.total+backend.total), hit.n)
	if hit.n > 0 {
		note("mqo.hit_ms", hit, hit.durMS)
		note("mqo.miss_ms", backend, backend.durMS)
	}

	// A query span's self time is the part of Do outside the backend call.
	query := st["query"]
	r.report("serve.queue_share", ratio(query.self, query.total), query.n)
	r.report("serve.shed", float64(a.shed), 0)
	if b.opt.workload == wServed {
		note("serve.queue_ms", query, query.selfMS)
		note("serve.drain_ms", reorg, reorg.selfMS)
	}

	r.report("durability.wal_records", float64(a.walRecords)/passes, a.passes)
	r.report("durability.wal_mb", mb(a.walBytes)/passes, a.passes)
	r.report("durability.checkpoints", float64(a.checkpoints)/passes, a.passes)
	r.report("durability.replayed_records", float64(a.replayed)/passes, a.passes)
	r.report("durability.recover_share", share(st["recover"].total), st["recover"].n)

	pq := float64(max(plain.queries, 1))
	r.report("go.gc_cpu_frac", gcCPUFraction(), 0)
	r.report("go.mallocs_per_query", float64(plain.mem.mallocs)/pq, plain.queries)
	r.report("go.gc_cycles", float64(plain.mem.gcs)*1000/pq, plain.queries)

	// Wall time per query is taken as the inverse of throughput_qps: on
	// served-repeat the timed section also holds the paced segments' idle
	// time.
	r.report("trace.overhead_frac", median(plain.rates)/median(traced.rates)-1, traced.queries)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return a.Seconds() / b.Seconds()
}
