package main

import (
	"context"
	"runtime"
	"time"

	"miso/internal/multistore"
	"miso/internal/storage"
)

// loop is what one measurement loop (untraced or traced) observed.
type loop struct {
	setup     []float64 // set-up seconds, one per system built
	lat       []float64 // query wall times, ms
	rates     []float64 // queries per second of each pass or segment
	appendMS  []float64 // AppendToLog wall times
	recoverMS []float64 // Recover wall times
	queries   int       // completed queries
	mem       memSnap   // allocation over the timed sections
	retained  float64   // MB live after GC, system still reachable
	tti       float64   // simulated TTI of every pass (they must agree)
	digest    uint64    // StateDigest of every pass (they must agree)
	acc       layerAcc  // traced counters
	cat       *storage.Catalog
}

// keepGoing reports whether a pass loop should run another pass: until
// the run's seconds have elapsed and there are enough query samples.
func (b *bench) keepGoing(start time.Time, l *loop) bool {
	return time.Since(start) < b.deadline() || len(l.lat) < minQueries
}

// runEvolving measures the paper's TTI experiment: the 32-query evolving
// stream on a fresh MS-MISO system per pass, one closed-loop client,
// reuse, durability and faults off.
func runEvolving(b *bench) (plain, traced *loop, err error) {
	ref, err := b.reference(nil)
	if err != nil {
		return nil, nil, err
	}
	if plain, err = b.evolvingLoop(nil, ref); err != nil || b.tr == nil {
		return plain, nil, err
	}
	traced, err = b.evolvingLoop(b.tr, ref)
	return plain, traced, err
}

// evolvingLoop runs passes until the run's time is up. Traced passes
// replace the automatic reorganization schedule by explicit Reorganize
// calls at the same points, so reorganizations can be timed.
func (b *bench) evolvingLoop(tr *tracer, ref []uint64) (*loop, error) {
	l := &loop{}
	var last *system
	start := time.Now()
	for pass := 0; pass == 0 || b.keepGoing(start, l); pass++ {
		last = nil
		s, err := b.timedSetup(tr, func(c *multistore.Config) {
			if tr != nil {
				c.ReorgEvery = 0
			}
		})
		if err != nil {
			return nil, err
		}
		l.setup = append(l.setup, s.setup.Seconds())
		var probe execProbe
		if tr != nil {
			probe.attach(s.sys)
			l.acc.generate = append(l.acc.generate, s.generate.Seconds())
			l.acc.logBytes = s.logBytes
		}
		chk := newChecker(ref, b.res)
		m0 := readMem()
		t0 := time.Now()
		ws := tr.begin("workload", noSpan, -1)
		for i := range b.sqls {
			if tr != nil && i > 0 && i%3 == 0 {
				b.reorganize(tr, ws, s.sys)
			}
			rep, d, err := b.query(tr, ws, i, s.sys, &probe, &l.acc)
			l.lat = append(l.lat, ms(d))
			if err == nil {
				l.queries++
				chk.answer(i, rep)
			}
		}
		tr.end(ws)
		wall := time.Since(t0)
		l.mem.addDelta(m0, readMem())
		l.rates = append(l.rates, float64(len(b.sqls))/wall.Seconds())
		b.endPass(l, pass, s.sys)
		if tr != nil {
			l.acc.passState(s.sys, s.sys.Reports())
		}
		last = s
	}
	l.retained = retainedHeap()
	l.cat = last.sys.Catalog()
	return l, nil
}

// timedSetup collects the garbage earlier work left, then sets a system up
// under a setup span. The previous pass's system must be unreachable by
// then, so that the set-up time does not include collecting it.
func (b *bench) timedSetup(tr *tracer, mod func(*multistore.Config)) (*system, error) {
	runtime.GC()
	sp := tr.begin("setup", noSpan, -1)
	s, err := b.newSystem(mod)
	tr.end(sp)
	return s, err
}

// query runs query i on sys under a query span and a backend span and,
// when traced, attributes the exec operator time it accrued as exec.hv /
// exec.dw child spans of the backend span. The System serializes queries,
// so single-stream deltas belong to this query alone.
func (b *bench) query(tr *tracer, parent, i int, sys *multistore.System, probe *execProbe, acc *layerAcc) (*multistore.QueryReport, time.Duration, error) {
	var e0 execSnap
	if tr != nil {
		e0 = probe.read()
	}
	qs := tr.begin("query", parent, i)
	t0 := time.Now()
	rep, bs, err := backendCall(tr, qs, i, func() (*multistore.QueryReport, error) {
		return sys.RunContext(context.Background(), b.sqls[i])
	})
	d := time.Since(t0)
	tr.end(qs)
	b.op(err)
	b.res.checkErr(err, "query")
	if tr != nil {
		delta := probe.read().sub(e0)
		fits := tr.child("exec.dw", bs, i, delta.dw, 0) && tr.child("exec.hv", bs, i, delta.hv, delta.dw)
		b.res.check(fits, "query %d: exec operator time %v exceeds its backend call's wall time", i, delta.hv+delta.dw)
		acc.exec.add(delta)
		if err == nil {
			acc.queries++
		}
	}
	return rep, d, err
}

// reorganize runs one explicit System.Reorganize under a reorg span.
func (b *bench) reorganize(tr *tracer, parent int, sys *multistore.System) {
	rs := tr.begin("reorg", parent, -1)
	err := sys.Reorganize()
	tr.end(rs)
	b.op(err)
	b.res.checkErr(err, "reorganize")
}

// endPass checks a finished pass: the system's invariants hold, and its
// simulated TTI and StateDigest equal every earlier pass's — same seed,
// same inputs, same answers.
func (b *bench) endPass(l *loop, pass int, sys *multistore.System) {
	b.res.checkErr(sys.CheckInvariants(), "CheckInvariants")
	tti, digest := sys.Metrics().TTI(), sys.StateDigest()
	if pass == 0 {
		l.tti, l.digest = tti, digest
		return
	}
	b.res.check(tti == l.tti, "pass %d TTI %v differs from pass 0 %v", pass, tti, l.tti)
	b.res.check(digest == l.digest, "pass %d StateDigest %016x differs from pass 0 %016x", pass, digest, l.digest)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
