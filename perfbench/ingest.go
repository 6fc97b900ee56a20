package main

import (
	"context"
	"fmt"
	"time"

	"miso/internal/data"
	"miso/internal/multistore"
	"miso/internal/storage"
)

// Ingest shape: before every appendEvery-th query, one batch of new lines
// goes to each appended log; a checkpoint is taken every checkpointEvery
// operations.
const (
	appendEvery     = 4
	checkpointEvery = 8
)

// appendedLogs are the logs the ingest workload appends to.
var appendedLogs = []string{data.TweetsLog, data.CheckinsLog}

// appendBatches generates the appended lines from a seed derived from the
// workload seed: batches[k][j] is batch k for appendedLogs[j]. A batch is
// 1/80 of the log, so one pass grows each log by about 9%.
func (b *bench) appendBatches() ([][][]string, error) {
	n := (len(b.sqls) - 1) / appendEvery
	per := b.data.NumTweets / 80
	dc := b.data
	dc.Seed = appendSeed(b.opt.seed)
	dc.NumTweets, dc.NumCheck = n*per, n*per
	cat, err := data.Generate(dc)
	if err != nil {
		return nil, fmt.Errorf("generating appended lines: %w", err)
	}
	out := make([][][]string, n)
	for j, name := range appendedLogs {
		log, err := cat.Log(name)
		if err != nil {
			return nil, err
		}
		for k := range out {
			if out[k] == nil {
				out[k] = make([][]string, len(appendedLogs))
			}
			out[k][j] = log.Lines[k*per : (k+1)*per]
		}
	}
	return out, nil
}

// runIngest measures reads beside writes: the evolving stream on MS-MISO
// with the durability plane and reuse on, interleaved with appends to the
// tweets and check-ins logs, each pass ending with crash recovery from
// the latest checkpoint plus the WAL. The automatic reorganization
// schedule stays on in the traced run too: an explicit Reorganize counts
// as a durability operation and would shift the checkpoint cadence.
func runIngest(b *bench) (plain, traced *loop, err error) {
	batches, err := b.appendBatches()
	if err != nil {
		return nil, nil, err
	}
	ref, err := b.reference(func(i int, sys *multistore.System) error {
		for j, lines := range appendsBefore(i, batches) {
			if _, err := sys.AppendToLog(appendedLogs[j], lines); err != nil {
				return fmt.Errorf("append to %s: %w", appendedLogs[j], err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if plain, err = b.ingestLoop(nil, ref, batches); err != nil || b.tr == nil {
		return plain, nil, err
	}
	traced, err = b.ingestLoop(b.tr, ref, batches)
	return plain, traced, err
}

// appendsBefore returns the batch due before query i, one set of lines
// per appended log, or nil.
func appendsBefore(i int, batches [][][]string) [][]string {
	if i == 0 || i%appendEvery != 0 || i/appendEvery > len(batches) {
		return nil
	}
	return batches[i/appendEvery-1]
}

// ingestLoop runs ingest passes until the run's time is up. The timed
// section of a pass is its queries, appends and recovery.
func (b *bench) ingestLoop(tr *tracer, ref []uint64, batches [][][]string) (*loop, error) {
	l := &loop{}
	probeIdx := len(b.sqls) - 1
	var last *system
	start := time.Now()
	for pass := 0; pass == 0 || b.keepGoing(start, l); pass++ {
		last = nil
		s, err := b.timedSetup(tr, func(c *multistore.Config) {
			c.CheckpointEvery = checkpointEvery
			c.Reuse = multistore.ReuseConfig{Enabled: true}
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
			for j, lines := range appendsBefore(i, batches) {
				as := tr.begin("append", ws, -1)
				a0 := time.Now()
				dropped, err := s.sys.AppendToLog(appendedLogs[j], lines)
				d := time.Since(a0)
				tr.end(as)
				b.op(err)
				b.res.checkErr(err, "append to "+appendedLogs[j])
				l.appendMS = append(l.appendMS, ms(d))
				l.acc.viewsDropped += dropped
			}
			rep, d, err := b.query(tr, ws, i, s.sys, &probe, &l.acc)
			l.lat = append(l.lat, ms(d))
			if err == nil {
				l.queries++
				chk.answer(i, rep)
			}
		}
		dur := s.sys.Durability()
		rs := tr.begin("recover", ws, -1)
		r0 := time.Now()
		rec, rrep, err := multistore.Recover(s.cfg, s.sys.Catalog(), dur.Latest(), dur.WAL())
		rd := time.Since(r0)
		tr.end(rs)
		tr.end(ws)
		wall := time.Since(t0)
		l.mem.addDelta(m0, readMem())
		b.endPass(l, pass, s.sys)
		if tr != nil {
			l.acc.passState(s.sys, s.sys.Reports())
			l.acc.reuse = s.sys.ReuseStats()
		}
		l.rates = append(l.rates, float64(len(b.sqls))/wall.Seconds())
		b.op(err)
		last = s
		if err != nil {
			b.res.checkErr(err, "recover")
			continue
		}
		l.recoverMS = append(l.recoverMS, ms(rd))
		l.acc.replayed += rrep.ReplayedRecords
		b.checkRecovered(s.sys, rec, probeIdx, ref[probeIdx])
	}
	l.retained = retainedHeap()
	l.cat = last.sys.Catalog()
	return l, nil
}

// checkRecovered checks a recovered system: its invariants hold and it
// answers the probe query as the live system and the reference do.
func (b *bench) checkRecovered(live, rec *multistore.System, i int, want uint64) {
	b.res.checkErr(rec.CheckInvariants(), "recovered CheckInvariants")
	ctx := context.Background()
	for _, side := range []struct {
		name string
		sys  *multistore.System
	}{{"live", live}, {"recovered", rec}} {
		rep, err := side.sys.RunContext(ctx, b.sqls[i])
		b.op(err)
		if err != nil {
			b.res.checkErr(err, side.name+" probe query")
			continue
		}
		got := storage.ChecksumData(rep.Result)
		b.res.check(got == want, "%s system answers probe query %d with digest %016x, reference %016x", side.name, i, got, want)
	}
}
