package multistore

import (
	"context"
	"fmt"

	"miso/internal/core"
	"miso/internal/durability"
	"miso/internal/faults"
	"miso/internal/history"
	"miso/internal/hv"
	"miso/internal/logical"
	"miso/internal/optimizer"
	"miso/internal/storage"
	"miso/internal/transfer"
	"miso/internal/views"
)

// runHVOnly executes the whole query in HV and retains no views.
func (s *System) runHVOnly(ctx context.Context, e history.Entry) (*QueryReport, error) {
	rep, err := s.runInHV(ctx, e, e.Plan, &QueryReport{Seq: e.Seq, SQL: e.SQL})
	if err != nil {
		return nil, err
	}
	s.hv.Views.Reset()
	return rep, nil
}

// runHVOp executes in HV, reusing and retaining opportunistic views under
// an LRU policy within the HV storage budget.
func (s *System) runHVOp(ctx context.Context, e history.Entry) (*QueryReport, error) {
	plan := optimizer.RewriteWithViews(e.Plan, s.hv.Views)
	rep, err := s.runInHV(ctx, e, plan, &QueryReport{Seq: e.Seq, SQL: e.SQL})
	if err != nil {
		return nil, err
	}
	views.EvictLRU(s.hv.Views, s.cfg.Tuner.Bh)
	return rep, nil
}

// runInHV executes plan entirely in HV and books it into rep: the
// execution is charged to HVEXE and its stage retries to RECOVERY, the
// views it reads are marked used, and a governed abort is booked by
// abandon.
func (s *System) runInHV(ctx context.Context, e history.Entry, plan *logical.Node, rep *QueryReport) (*QueryReport, error) {
	res, err := s.hv.ExecuteContext(ctx, plan, e.Seq)
	if err != nil {
		if isAbortErr(err) {
			return nil, s.abandon(err, rep, e.Seq)
		}
		return nil, fmt.Errorf("multistore: query %d in HV: %w", e.Seq, err)
	}
	rep.HVSeconds = res.Seconds
	rep.RecoverySeconds = res.RecoverySeconds
	rep.Retries = res.Retries
	rep.HVOps = countOps(plan)
	rep.HVOnly = true
	rep.NewViews = len(res.NewViews)
	rep.UsedViews = s.markUsedViews(plan, e.Seq)
	rep.ResultRows = res.Table.NumRows()
	rep.Result = res.Table
	s.metrics.HVExe += res.Seconds
	s.addRecovery(res.RecoverySeconds, res.Retries)
	return rep, nil
}

// runDWOnly serves the query entirely from DW after the one-time ETL.
func (s *System) runDWOnly(ctx context.Context, e history.Entry) (*QueryReport, error) {
	if !s.etlDone {
		if err := s.runETL(); err != nil {
			return nil, err
		}
		s.etlDone = true
	}
	plan := optimizer.RewriteWithViews(e.Plan, s.dw.Views)
	if hasRawScan(plan) {
		return nil, fmt.Errorf("multistore: DW-ONLY query %d not covered by the ETL'd data", e.Seq)
	}
	res, err := s.dw.ExecuteContext(ctx, plan)
	if err != nil {
		if isAbortErr(err) {
			return nil, s.abandon(err, &QueryReport{}, e.Seq)
		}
		return nil, fmt.Errorf("multistore: query %d in DW: %w", e.Seq, err)
	}
	rep := &QueryReport{
		Seq: e.Seq, SQL: e.SQL,
		DWSeconds:  res.Seconds,
		DWOps:      countOps(plan),
		BypassedHV: true,
		ResultRows: res.Table.NumRows(),
		Result:     res.Table,
	}
	// DW-ONLY has no other store to degrade to: injected query failures
	// retry in place and exhaustion fails the query.
	if err := s.simulateDWQuery(ctx, res.Seconds, rep); err != nil {
		return nil, fmt.Errorf("multistore: query %d in DW: %w", e.Seq, err)
	}
	rep.UsedViews = s.markUsedViews(plan, e.Seq)
	s.metrics.DWExe += res.Seconds
	s.addRecovery(rep.RecoverySeconds, rep.Retries)
	return rep, nil
}

// runMultistore executes the optimizer's chosen split plan. Migrated
// working sets live in DW temp space for the duration of the query only,
// unless retain keeps them: when non-nil it is called with each cut's
// working set once its transfer commits. HV by-products accumulate in the
// store and callers that do not retain them (MS-BASIC, MS-OFF, MS-LRU)
// reset or trim the HV view set afterwards.
func (s *System) runMultistore(ctx context.Context, e history.Entry, d optimizer.Design, retain func(seq int, cut *logical.Node, t *storage.Table)) (*QueryReport, error) {
	mp, err := s.opt.Choose(e.Plan, d)
	if err != nil {
		return nil, err
	}
	rep := &QueryReport{Seq: e.Seq, SQL: e.SQL}
	if mp.HVOnly {
		return s.runInHV(ctx, e, mp.HVPlan, rep)
	}

	bypassed := true
	for _, cut := range mp.Cuts {
		if cut.DWView != nil {
			continue // answered directly from a DW-resident view
		}
		bypassed = false
		// Subresult reuse: a cut whose base-data definition is resident in
		// the semantic cache skips HV execution entirely — the migrated
		// working set comes from the digest-verified cached table at zero
		// HV cost. The transfer and staging below still run: the working
		// set must still reach DW temp space either way.
		cfp, cok := s.cutFingerprint(cut.Node)
		var res *hv.Result
		if cok {
			if t, ok := s.reuse.cache.Get(cfp); ok {
				res = &hv.Result{Table: t}
				rep.SubplanHits++
				s.metrics.SubplanHits++
			}
		}
		if res == nil {
			var err error
			res, err = s.hv.ExecuteContext(ctx, cut.HVPlan, e.Seq)
			if err != nil {
				if isAbortErr(err) {
					return nil, s.abandon(err, rep, e.Seq)
				}
				return nil, fmt.Errorf("multistore: query %d in HV: %w", e.Seq, err)
			}
			rep.HVSeconds += res.Seconds
			rep.RecoverySeconds += res.RecoverySeconds
			rep.Retries += res.Retries
			rep.HVOps += countOps(cut.HVPlan)
			rep.NewViews += len(res.NewViews)
			rep.UsedViews = append(rep.UsedViews, s.markUsedViews(cut.HVPlan, e.Seq)...)
			if cok {
				// Chain boundary: the freshly computed working set becomes
				// a cached subresult for later cuts and queries.
				s.reuse.cache.Put(cfp, res.Table)
			}
		}

		// Deadline checkpoint before committing to the transfer: an
		// abandoned query must not consume injector draws the sequential
		// path would have used differently.
		if ctx.Err() != nil {
			return nil, s.abandon(ctx.Err(), rep, e.Seq)
		}
		bytes := res.Table.LogicalBytes()
		sum := storage.ChecksumTable(res.Table)
		if err := s.journal(&durability.Record{
			Kind: durability.KindTransferBegin, Name: cut.TempName,
			Seq: int64(e.Seq), Bytes: bytes, Checksum: sum,
		}); err != nil {
			return nil, err
		}
		if failed, _ := s.inj.Check(faults.SiteCrashTransfer); failed {
			return nil, fmt.Errorf("multistore: query %d transfer: %w", e.Seq, faults.Crash(faults.SiteCrashTransfer))
		}
		mv, mvErr := transfer.MoveContext(ctx, s.cfg.Transfer, bytes, transfer.KindWorkingSet, s.inj, s.retry, s.qbud)
		rep.Retries += mv.Retries
		if mvErr != nil {
			// The move aborted: everything it paid is wasted. Degrade
			// gracefully by completing the query entirely in HV.
			rep.RecoverySeconds += mv.WastedSeconds()
			if err := s.journal(&durability.Record{
				Kind: durability.KindTransferAbort, Name: cut.TempName, Seq: int64(e.Seq),
			}); err != nil {
				return nil, err
			}
			return s.fallbackHV(ctx, e, rep, mvErr)
		}
		// Load-time integrity check: the working set's checksum is
		// verified as DW stages it. Injected corruption means the bytes
		// were damaged in flight — the whole move is wasted and the query
		// degrades to HV (the cause is ErrCorrupt, not exhaustion, so the
		// serving layer's circuit breaker ignores it).
		if failed, _ := s.inj.Check(faults.SiteViewCorrupt); failed {
			rep.RecoverySeconds += mv.Breakdown.Total() + mv.RecoverySeconds
			if err := s.journal(&durability.Record{
				Kind: durability.KindTransferAbort, Name: cut.TempName, Seq: int64(e.Seq),
			}); err != nil {
				return nil, err
			}
			return s.fallbackHV(ctx, e, rep, faults.Corrupt(cut.TempName))
		}
		rep.RecoverySeconds += mv.RecoverySeconds
		rep.TransferBytes += bytes
		rep.TransferSeconds += mv.Breakdown.Total()
		s.dw.StageTemp(cut.TempName, res.Table)
		if err := s.journal(&durability.Record{
			Kind: durability.KindTransferCommit, Name: cut.TempName, Seq: int64(e.Seq),
		}); err != nil {
			return nil, err
		}
		if retain != nil {
			retain(e.Seq, cut.Node, res.Table)
		}
	}
	rep.BypassedHV = bypassed

	if ctx.Err() != nil {
		return nil, s.abandon(ctx.Err(), rep, e.Seq)
	}
	dwRes, hr, err := s.executeDWHedged(ctx, e, mp.DWPart)
	if err != nil {
		hr.discard()
		if isAbortErr(err) {
			return nil, s.abandon(err, rep, e.Seq)
		}
		return nil, fmt.Errorf("multistore: query %d in DW: %w", e.Seq, err)
	}
	if err := s.simulateDWQuery(ctx, dwRes.Seconds, rep); err != nil {
		// DW gave out mid-query: degrade to HV. If the hedge shadow
		// already computed the fallback plan, commit it in place of the
		// serial re-execution (byte-identical state, wall-clock saved); a
		// shadow that failed or never started falls through to the serial
		// path, which replays exactly the draws an unhedged run would.
		if p, perr, ok := hr.await(); ok {
			if perr == nil {
				return s.fallbackFromPending(ctx, e, rep, err, p)
			}
			s.metrics.HedgesCanceled++
		}
		return s.fallbackHV(ctx, e, rep, err)
	}
	if hr.discard() {
		s.metrics.HedgesCanceled++
	}
	rep.DWSeconds = dwRes.Seconds
	rep.DWOps = countOps(mp.DWPart)
	rep.ResultRows = dwRes.Table.NumRows()
	rep.Result = dwRes.Table
	rep.UsedViews = append(rep.UsedViews, s.markUsedViews(mp.DWPart, e.Seq)...)
	s.dw.ClearTemp()

	s.metrics.HVExe += rep.HVSeconds
	s.metrics.Transfer += rep.TransferSeconds
	s.metrics.DWExe += rep.DWSeconds
	s.addRecovery(rep.RecoverySeconds, rep.Retries)
	return rep, nil
}

// simulateDWQuery replays injected DW-side failures for a query that took
// sec seconds: each failure wastes the completed fraction plus a backoff,
// and giving up — per-phase retry exhaustion, a dead deadline, or a dry
// retry budget — returns the typed fault error (the caller decides whether
// to degrade to HV). Returns nil when the query eventually sticks.
func (s *System) simulateDWQuery(ctx context.Context, sec float64, rep *QueryReport) error {
	if !s.inj.Enabled() {
		return nil
	}
	for attempt := 1; ; attempt++ {
		failed, frac := s.inj.Check(faults.SiteDWQuery)
		if !failed {
			return nil
		}
		rep.Retries++
		rep.RecoverySeconds += frac*sec + s.retry.Backoff(attempt)
		f := &faults.Fault{Site: faults.SiteDWQuery, Op: "dw query", Attempt: attempt}
		switch {
		case attempt >= s.retry.MaxAttempts:
			return faults.Exhausted(f)
		case ctx.Err() != nil:
			return fmt.Errorf("abandoned before retry: %w", ctx.Err())
		case !s.qbud.Take():
			return faults.BudgetExhausted(f)
		}
	}
}

// fallbackHV completes a query entirely in HV after its multistore plan
// failed mid-flight (aborted transfer or exhausted DW retries). Time
// already paid stays in its component; the fallback execution itself is
// the penalty, charged to RECOVERY. This is the graceful-degradation path:
// HV always holds the base logs, so any query can complete there.
func (s *System) fallbackHV(ctx context.Context, e history.Entry, rep *QueryReport, cause error) (*QueryReport, error) {
	s.dw.ClearTemp()
	plan := optimizer.RewriteWithViews(e.Plan, s.hv.Views)
	res, err := s.hv.ExecuteContext(ctx, plan, e.Seq)
	if err != nil {
		if isAbortErr(err) {
			return nil, s.abandon(err, rep, e.Seq)
		}
		return nil, fmt.Errorf("multistore: query %d failed (%v) and its HV fallback failed too: %w", e.Seq, cause, err)
	}
	return s.bookFallback(e, rep, cause, plan, res), nil
}

// bookFallback charges a completed HV fallback execution — serial or a
// committed hedge shadow — into the report and the TTI breakdown.
func (s *System) bookFallback(e history.Entry, rep *QueryReport, cause error, plan *logical.Node, res *hv.Result) *QueryReport {
	rep.FellBackToHV = true
	rep.FallbackCause = cause
	rep.RecoverySeconds += res.Seconds + res.RecoverySeconds
	rep.Retries += res.Retries
	rep.NewViews += len(res.NewViews)
	rep.UsedViews = append(rep.UsedViews, s.markUsedViews(plan, e.Seq)...)
	rep.ResultRows = res.Table.NumRows()
	rep.Result = res.Table

	s.metrics.HVExe += rep.HVSeconds
	s.metrics.Transfer += rep.TransferSeconds
	s.metrics.DWExe += rep.DWSeconds
	s.addRecovery(rep.RecoverySeconds, rep.Retries)
	s.metrics.Fallbacks++
	return rep
}

// addRecovery accumulates recovery time and retry counts into the TTI
// breakdown.
func (s *System) addRecovery(sec float64, retries int) {
	s.metrics.Recovery += sec
	s.metrics.Retries += retries
}

// runMSLru is the passive tuner of the paper's Figure 7: it runs the same
// split plans as MS-MISO, but only the working sets transferred between
// the stores during query execution are retained, as DW-resident views
// under an LRU policy — an access-based cache with no benefit or
// interaction analysis. HV by-products are not retained (that would be
// HV-OP's mechanism, not passive transfer caching).
func (s *System) runMSLru(ctx context.Context, e history.Entry) (*QueryReport, error) {
	rep, err := s.runMultistore(ctx, e, s.design(), s.retainTransfer)
	if err != nil {
		return nil, err
	}
	if !rep.HVOnly {
		views.EvictLRU(s.dw.Views, s.cfg.Tuner.Bd)
	}
	s.hv.Views.Reset()
	return rep, nil
}

// retainTransfer is MS-LRU's passive retention: a transferred working set
// becomes a DW view keyed by its base-data definition.
func (s *System) retainTransfer(seq int, cut *logical.Node, t *storage.Table) {
	def := s.hv.ExpandViews(cut)
	if def == nil {
		return
	}
	v := views.New(def, t, seq)
	v.StampGenerations(func(name string) (int, bool) {
		log, err := s.cat.Log(name)
		if err != nil {
			return 0, false
		}
		return log.Generation, true
	})
	// A quarantine-tombstoned name must not resurrect through passive
	// retention any more than through capture.
	if !s.dw.Views.Has(v.Name) && !s.tombstoned(v.Name) {
		s.dw.Views.Add(v)
	}
}

// reorg runs the MISO tuner over the window and applies the view
// movements one at a time, charging their time to TUNE. Each move runs
// through the fault-injected transfer pipeline and commits atomically: a
// move that aborts (or whose catalog commit fails) is rolled back — the
// view stays in its source store when it still fits there, its Bt
// consumption is refunded, and Vh ∩ Vd = ∅ holds no matter which moves
// fail. Time lost to failed moves is charged to RECOVERY, not TUNE.
func (s *System) reorg(w *history.Window) error {
	// Invalidate the reuse cache before tuning: the phase is about to
	// rearrange the physical design, and the tuner's what-if costing must
	// probe an empty cache to stay deterministic.
	s.invalidateReuse()
	if err := s.journal(&durability.Record{Kind: durability.KindReorgBegin, Seq: int64(s.seq)}); err != nil {
		return err
	}
	tuner := core.NewTuner(s.cfg.Tuner, s.opt)
	r, err := tuner.Tune(s.design(), w)
	if err != nil {
		return fmt.Errorf("multistore: tuning: %w", err)
	}
	rec := ReorgRecord{BeforeSeq: s.seq, Dropped: len(r.DropHV)}
	bud := transfer.NewBudget(s.cfg.Tuner.Bt)
	// Each reorganization gets its own retry budget, sized like a query's:
	// the phase degrades (moves roll back) instead of amplifying a fault
	// storm, but one storm-hit reorg cannot starve later ones.
	rbud := faults.NewBudget(s.cfg.RetryBudget)

	// rollBack undoes one failed move: v stays in its source set (or is
	// dropped when the source has no room left) and its budget returns.
	rollBack := func(v *views.View, from *views.Set, limit int64, wasted float64) {
		bud.Refund(v.SizeBytes())
		rec.FailedMoves++
		rec.RefundedBytes += v.SizeBytes()
		rec.RecoverySeconds += wasted
		if from.TotalBytes()+v.SizeBytes() <= limit {
			from.Add(v)
		} else {
			rec.Dropped++
		}
	}

	apply := func(v *views.View, kind transfer.Kind, dst, src *views.Set, srcLimit int64) {
		size := v.SizeBytes()
		if err := bud.Spend(size); err != nil {
			// The tuner packs moves within Bt; treat any slack violation
			// as a skipped move rather than a failed reorganization.
			dst.Remove(v.Name)
			rollBack(v, src, srcLimit, 0)
			return
		}
		mv, mvErr := transfer.MoveContext(context.Background(), s.cfg.Transfer, size, kind, s.inj, s.retry, rbud)
		committed := mvErr == nil
		wasted := mv.WastedSeconds()
		if committed {
			// The catalog commit itself can fail: the fully transferred
			// view is discarded at the destination, atomically.
			if failed, _ := s.inj.Check(faults.SiteReorgMove); failed {
				committed = false
				wasted = mv.Breakdown.Total() + mv.RecoverySeconds
				mv.Retries++
			}
		}
		s.metrics.Retries += mv.Retries
		if !committed {
			dst.Remove(v.Name)
			rollBack(v, src, srcLimit, wasted)
			return
		}
		rec.RecoverySeconds += mv.RecoverySeconds
		rec.Seconds += mv.Breakdown.Total()
		rec.Bytes += size
		if kind == transfer.KindToHV {
			rec.MovedToHV++
		} else {
			rec.MovedToDW++
		}
	}

	for _, v := range r.MoveToDW {
		apply(v, transfer.KindPermanent, r.NewDW, r.NewHV, s.cfg.Tuner.Bh)
	}
	for _, v := range r.MoveToHV {
		apply(v, transfer.KindToHV, r.NewHV, r.NewDW, s.cfg.Tuner.Bd)
	}

	// Crash site: the moves above mutated only the candidate sets; dying
	// here leaves an open reorg window in the WAL (begin, no commit) and
	// the live design untouched, so recovery rolls the whole phase back.
	if failed, _ := s.inj.Check(faults.SiteCrashReorg); failed {
		return fmt.Errorf("multistore: reorg before query %d: %w", s.seq, faults.Crash(faults.SiteCrashReorg))
	}

	s.metrics.Tune += rec.Seconds
	s.metrics.Recovery += rec.RecoverySeconds
	s.hv.Views.ReplaceAll(r.NewHV)
	s.dw.Views.ReplaceAll(r.NewDW)
	// The tuner rebuilt the design from the surviving views, so quarantine
	// tombstones have served their purpose: any future materialization of
	// a tombstoned name is a legitimately fresh recomputation.
	s.tomb = nil
	s.metrics.Reorgs++
	s.reorgLog = append(s.reorgLog, rec)

	// Commit the reorg transaction: the design diff lands inside the
	// begin..commit window, so recovery applies it atomically — all of it
	// when the commit record is durable, none of it otherwise.
	if s.dur != nil {
		if err := s.journalDesignDiff(); err != nil {
			return err
		}
		if err := s.journal(&durability.Record{
			Kind:            durability.KindReorgCommit,
			Seq:             int64(rec.BeforeSeq),
			Bytes:           rec.Bytes,
			MovedToDW:       int64(rec.MovedToDW),
			MovedToHV:       int64(rec.MovedToHV),
			Dropped:         int64(rec.Dropped),
			FailedMoves:     int64(rec.FailedMoves),
			RefundedBytes:   rec.RefundedBytes,
			Seconds:         rec.Seconds,
			RecoverySeconds: rec.RecoverySeconds,
		}); err != nil {
			return err
		}
	}
	return nil
}

// journal appends one record to the WAL when durability is enabled.
func (s *System) journal(rec *durability.Record) error {
	if s.dur == nil {
		return nil
	}
	return s.dur.WAL().Append(rec)
}

// offlineTune (MS-OFF) models what a current offline design tool can do:
// analyze the whole workload up-front (a dry run whose data is discarded)
// and fix one target design. Views still only come into existence as
// by-products of real query execution; realizing a chosen DW placement is
// charged to TUNE when the view first appears.
func (s *System) offlineTune() error {
	if len(s.future) == 0 {
		return fmt.Errorf("multistore: MS-OFF requires ProvideFutureWorkload")
	}
	for _, e := range s.future {
		if _, err := s.hv.Execute(e.Plan, e.Seq); err != nil {
			return fmt.Errorf("multistore: offline analysis of query %d: %w", e.Seq, err)
		}
	}
	w := history.NewWindow(len(s.future), len(s.future), 1.0)
	for _, e := range s.future {
		w.Add(e)
	}
	tuner := core.NewTuner(s.cfg.Tuner, s.opt)
	r, err := tuner.Tune(s.design(), w)
	if err != nil {
		return err
	}
	s.offTargetHV = map[string]bool{}
	s.offTargetDW = map[string]bool{}
	for _, v := range r.NewHV.All() {
		s.offTargetHV[v.Name] = true
	}
	for _, v := range r.NewDW.All() {
		s.offTargetDW[v.Name] = true
	}
	// The dry run's materializations are analysis artifacts, not free
	// physical design: discard them.
	s.hv.Views.Reset()
	s.dw.Views.Reset()
	return nil
}

// trimHVToDesign enforces the fixed offline design after each query: new
// by-products that the design chose for DW are transferred (charged to
// TUNE and logged as a movement before the next query), ones chosen for HV
// are kept, everything else is dropped.
func (s *System) trimHVToDesign() {
	rec := ReorgRecord{BeforeSeq: s.seq + 1}
	rbud := faults.NewBudget(s.cfg.RetryBudget)
	for _, v := range s.hv.Views.All() {
		switch {
		case s.offTargetDW[v.Name]:
			if !s.dw.Views.Has(v.Name) {
				mv, mvErr := transfer.MoveContext(context.Background(), s.cfg.Transfer, v.SizeBytes(), transfer.KindPermanent, s.inj, s.retry, rbud)
				s.metrics.Retries += mv.Retries
				if mvErr != nil {
					// Rolled back: the view stays in HV and the design
					// realization retries after a later query.
					rec.FailedMoves++
					rec.RecoverySeconds += mv.WastedSeconds()
					continue
				}
				rec.RecoverySeconds += mv.RecoverySeconds
				rec.Seconds += mv.Breakdown.Total()
				rec.Bytes += v.SizeBytes()
				rec.MovedToDW++
				s.dw.Views.Add(v)
			}
			s.hv.Views.Remove(v.Name)
		case s.offTargetHV[v.Name]:
			// Keep.
		default:
			s.hv.Views.Remove(v.Name)
			rec.Dropped++
		}
	}
	views.EvictLRU(s.hv.Views, s.cfg.Tuner.Bh)
	if rec.MovedToDW > 0 || rec.FailedMoves > 0 {
		s.metrics.Tune += rec.Seconds
		s.metrics.Recovery += rec.RecoverySeconds
		s.reorgLog = append(s.reorgLog, rec)
	}
}

// markUsedViews bumps LastUsedSeq on every view the plan reads and returns
// their names.
func (s *System) markUsedViews(plan *logical.Node, seq int) []string {
	var used []string
	plan.Walk(func(n *logical.Node) {
		if n.Kind != logical.KindViewScan {
			return
		}
		if v, ok := s.hv.Views.Get(n.ViewName); ok {
			v.LastUsedSeq = seq
			used = append(used, n.ViewName)
			return
		}
		if v, ok := s.dw.Views.Get(n.ViewName); ok {
			v.LastUsedSeq = seq
			used = append(used, n.ViewName)
		}
	})
	return used
}

// countOps counts executable operators in a plan (Scan leaves excluded).
func countOps(plan *logical.Node) int {
	n := 0
	plan.Walk(func(m *logical.Node) {
		if m.Kind != logical.KindScan {
			n++
		}
	})
	return n
}

// hasRawScan reports whether the plan still reads raw logs.
func hasRawScan(plan *logical.Node) bool {
	found := false
	plan.Walk(func(n *logical.Node) {
		if n.Kind == logical.KindScan || n.Kind == logical.KindExtract {
			found = true
		}
	})
	return found
}
