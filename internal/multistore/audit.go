package multistore

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"miso/internal/durability"
	"miso/internal/faults"
	"miso/internal/storage"
	"miso/internal/views"
)

// This file is the multistore side of the online integrity plane: the
// chunked per-view audit the background scrubber drives (internal/audit),
// the atomic system-invariant audit, the self-healing repair path, the
// quarantine tombstones that stop a quarantined name from resurrecting
// through opportunistic capture, and the SiteViewRot bit-rot hook.
//
// Every audit entry point takes s.mu, so one chunk observes the design
// either entirely before or entirely after any concurrent query or
// reorganization — never a torn mix. With no scrubber attached nothing
// here runs, no tombstone is allocated, and zero-rate rot draws no
// randomness, so audit-disabled runs stay byte-identical to a system with
// no audit plane at all.

// Audit invariant families (AuditViolation.Invariant).
const (
	// InvChecksum is a per-view FNV-64 content checksum mismatch against
	// the catalog's stamped value.
	InvChecksum = "checksum"
	// InvFreshness is a view whose base-log generation has advanced past
	// the one it was materialized from.
	InvFreshness = "freshness"
	// InvDisjoint is a violation of Vh ∩ Vd = ∅.
	InvDisjoint = "disjointness"
	// InvBudget is a storage- or transfer-budget conservation failure
	// (Bh/Bd overflow, or a reorg ledger entry outside [0, Bt] / negative
	// refunds).
	InvBudget = "budget"
	// InvAccounting is a negative TTI component or a query/report count
	// mismatch.
	InvAccounting = "accounting"
	// InvWAL is a WAL/state consistency failure: a torn tail, an open
	// reorganization window at an operation boundary, a durable view
	// payload that no longer matches its admit record, or a live placement
	// that contradicts the committed journal.
	InvWAL = "wal"
)

// AuditViolation is one detected integrity violation.
type AuditViolation struct {
	// Invariant is the violated family (Inv* constants).
	Invariant string
	// View names the offending view; empty for system-wide invariants.
	View string
	// Store tags where the view lived ("hv" or "dw"); empty otherwise.
	Store string
	// Detail describes the violation.
	Detail string
	// Repaired reports that the violation was self-healed online —
	// recomputed through the HV fallback path, re-journaled, or evicted
	// back under budget.
	Repaired bool
	// Quarantined reports that the view was removed from the design (and
	// tombstoned) because it could not be repaired.
	Quarantined bool
}

func (v AuditViolation) String() string {
	state := "detected"
	switch {
	case v.Repaired:
		state = "repaired"
	case v.Quarantined:
		state = "quarantined"
	}
	if v.View == "" {
		return fmt.Sprintf("%s: %s (%s)", v.Invariant, v.Detail, state)
	}
	return fmt.Sprintf("%s: view %s in %s: %s (%s)", v.Invariant, v.View, v.Store, v.Detail, state)
}

// AuditViews incrementally verifies the per-view invariants — content
// checksum and base-log freshness — over both stores' catalogs in sorted
// name order, resuming after cursor ("" starts a pass) and checking at
// most max views per call (<= 0 checks all). With repair set, a failing
// view is self-healed by recomputing its definition through the HV
// engine (the existing fallback path) with the estimated HV cost charged
// to RECOVERY; a view that cannot be recomputed is quarantined out of the
// design and tombstoned so opportunistic capture cannot resurrect the
// name before the next reorganization. The next cursor is "" once the
// walk has wrapped. The error return is reserved for a torn WAL append
// while journaling a repair (the process is then considered dead, as for
// any other torn append).
func (s *System) AuditViews(cursor string, max int, repair bool) ([]AuditViolation, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	type residency struct {
		set   *views.Set
		store byte
		tag   string
	}
	stores := []residency{
		{s.hv.Views, durability.StoreHV, "hv"},
		{s.dw.Views, durability.StoreDW, "dw"},
	}
	seen := map[string]bool{}
	names := make([]string, 0, s.hv.Views.Len()+s.dw.Views.Len())
	for _, st := range stores {
		for _, v := range st.set.All() {
			if !seen[v.Name] {
				seen[v.Name] = true
				names = append(names, v.Name)
			}
		}
	}
	sort.Strings(names)

	gen := s.catalogGen()
	var (
		viols       []AuditViolation
		next        string
		checked     int
		quarantined bool
	)
	for _, name := range names {
		if name <= cursor {
			continue
		}
		if max > 0 && checked >= max {
			next = cursor
			break
		}
		checked++
		cursor = name
		for _, st := range stores {
			v, ok := st.set.Get(name)
			if !ok {
				continue
			}
			var inv, detail string
			switch {
			case !v.Verify():
				inv, detail = InvChecksum, "content checksum mismatch"
			case v.Stale(gen):
				inv, detail = InvFreshness, "base log generation advanced"
			default:
				continue
			}
			viol := AuditViolation{Invariant: inv, View: name, Store: st.tag, Detail: detail}
			s.metrics.AuditViolations++
			if repair {
				rerr := s.repairView(v, st.set, st.store)
				switch {
				case rerr == nil:
					viol.Repaired = true
					s.metrics.AuditRepaired++
				case errors.Is(rerr, faults.ErrCrash):
					return append(viols, viol), cursor, rerr
				default:
					s.quarantineView(name, st.set)
					quarantined = true
					viol.Quarantined = true
					viol.Detail += "; " + rerr.Error()
					s.metrics.AuditUnrepaired++
				}
			}
			viols = append(viols, viol)
		}
	}
	if quarantined && s.dur != nil {
		// Quarantine is a placement change: persist the evictions now so a
		// crash cannot resurrect a quarantined view from the journal.
		if err := s.journalDesignDiff(); err != nil {
			return viols, next, err
		}
	}
	return viols, next, nil
}

// AuditInvariants verifies the system-wide invariants in one atomic
// critical section: Vh ∩ Vd disjointness, storage- and transfer-budget
// conservation, TTI accounting sanity, and WAL/state consistency. With
// repair set, a disjointness breach is healed by evicting the HV copy
// (the DW placement wins, matching the capture veto's semantics), a
// storage-budget overflow by LRU eviction back under budget, and a
// mismatched durable view payload by re-journaling the verified live
// copy (recomputing the live copy first when it has rotted too); ledger
// and accounting violations are report-only. The error return is
// reserved for a torn WAL append or an injected crash while journaling a
// repair.
func (s *System) AuditInvariants(repair bool) ([]AuditViolation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var viols []AuditViolation
	add := func(v AuditViolation) {
		s.metrics.AuditViolations++
		if v.Repaired {
			s.metrics.AuditRepaired++
		} else {
			s.metrics.AuditUnrepaired++
		}
		viols = append(viols, v)
	}

	// Vh ∩ Vd = ∅.
	changed := false
	for _, v := range s.hv.Views.All() {
		if !s.dw.Views.Has(v.Name) {
			continue
		}
		viol := AuditViolation{Invariant: InvDisjoint, View: v.Name, Store: "hv",
			Detail: "view resident in both stores"}
		if repair {
			s.hv.Views.Remove(v.Name)
			changed = true
			viol.Repaired = true
			viol.Detail += "; evicted HV copy, DW placement wins"
		}
		add(viol)
	}

	// Storage budgets.
	for _, b := range []struct {
		set   *views.Set
		tag   string
		limit int64
	}{{s.hv.Views, "hv", s.cfg.Tuner.Bh}, {s.dw.Views, "dw", s.cfg.Tuner.Bd}} {
		got := b.set.TotalBytes()
		if got <= b.limit {
			continue
		}
		viol := AuditViolation{Invariant: InvBudget, Store: b.tag,
			Detail: fmt.Sprintf("%s views %d bytes exceed budget %d", b.tag, got, b.limit)}
		if repair {
			evicted := views.EvictLRU(b.set, b.limit)
			changed = changed || len(evicted) > 0
			viol.Repaired = true
			viol.Detail += fmt.Sprintf("; evicted %d views back under budget", len(evicted))
		}
		add(viol)
	}

	// Transfer-budget conservation over the reorganization ledger.
	for _, rec := range s.reorgLog {
		switch {
		case rec.Bytes < 0 || rec.RefundedBytes < 0:
			add(AuditViolation{Invariant: InvBudget,
				Detail: fmt.Sprintf("reorg before query %d has negative byte accounting", rec.BeforeSeq)})
		case rec.Bytes > s.cfg.Tuner.Bt:
			add(AuditViolation{Invariant: InvBudget,
				Detail: fmt.Sprintf("reorg before query %d moved %d bytes over transfer budget %d",
					rec.BeforeSeq, rec.Bytes, s.cfg.Tuner.Bt)})
		}
	}

	// TTI accounting.
	m := s.metrics
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"HVExe", m.HVExe}, {"DWExe", m.DWExe}, {"Transfer", m.Transfer},
		{"Tune", m.Tune}, {"ETL", m.ETL}, {"Recovery", m.Recovery},
	} {
		if c.v < 0 {
			add(AuditViolation{Invariant: InvAccounting,
				Detail: fmt.Sprintf("negative %s component %f", c.name, c.v)})
		}
	}
	if m.Queries != len(s.reports) {
		add(AuditViolation{Invariant: InvAccounting,
			Detail: fmt.Sprintf("%d queries counted but %d reports", m.Queries, len(s.reports))})
	}

	// WAL/state consistency.
	if s.dur != nil {
		wviols, err := s.auditWAL(repair)
		for _, v := range wviols {
			add(v)
		}
		if err != nil {
			return viols, err
		}
	}

	if changed && s.dur != nil {
		if err := s.journalDesignDiff(); err != nil {
			return viols, err
		}
	}
	return viols, nil
}

// auditWAL checks the journal against the live state: no torn tail past
// the latest checkpoint, no reorganization window left open at an
// operation boundary, every still-placed view's durable payload matching
// its last admit record, and — for views present in both the committed
// journal placement and the live design — agreeing store placement.
// Views present only on one side are legitimate (uncommitted captures
// are never journaled; quarantined views are evicted from the journal at
// the next boundary), so they raise nothing. Callers hold s.mu.
func (s *System) auditWAL(repair bool) ([]AuditViolation, error) {
	var viols []AuditViolation
	wal := s.dur.WAL()
	lsn := 0
	place := map[string]byte{}
	if ckpt := s.dur.Latest(); ckpt != nil {
		lsn = ckpt.LSN
		if sn, ok := ckpt.State.(*snapshot); ok {
			for _, v := range sn.HV {
				place[v.Name] = durability.StoreHV
			}
			for _, v := range sn.DW {
				place[v.Name] = durability.StoreDW
			}
		}
	}
	recs, torn := wal.Replay(lsn)
	if torn > 0 {
		viols = append(viols, AuditViolation{Invariant: InvWAL,
			Detail: fmt.Sprintf("torn WAL tail of %d bytes past the last checkpoint", torn)})
	}

	lastAdmit := map[string]*durability.Record{}
	apply := func(rec *durability.Record) {
		switch rec.Kind {
		case durability.KindViewAdmit:
			place[rec.Name] = rec.Store
			lastAdmit[rec.Name] = rec
		case durability.KindViewEvict:
			if place[rec.Name] == rec.Store {
				delete(place, rec.Name)
			}
		}
	}
	inReorg := false
	var buffered []*durability.Record
	for _, rec := range recs {
		switch rec.Kind {
		case durability.KindReorgBegin:
			inReorg = true
			buffered = buffered[:0]
		case durability.KindReorgCommit:
			for _, b := range buffered {
				apply(b)
			}
			buffered = buffered[:0]
			inReorg = false
		case durability.KindReorgAbort:
			buffered = buffered[:0]
			inReorg = false
		case durability.KindViewAdmit, durability.KindViewEvict:
			if inReorg {
				buffered = append(buffered, rec)
				continue
			}
			apply(rec)
		}
	}
	if inReorg {
		viols = append(viols, AuditViolation{Invariant: InvWAL,
			Detail: "reorganization window left open at an operation boundary"})
	}

	// Durable payload integrity for every still-placed admitted view.
	names := make([]string, 0, len(lastAdmit))
	for name := range lastAdmit {
		if _, ok := place[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		rec := lastAdmit[name]
		p, ok := wal.Payload(name)
		if ok && p.Verify() && p.Checksum == rec.Checksum {
			continue
		}
		viol := AuditViolation{Invariant: InvWAL, View: name,
			Detail: "durable payload fails its admit-record checksum"}
		if repair {
			switch live := s.lookupView(name, place[name]); {
			case live == nil:
			case live.Verify():
				// Self-heal the durable copy from the verified live view.
				wal.PutPayload(live)
				rec := &durability.Record{
					Kind: durability.KindViewAdmit, Store: place[name], Name: name,
					Seq: int64(s.seq), Bytes: live.SizeBytes(), Checksum: live.Checksum,
				}
				if err := wal.Append(rec); err != nil {
					return append(viols, viol), err
				}
				viol.Repaired = true
				viol.Detail += "; re-journaled from the live copy"
			default:
				// The live copy rotted before it was journaled: recompute
				// it, which re-journals a fresh durable copy too. On any
				// other failure the view-content audit quarantines it.
				set := s.hv.Views
				if place[name] == durability.StoreDW {
					set = s.dw.Views
				}
				switch err := s.repairView(live, set, place[name]); {
				case err == nil:
					viol.Repaired = true
					viol.Detail += "; recomputed the live copy and re-journaled it"
				case errors.Is(err, faults.ErrCrash):
					return append(viols, viol), err
				}
			}
		}
		viols = append(viols, viol)
	}

	// Placement agreement on the intersection of journal and live design.
	live := s.designMap()
	liveNames := make([]string, 0, len(live))
	for name := range live {
		liveNames = append(liveNames, name)
	}
	sort.Strings(liveNames)
	for _, name := range liveNames {
		if st, ok := place[name]; ok && st != live[name] {
			viols = append(viols, AuditViolation{Invariant: InvWAL, View: name,
				Detail: fmt.Sprintf("journal places view in %c, live design in %c", st, live[name])})
		}
	}
	return viols, nil
}

// repairView self-heals one corrupt or stale view in place: its base-data
// definition is recomputed through the HV engine — the same path an HV
// fallback takes, with no injector draws and no store mutation until the
// verified result is reinstalled — restamped with current log
// generations, and reinstalled under the same name in the same store.
// The estimated HV cost of the recomputation is charged to RECOVERY. The
// repair is journaled as an evict+admit pair (the placement did not
// change, so the boundary design diff would not notice a content
// repair). Callers hold s.mu.
func (s *System) repairView(v *views.View, set *views.Set, store byte) error {
	if v.Def == nil || v.Name != views.NameForSig(v.Sig) {
		// Hand-installed tables (the bgwork mart) are not recomputable
		// through the HV fallback path: their name is not derived from
		// their signature, so a recomputation would install a stranger.
		return fmt.Errorf("multistore: view %s is not recomputable from base data", v.Name)
	}
	cost := s.hv.CostPlan(v.Def)
	p, err := s.hv.BeginExecute(context.Background(), v.Def)
	if err != nil {
		return fmt.Errorf("multistore: recomputing view %s: %w", v.Name, err)
	}
	nv := views.New(v.Def, p.Table(), v.CreatedSeq)
	if nv.Name != v.Name {
		return fmt.Errorf("multistore: view %s definition drifted (recomputed name %s)", v.Name, nv.Name)
	}
	nv.LastUsedSeq = v.LastUsedSeq
	nv.ExactOnly = v.ExactOnly
	nv.StampGenerations(s.catalogGen())
	set.Remove(v.Name)
	s.installView(nv, set)
	delete(s.tomb, v.Name)
	s.metrics.Recovery += cost
	if s.dur != nil {
		wal := s.dur.WAL()
		if err := wal.Append(&durability.Record{
			Kind: durability.KindViewEvict, Store: store, Name: v.Name, Seq: int64(s.seq),
		}); err != nil {
			return err
		}
		wal.PutPayload(nv)
		if err := wal.Append(&durability.Record{
			Kind: durability.KindViewAdmit, Store: store, Name: v.Name,
			Seq: int64(s.seq), Bytes: nv.SizeBytes(), Checksum: nv.Checksum,
		}); err != nil {
			return err
		}
	}
	return nil
}

// quarantineView removes an unrepairable view from the design and
// tombstones its name so opportunistic capture (hv.Commit's by-product
// publication, MS-LRU's passive retention) cannot resurrect it before
// the next reorganization rebuilds the design. Callers hold s.mu.
func (s *System) quarantineView(name string, set *views.Set) {
	set.Remove(name)
	if s.tomb == nil {
		s.tomb = map[string]bool{}
	}
	s.tomb[name] = true
	s.metrics.Quarantined++
	// The quarantined view's bytes may back cached results computed while
	// it was live: drop every reuse-cache entry.
	s.invalidateReuse()
}

// tombstoned reports whether the name is quarantine-tombstoned. Called
// from the capture veto and MS-LRU retention, both on the serialized
// query flow under s.mu.
func (s *System) tombstoned(name string) bool { return s.tomb[name] }

// QuarantineTombstones returns the currently tombstoned view names in
// sorted order (empty between reorganizations when nothing was
// quarantined online).
func (s *System) QuarantineTombstones() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.tomb))
	for name := range s.tomb {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// catalogGen returns the generation probe for the system's catalog.
// Callers hold s.mu.
func (s *System) catalogGen() func(name string) (int, bool) {
	return func(name string) (int, bool) {
		log, err := s.cat.Log(name)
		if err != nil {
			return 0, false
		}
		return log.Generation, true
	}
}

// maybeRot draws the SiteViewRot bit-rot site once per operation: when it
// fires, one resident recomputable view's table is silently replaced by a
// clone with a single value flipped (size-preserving) while its catalog
// checksum is left stale — damage no query path notices until a checksum
// audit re-verifies it. Victim choice is deterministic in the draw's
// fraction over the sorted resident view names. A zero rate draws no
// randomness. Callers hold s.mu.
func (s *System) maybeRot() {
	failed, frac := s.inj.Check(faults.SiteViewRot)
	if !failed {
		return
	}
	type victim struct {
		v   *views.View
		set *views.Set
	}
	var victims []victim
	for _, set := range []*views.Set{s.hv.Views, s.dw.Views} {
		for _, v := range set.All() {
			if v.Table != nil && len(v.Table.Rows) > 0 && v.Name == views.NameForSig(v.Sig) {
				victims = append(victims, victim{v, set})
			}
		}
	}
	if len(victims) == 0 {
		return
	}
	idx := int(frac * float64(len(victims)))
	if idx >= len(victims) {
		idx = len(victims) - 1
	}
	v := victims[idx].v
	rotted := v.Table.Clone()
	rotTable(rotted, frac)
	v.Table = rotted
	s.rotLog = append(s.rotLog, v.Name)
	if s.rotted == nil {
		s.rotted = map[*storage.Table]bool{}
	}
	s.rotted[rotted] = true
}

// RotLog returns the names of views corrupted by SiteViewRot so far, in
// injection order (a name may repeat). The endurance harness checks that
// every rotted name was later detected and repaired.
func (s *System) RotLog() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.rotLog...)
}

// RotResident returns the sorted names of resident views whose table is
// still one SiteViewRot corrupted. A repair or a fresh materialization of
// the same name installs a new table, so a name that was rotted and
// later re-created does not count.
func (s *System) RotResident() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, set := range []*views.Set{s.hv.Views, s.dw.Views} {
		for _, v := range set.All() {
			if s.rotted[v.Table] {
				out = append(out, v.Name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// rotTable flips one value in the table, chosen by frac, without changing
// its encoded size — the same size-preserving damage the durability
// plane's payload corruption models, applied to the live in-memory copy.
func rotTable(t *storage.Table, frac float64) {
	if t == nil || len(t.Rows) == 0 {
		return
	}
	nvals := 0
	for _, r := range t.Rows {
		nvals += len(r)
	}
	if nvals == 0 {
		return
	}
	start := int(frac * float64(nvals))
	if start >= nvals {
		start = nvals - 1
	}
	for i := 0; i < nvals; i++ {
		idx := (start + i) % nvals
		row, col := rotLocate(t, idx)
		v := &t.Rows[row][col]
		switch v.Kind {
		case storage.KindInt:
			v.I++
			return
		case storage.KindFloat:
			v.F += 1
			return
		case storage.KindBool:
			v.I = 1 - v.I
			return
		case storage.KindString:
			if len(v.S) > 0 {
				b := []byte(v.S)
				b[0] ^= 0x01
				v.S = string(b)
				return
			}
		}
	}
}

func rotLocate(t *storage.Table, idx int) (row, col int) {
	for r := range t.Rows {
		if idx < len(t.Rows[r]) {
			return r, idx
		}
		idx -= len(t.Rows[r])
	}
	return 0, 0
}
