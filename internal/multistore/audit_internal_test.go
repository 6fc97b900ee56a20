package multistore

// White-box tests for the online integrity plane: the self-healing
// repair path, the quarantine tombstones that keep an evicted name from
// resurrecting through opportunistic capture or MS-LRU retention, the
// system-invariant audit. (The clean-audit byte-identity guarantee is a
// row of TestIdlePlanesByteIdentical.) These need direct access to the stores' view sets to plant
// corruption, so they live inside the package.

import (
	"testing"

	"miso/internal/data"
	"miso/internal/views"
	"miso/internal/workload"
)

func newAuditSystem(t *testing.T, v Variant, mutate func(*Config)) *System {
	t.Helper()
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	cfg := DefaultConfig(v)
	cfg.SetBudgets(cat, 2.0, 10<<30)
	if mutate != nil {
		mutate(&cfg)
	}
	sys := New(cfg, cat)
	if err := sys.ProvideFutureWorkload(workload.SQLs()); err != nil {
		t.Fatalf("future workload: %v", err)
	}
	return sys
}

func runPrefix(t *testing.T, sys *System, n int) {
	t.Helper()
	sqls := workload.SQLs()
	if n > len(sqls) {
		n = len(sqls)
	}
	for i := 0; i < n; i++ {
		if _, err := sys.Run(sqls[i]); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
}

// pickRecomputable returns a resident view the repair path can recompute
// from base data, and the set it lives in.
func pickRecomputable(sys *System) (*views.View, *views.Set) {
	sys.mu.Lock()
	defer sys.mu.Unlock()
	for _, set := range []*views.Set{sys.hv.Views, sys.dw.Views} {
		for _, v := range set.All() {
			if v.Def != nil && v.Name == views.NameForSig(v.Sig) &&
				v.Table != nil && len(v.Table.Rows) > 0 {
				return v, set
			}
		}
	}
	return nil, nil
}

// TestAuditRepairsCorruptView corrupts a resident recomputable view the
// way SiteViewRot does and checks that a repair-mode audit pass detects
// the checksum mismatch, recomputes the view through the HV fallback
// path (charged to RECOVERY), and leaves a verifying copy under the same
// name in the same store.
func TestAuditRepairsCorruptView(t *testing.T) {
	sys := newAuditSystem(t, VariantMSMiso, nil)
	runPrefix(t, sys, 6)

	victim, set := pickRecomputable(sys)
	if victim == nil {
		t.Fatal("no recomputable view materialized")
	}
	rotted := victim.Table.Clone()
	rotTable(rotted, 0.5)
	victim.Table = rotted
	if victim.Verify() {
		t.Fatal("rot did not break the content checksum")
	}
	recoveryBefore := sys.Metrics().Recovery

	viols, next, err := sys.AuditViews("", 0, true)
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if next != "" {
		t.Fatalf("full walk did not wrap (next %q)", next)
	}
	var found bool
	for _, v := range viols {
		if v.View == victim.Name {
			found = true
			if v.Invariant != InvChecksum {
				t.Fatalf("violation family %q, want %q", v.Invariant, InvChecksum)
			}
			if !v.Repaired || v.Quarantined {
				t.Fatalf("view not repaired: %+v", v)
			}
		}
	}
	if !found {
		t.Fatalf("corrupt view %s not detected in %v", victim.Name, viols)
	}

	repaired, ok := set.Get(victim.Name)
	if !ok {
		t.Fatalf("repaired view %s missing from its store", victim.Name)
	}
	if !repaired.Verify() {
		t.Fatalf("repaired view %s still fails verification", victim.Name)
	}
	if got := sys.Metrics(); got.Recovery <= recoveryBefore {
		t.Fatalf("repair charged no recovery time (%.3f -> %.3f)", recoveryBefore, got.Recovery)
	} else if got.AuditViolations == 0 || got.AuditRepaired == 0 {
		t.Fatalf("audit counters not bumped: %+v", got)
	}

	clean, _, err := sys.AuditViews("", 0, true)
	if err != nil {
		t.Fatalf("second audit: %v", err)
	}
	if len(clean) != 0 {
		t.Fatalf("second pass still dirty: %v", clean)
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatalf("invariants after repair: %v", err)
	}
}

// TestQuarantineTombstoneBlocksCapture is the resurrection regression:
// once a view name is quarantined out of the design, replaying the very
// queries that created it must not resurrect the name through
// opportunistic capture until a reorganization rebuilds the design and
// clears the tombstones.
func TestQuarantineTombstoneBlocksCapture(t *testing.T) {
	sys := newAuditSystem(t, VariantMSMiso, func(c *Config) { c.ReorgEvery = 0 })
	runPrefix(t, sys, 5)

	sys.mu.Lock()
	for _, set := range []*views.Set{sys.hv.Views, sys.dw.Views} {
		for _, v := range set.All() {
			sys.quarantineView(v.Name, set)
		}
	}
	sys.mu.Unlock()
	tombs := sys.QuarantineTombstones()
	if len(tombs) == 0 {
		t.Fatal("nothing was quarantined; workload produced no views")
	}

	runPrefix(t, sys, 5)
	for _, name := range tombs {
		if sys.hv.Views.Has(name) || sys.dw.Views.Has(name) {
			t.Fatalf("quarantined view %s resurrected by opportunistic capture", name)
		}
	}

	if err := sys.Reorganize(); err != nil {
		t.Fatalf("reorganize: %v", err)
	}
	if left := sys.QuarantineTombstones(); len(left) != 0 {
		t.Fatalf("tombstones survived reorganization: %v", left)
	}
	runPrefix(t, sys, 5)
	if sys.hv.Views.Len()+sys.dw.Views.Len() == 0 {
		t.Fatal("capture still blocked after reorganization cleared the tombstones")
	}
}

// TestEvictThenQuarantineNoLRURetention covers the EvictLRU/quarantine
// interaction under MS-LRU: a name evicted under budget pressure and
// then quarantined must not be resurrected by the variant's passive
// retention when the same query transfers the same working set again.
func TestEvictThenQuarantineNoLRURetention(t *testing.T) {
	sys := newAuditSystem(t, VariantMSLru, nil)
	runPrefix(t, sys, 4)

	sys.mu.Lock()
	retained := sys.dw.Views.All()
	if len(retained) == 0 {
		sys.mu.Unlock()
		t.Skip("MS-LRU retained nothing on this prefix")
	}
	var names []string
	views.EvictLRU(sys.dw.Views, 0)
	for _, v := range retained {
		sys.quarantineView(v.Name, sys.dw.Views)
		names = append(names, v.Name)
	}
	sys.mu.Unlock()

	runPrefix(t, sys, 4)
	for _, name := range names {
		if sys.dw.Views.Has(name) {
			t.Fatalf("evicted-then-quarantined view %s resurrected by MS-LRU retention", name)
		}
	}
}

// TestAuditInvariantsRepairsDisjointness plants a Vh ∩ Vd breach and
// checks the invariant audit detects it and heals it by evicting the HV
// copy (DW placement wins), converging to a clean second pass.
func TestAuditInvariantsRepairsDisjointness(t *testing.T) {
	sys := newAuditSystem(t, VariantMSMiso, nil)
	runPrefix(t, sys, 6)

	sys.mu.Lock()
	all := sys.hv.Views.All()
	if len(all) == 0 {
		sys.mu.Unlock()
		t.Fatal("no HV views materialized")
	}
	planted := all[0]
	sys.dw.Views.Add(planted.Clone())
	sys.mu.Unlock()

	viols, err := sys.AuditInvariants(true)
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	var found bool
	for _, v := range viols {
		if v.Invariant == InvDisjoint && v.View == planted.Name {
			found = true
			if !v.Repaired {
				t.Fatalf("disjointness breach not repaired: %+v", v)
			}
		}
	}
	if !found {
		t.Fatalf("planted disjointness breach on %s not detected: %v", planted.Name, viols)
	}
	if sys.hv.Views.Has(planted.Name) {
		t.Fatal("HV copy survived the disjointness repair")
	}
	if !sys.dw.Views.Has(planted.Name) {
		t.Fatal("DW copy was evicted; the repair must keep the DW placement")
	}
	clean, err := sys.AuditInvariants(true)
	if err != nil {
		t.Fatalf("second audit: %v", err)
	}
	if len(clean) != 0 {
		t.Fatalf("second pass still dirty: %v", clean)
	}
}

// TestAuditWALRepairsRottedJournaledCopy covers rot that reaches the
// journal: a live view rots and is then journaled (a placement change
// copies the live table into the durable payload). The WAL audit finds
// the payload off its admit record while the live copy fails its own
// checksum, so re-journaling the live copy cannot heal it; the repair
// must recompute the live view, which re-journals a verifying payload.
func TestAuditWALRepairsRottedJournaledCopy(t *testing.T) {
	sys := newAuditSystem(t, VariantMSMiso, func(c *Config) { c.CheckpointEvery = 4 })
	runPrefix(t, sys, 6)

	wal := sys.Durability().WAL()
	var victim *views.View
	for _, set := range []*views.Set{sys.hv.Views, sys.dw.Views} {
		for _, v := range set.All() {
			if _, ok := wal.Payload(v.Name); ok && victim == nil && v.Def != nil && v.Name == views.NameForSig(v.Sig) {
				victim = v
			}
		}
	}
	if victim == nil {
		t.Fatal("no journaled recomputable view")
	}
	rotted := victim.Table.Clone()
	rotTable(rotted, 0.5)
	victim.Table = rotted
	wal.PutPayload(victim)

	viols, err := sys.AuditInvariants(true)
	if err != nil {
		t.Fatalf("audit invariants: %v", err)
	}
	var found bool
	for _, v := range viols {
		if v.Invariant == InvWAL && v.View == victim.Name {
			found = true
			if !v.Repaired {
				t.Fatalf("journaled rot not repaired: %+v", v)
			}
		}
	}
	if !found {
		t.Fatalf("rotted durable payload of %s not detected in %v", victim.Name, viols)
	}
	if p, ok := wal.Payload(victim.Name); !ok || !p.Verify() {
		t.Fatal("durable payload still fails verification after repair")
	}
	if again, err := sys.AuditInvariants(false); err != nil || len(again) != 0 {
		t.Fatalf("second invariant pass: %v %v", again, err)
	}
	if sys.Metrics().AuditUnrepaired != 0 {
		t.Fatalf("%d unrepaired violations", sys.Metrics().AuditUnrepaired)
	}
}
