package audit_test

import (
	"errors"
	"testing"
	"time"

	"miso/internal/audit"
	"miso/internal/data"
	"miso/internal/faults"
	"miso/internal/multistore"
	"miso/internal/workload"
)

// buildSystem boots a small durable MS-MISO system with the bit-rot site
// armed at the given rate (0 disables it).
func buildSystem(t *testing.T, rot float64) *multistore.System {
	t.Helper()
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	cfg := multistore.DefaultConfig(multistore.VariantMSMiso)
	cfg.SetBudgets(cat, 2.0, 10<<30)
	cfg.Faults = faults.Profile{}.With(faults.SiteViewRot, rot)
	cfg.FaultSeed = 7
	cfg.CheckpointEvery = 4
	sys := multistore.New(cfg, cat)
	if err := sys.ProvideFutureWorkload(workload.SQLs()); err != nil {
		t.Fatalf("future workload: %v", err)
	}
	return sys
}

// TestObserveModeReportsWithoutRepair runs with bit rot armed on every
// operation until a corruption is observable, then checks that an
// observe-only pass reports it without repairing anything and that the
// report's error matches ErrAuditViolation.
func TestObserveModeReportsWithoutRepair(t *testing.T) {
	sys := buildSystem(t, 1.0)
	var got []multistore.AuditViolation
	sc := audit.New(sys, audit.Config{})
	for i, sql := range workload.SQLs() {
		if _, err := sys.Run(sql); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		viols, err := sc.RunOnce()
		if err != nil {
			t.Fatalf("audit after query %d: %v", i, err)
		}
		if len(viols) > 0 {
			got = viols
			break
		}
	}
	if len(got) == 0 {
		t.Fatal("bit rot on every operation never became observable")
	}
	for _, v := range got {
		if v.Repaired || v.Quarantined {
			t.Fatalf("observe-only pass mutated the system: %+v", v)
		}
	}
	rep := sc.Report()
	if rep.Detected == 0 || rep.Unrepaired == 0 || rep.Repaired != 0 {
		t.Fatalf("observe-mode counters wrong: %+v", rep)
	}
	if err := rep.Err(); !errors.Is(err, audit.ErrAuditViolation) {
		t.Fatalf("report error %v does not match ErrAuditViolation", err)
	}
	var ve *audit.ViolationError
	if !errors.As(rep.Err(), &ve) || len(ve.Violations) == 0 {
		t.Fatalf("report error %v is not a populated *ViolationError", rep.Err())
	}
}

// TestRepairModeConvergesToClean injects rot across the full workload,
// then checks a repair pass self-heals everything: the follow-up
// observe-only pass finds nothing and every rotted name is either
// repaired in place or gone from both stores.
func TestRepairModeConvergesToClean(t *testing.T) {
	sys := buildSystem(t, 1.0)
	for i, sql := range workload.SQLs() {
		if _, err := sys.Run(sql); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if len(sys.RotLog()) == 0 {
		t.Fatal("no rot was injected across the workload")
	}
	if len(sys.RotResident()) == 0 {
		t.Fatal("rot injected but no rotted table resident before the repair pass")
	}

	sc := audit.New(sys, audit.Config{Repair: true})
	if _, err := sc.RunOnce(); err != nil {
		t.Fatalf("repair pass: %v", err)
	}
	rep := sc.Report()
	if rep.Unrepaired != 0 {
		t.Fatalf("repair pass left %d unrepaired violations: %+v", rep.Unrepaired, rep.Violations)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("repair report error: %v", err)
	}

	final, err := audit.RunOnce(sys, false)
	if err != nil {
		t.Fatalf("final observe pass: %v", err)
	}
	if len(final) != 0 {
		t.Fatalf("system still dirty after repair: %v", final)
	}
	for _, name := range sys.RotLog() {
		hv, hok := sys.HV().Views.Get(name)
		dw, dok := sys.DW().Views.Get(name)
		if hok && !hv.Verify() {
			t.Fatalf("rotted view %s still corrupt in HV", name)
		}
		if dok && !dw.Verify() {
			t.Fatalf("rotted view %s still corrupt in DW", name)
		}
	}
	if left := sys.RotResident(); len(left) != 0 {
		t.Fatalf("rotted tables still resident after repair: %v", left)
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatalf("invariants after repair: %v", err)
	}
}

// TestBackgroundScrubberUnderLoad runs the scrubber concurrently with
// the serialized query flow while rot is injected, then checks the
// system converges clean — the bread-and-butter deployment shape.
func TestBackgroundScrubberUnderLoad(t *testing.T) {
	sys := buildSystem(t, 0.5)
	sc := audit.New(sys, audit.Config{Interval: time.Millisecond, ChunkViews: 2, Repair: true})
	sc.Start()
	for i, sql := range workload.SQLs() {
		if _, err := sys.Run(sql); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	sc.Stop()
	rep := sc.Report()
	if rep.Fatal != nil {
		t.Fatalf("scrubber died: %v", rep.Fatal)
	}
	if rep.Chunks == 0 {
		t.Fatal("background scrubber never ran a chunk")
	}
	// Finish any repair the background loop had not reached yet, then
	// verify cleanliness with an independent observer.
	if _, err := sc.RunOnce(); err != nil {
		t.Fatalf("final repair pass: %v", err)
	}
	final, err := audit.RunOnce(sys, false)
	if err != nil {
		t.Fatalf("final observe pass: %v", err)
	}
	if len(final) != 0 {
		t.Fatalf("system dirty after background scrubbing: %v", final)
	}
}

// TestScrubberLifecycle checks Start/Stop idempotence and that RunOnce
// works without Start.
func TestScrubberLifecycle(t *testing.T) {
	sys := buildSystem(t, 0)
	sc := audit.New(sys, audit.Config{Interval: time.Millisecond})
	sc.Stop() // no-op before Start
	sc.Start()
	sc.Start() // idempotent
	sc.Stop()
	sc.Stop() // idempotent
	if viols, err := sc.RunOnce(); err != nil || len(viols) != 0 {
		t.Fatalf("RunOnce on a clean system: viols=%v err=%v", viols, err)
	}
	if rep := sc.Report(); rep.Passes == 0 {
		t.Fatalf("RunOnce did not record a pass: %+v", rep)
	}
	if got := audit.Families(); len(got) != 6 {
		t.Fatalf("Families() = %v, want 6 invariant families", got)
	}
}
