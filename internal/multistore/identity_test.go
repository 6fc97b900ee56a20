package multistore

import (
	"context"
	"testing"
	"time"

	"miso/internal/workload"
)

// TestIdlePlanesByteIdentical is the kill-switch guarantee of the
// optional planes: each plane switched on but given nothing to do must
// leave StateDigest identical to a plain run's. Every row replays the
// full workload on MS-MISO and is compared with one plain-run digest.
func TestIdlePlanesByteIdentical(t *testing.T) {
	plain := newAuditSystem(t, VariantMSMiso, nil)
	runPrefix(t, plain, len(workload.SQLs()))
	want := plain.StateDigest()

	rows := []struct {
		name   string
		mutate func(*Config)
		// afterQuery runs after each query (nil: nothing).
		afterQuery func(t *testing.T, sys *System)
		// run executes one query (nil: System.Run).
		run func(sys *System, sql string) error
		// hook inspects the system before the workload runs.
		hook func(t *testing.T, sys *System)
	}{
		{
			// Hedging enabled with a threshold that never fires: the DW
			// phase arms no shadow that wins.
			name: "hedge enabled but idle",
			mutate: func(c *Config) {
				c.Hedge = HedgeConfig{Enabled: true, Multiplier: 1000, MinDelay: time.Hour}
			},
		},
		{
			// Repair-mode audits after every query on a clean system,
			// with durable checkpoints for the audit to cover.
			name:   "clean audit after every query",
			mutate: func(c *Config) { c.CheckpointEvery = 4 },
			afterQuery: func(t *testing.T, sys *System) {
				viols, _, err := sys.AuditViews("", 0, true)
				if err != nil {
					t.Fatalf("audit views: %v", err)
				}
				iviols, err := sys.AuditInvariants(true)
				if err != nil {
					t.Fatalf("audit invariants: %v", err)
				}
				if len(viols)+len(iviols) != 0 {
					t.Fatalf("clean run reported violations: %v %v", viols, iviols)
				}
			},
		},
		{
			// A zero Reuse config never constructs the plane.
			name: "reuse off",
			hook: func(t *testing.T, sys *System) {
				if sys.reuse != nil {
					t.Fatal("zero Reuse config built a reuse plane")
				}
			},
		},
		{
			// A governance ledger attached at a limit no query reaches.
			name:   "governance ledger at unreachable limit",
			mutate: func(c *Config) { c.MemLimitBytes = 1 << 40 },
			run: func(sys *System, sql string) error {
				_, err := sys.RunContext(context.Background(), sql)
				return err
			},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			sys := newAuditSystem(t, VariantMSMiso, row.mutate)
			if row.hook != nil {
				row.hook(t, sys)
			}
			for i, sql := range workload.SQLs() {
				var err error
				if row.run != nil {
					err = row.run(sys, sql)
				} else {
					_, err = sys.Run(sql)
				}
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				if row.afterQuery != nil {
					row.afterQuery(t, sys)
				}
			}
			if got := sys.StateDigest(); got != want {
				t.Fatalf("state digest %016x, plain run %016x", got, want)
			}
		})
	}
}
