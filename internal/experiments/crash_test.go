package experiments

import (
	"bytes"
	"strings"
	"testing"

	"miso/internal/exec"
	"miso/internal/faults"
	"miso/internal/multistore"
	"miso/internal/workload"
)

// TestCrashConfigCarriesWorkerCounts pins that the crash harness builds
// its config through the shared constructor: the worker flags reach the
// system (`-mode crash -execworkers -1` runs the serial engine) alongside
// the crash plane's fault profile and checkpoint cadence.
func TestCrashConfigCarriesWorkerCounts(t *testing.T) {
	c := small()
	c.TuneWorkers = 3
	c.ExecWorkers = exec.SerialWorkers
	p := faults.Profile{}.With(faults.SiteCrashServe, 0.1)
	mc, _, err := c.systemConfig(multistore.VariantMSMiso, crashPlane(p, 7))
	if err != nil {
		t.Fatal(err)
	}
	if mc.ExecWorkers != exec.SerialWorkers || mc.Tuner.TuneWorkers != 3 {
		t.Errorf("workers not carried: exec %d, tune %d", mc.ExecWorkers, mc.Tuner.TuneWorkers)
	}
	if mc.Faults != p || mc.FaultSeed != 7 || mc.CheckpointEvery != crashCheckpointEvery {
		t.Errorf("crash plane not applied: %+v seed %d checkpoint every %d", mc.Faults, mc.FaultSeed, mc.CheckpointEvery)
	}
}

// TestCrashSweepShape runs the full per-site crash sweep at small scale:
// every row must complete the workload, recover every death, and pass the
// clean-shutdown byte-identity check.
func TestCrashSweepShape(t *testing.T) {
	r, err := CrashSweep(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != len(crashCases) {
		t.Fatalf("%d rows, want %d", len(r.Points), len(crashCases))
	}
	totalCrashes := 0
	for _, p := range r.Points {
		if p.Completed != len(workload.SQLs()) {
			t.Errorf("%s: completed %d of %d queries", p.Site, p.Completed, len(workload.SQLs()))
		}
		if p.Recoveries != p.Crashes {
			t.Errorf("%s: %d crashes but %d recoveries", p.Site, p.Crashes, p.Recoveries)
		}
		if !p.CleanMatch {
			t.Errorf("%s: clean-shutdown recovery not byte-identical", p.Site)
		}
		if p.Crashes > 0 && p.Replayed == 0 {
			t.Errorf("%s: recovered %d times but replayed nothing", p.Site, p.Crashes)
		}
		totalCrashes += p.Crashes
		switch p.Site {
		case "view-corrupt":
			if p.Quarantined == 0 {
				t.Error("corruption row quarantined no views")
			}
		case "wal-write":
			if p.Crashes > 0 && p.TornBytes == 0 {
				t.Error("WAL-write crashes left no torn bytes")
			}
		}
	}
	if totalCrashes == 0 {
		t.Fatal("sweep crashed nothing; the harness tested no recovery path")
	}
	var buf bytes.Buffer
	r.WriteText(&buf)
	out := buf.String()
	if !strings.Contains(out, "Crash-recovery sweep") || !strings.Contains(out, "view-corrupt") {
		t.Error("render missing header or rows")
	}
}
