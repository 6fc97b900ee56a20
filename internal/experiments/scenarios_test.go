package experiments

import (
	"bytes"
	"testing"
	"time"
)

// TestScenarioMatrixSmoke runs the full matrix at test scale: every
// scenario must complete with clean accounting and invariants, and the
// report must render. Pass verdicts are asserted individually where they
// are load-independent (structural); timing-sensitive goodput ratios are
// only asserted not to produce NaN/negative numbers, since CI machines
// vary.
func TestScenarioMatrixSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario matrix is wall-clock bound")
	}
	cfg := DefaultScenarios(Small())
	cfg.PhaseDur = 400 * time.Millisecond
	rep, err := RunScenarios(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != 6 {
		t.Fatalf("expected 6 scenarios, got %d", len(rep.Scenarios))
	}
	if rep.CalibratedQPS <= 0 {
		t.Fatalf("calibration produced %v q/s", rep.CalibratedQPS)
	}
	for _, s := range rep.Scenarios {
		if len(s.Phases) == 0 {
			t.Errorf("%s: no phases", s.Name)
		}
		for _, p := range s.Phases {
			if p.GoodputQPS < 0 || p.Submitted < p.Served+p.Shed {
				t.Errorf("%s/%s: inconsistent phase counts %+v", s.Name, p.Name, p)
			}
		}
	}
	report := newReport(cfg.Config, rep)
	if len(report.Checks) != 12 {
		t.Fatalf("matrix declared %d checks, want 12", len(report.Checks))
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	rep.WriteText(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty text report")
	}
	t.Logf("\n%s", buf.String())
}
