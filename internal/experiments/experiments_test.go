package experiments

import (
	"bytes"
	"strings"
	"testing"

	"miso/internal/multistore"
	"miso/internal/workload"
)

func small() Config { return Small() }

func TestFig3Shape(t *testing.T) {
	r, err := Fig3(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Plans) < 3 {
		t.Fatalf("only %d plans enumerated", len(r.Plans))
	}
	// Plans must come out sorted by total time.
	for i := 1; i < len(r.Plans); i++ {
		if r.Plans[i].Total() < r.Plans[i-1].Total() {
			t.Fatalf("plans not sorted at %d", i)
		}
	}
	bestVsHV, bad := fig3Summary(r)
	if bestVsHV < 0 {
		t.Errorf("best plan worse than HV-only (%.2f)", bestVsHV)
	}
	// The paper's delineation: early-split plans are far worse than
	// HV-only because they transfer large working sets.
	if bad == 0 {
		t.Error("expected at least one bad (S) plan with a large transfer")
	}
	var buf bytes.Buffer
	r.WriteText(&buf)
	if !strings.Contains(buf.String(), "Figure 3") {
		t.Error("render missing header")
	}
}

func TestSec32Shape(t *testing.T) {
	r, err := Sec32(small())
	if err != nil {
		t.Fatal(err)
	}
	hv := r.Totals[multistore.VariantHVOnly]
	miso := r.Totals[multistore.VariantMSMiso]
	if miso[1] >= hv[1] {
		t.Errorf("MS-MISO q2 (%.0f) not faster than HV-ONLY q2 (%.0f)", miso[1], hv[1])
	}
	var buf bytes.Buffer
	r.WriteText(&buf)
	if !strings.Contains(buf.String(), "Section 3.2") {
		t.Error("render missing header")
	}
}

func TestFig4AndFig5(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload")
	}
	cfg := small()
	r, err := Fig4Shared(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Outcomes) != len(Fig4Variants) {
		t.Fatalf("outcomes = %d", len(r.Outcomes))
	}
	if r.TTI(multistore.VariantMSMiso) >= r.TTI(multistore.VariantHVOnly) {
		t.Error("MS-MISO not faster than HV-ONLY")
	}
	// Each cumulative TTI series is nondecreasing and has 32 points.
	for _, o := range r.Outcomes {
		if len(o.CumTTI) != len(workload.SQLs()) {
			t.Fatalf("%s: %d cum points", o.Variant, len(o.CumTTI))
		}
		for i := 1; i < len(o.CumTTI); i++ {
			if o.CumTTI[i] < o.CumTTI[i-1] {
				t.Fatalf("%s: cumulative TTI decreased at %d", o.Variant, i)
			}
		}
	}
	// DW-ONLY's first query carries the ETL: its first cumulative point
	// dominates everyone's.
	dwOnly := r.Outcome(multistore.VariantDWOnly)
	hvOnly := r.Outcome(multistore.VariantHVOnly)
	if dwOnly.CumTTI[0] <= hvOnly.CumTTI[0] {
		t.Error("DW-ONLY first query should include the ETL cost")
	}

	// The fig5 mode renders the fig4 mode's runs of the same config.
	f5, err := Fig5Shared(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f5.Base != r {
		t.Fatal("Fig5Shared repeated the Figure 4 runs instead of reusing them")
	}
	// Distributions are CDFs: nondecreasing, ending at 100%.
	for i := range f5.Base.Outcomes {
		row := f5.DistributionRow(&f5.Base.Outcomes[i])
		for j := 1; j < len(row); j++ {
			if row[j] < row[j-1] {
				t.Fatalf("distribution not monotone for %s", f5.Base.Outcomes[i].Variant)
			}
		}
	}
	// DW-ONLY has the most sub-10s queries (its post-ETL execution is
	// the paper's top curve).
	dwRow := f5.DistributionRow(dwOnly)
	hvRow := f5.DistributionRow(hvOnly)
	if dwRow[0] <= hvRow[0] {
		t.Errorf("DW-ONLY sub-10s fraction (%.0f%%) should beat HV-ONLY (%.0f%%)", dwRow[0], hvRow[0])
	}
	var buf bytes.Buffer
	f5.WriteText(&buf)
	if !strings.Contains(buf.String(), "Figure 5(b)") {
		t.Error("render missing 5(b)")
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload x3")
	}
	names := make([]string, 0, 32)
	for _, q := range workload.Evolving() {
		names = append(names, q.Name)
	}
	r, err := Fig6(small(), names)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 3 {
		t.Fatalf("series = %d", len(r.Series))
	}
	// Rows are ranked by decreasing DW fraction.
	for _, s := range r.Series {
		for i := 1; i < len(s.Rows); i++ {
			if s.Rows[i].DWFrac > s.Rows[i-1].DWFrac {
				t.Fatalf("%s: rows not ranked", s.Label)
			}
		}
	}
	// MS-MISO at 2x utilizes DW more than MS-BASIC (fewer HV seconds per
	// DW second).
	basic := r.Series[0].SecondsInHVPerDWSecond
	miso2x := r.Series[2].SecondsInHVPerDWSecond
	if miso2x >= basic {
		t.Errorf("MS-MISO 2x HV-per-DW (%.1f) should be under MS-BASIC (%.1f)", miso2x, basic)
	}
}

func TestOrderSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload x4")
	}
	r, err := OrderSensitivity(small())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range OrderSensVariants {
		tt := r.TTIs[v]
		if tt[0] <= 0 || tt[1] <= 0 {
			t.Fatalf("%s: empty TTIs %v", v, tt)
		}
	}
	// HV-OP's LRU retention has no window to confuse: order changes it
	// little. MS-MISO still beats HV-OP in both orders.
	miso := r.TTIs[multistore.VariantMSMiso]
	hvop := r.TTIs[multistore.VariantHVOp]
	if miso[0] >= hvop[0] || miso[1] >= hvop[1] {
		t.Errorf("MS-MISO (%v) should beat HV-OP (%v) in both orders", miso, hvop)
	}
	var buf bytes.Buffer
	r.WriteText(&buf)
	if !strings.Contains(buf.String(), "Order sensitivity") {
		t.Error("render missing header")
	}
}

func TestFig9AndTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload")
	}
	f9, err := Fig9(small())
	if err != nil {
		t.Fatal(err)
	}
	o := f9.Outcome
	if len(o.Samples) == 0 {
		t.Fatal("no samples")
	}
	if o.BgSlowdownPct <= 0 || o.BgSlowdownPct > 12 {
		t.Errorf("bg slowdown %.2f%% outside (0, 12%%]", o.BgSlowdownPct)
	}
	if o.PeakBgLatency <= o.Background.BaseLatency {
		t.Error("expected latency peaks during transfers")
	}

	t2, err := Table2(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != 4 {
		t.Fatalf("rows = %d", len(t2.Rows))
	}
	for _, row := range t2.Rows {
		if row.DWSlowdownPct < 0 || row.DWSlowdownPct > 12 {
			t.Errorf("%s: DW slowdown %.1f%% out of range", row.Scenario, row.DWSlowdownPct)
		}
		if row.MSSlowdownPct < 0 || row.MSSlowdownPct > 12 {
			t.Errorf("%s: MS slowdown %.1f%% out of range", row.Scenario, row.MSSlowdownPct)
		}
	}
}
