package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestCheckOps(t *testing.T) {
	for _, tc := range []struct {
		got   float64
		op    string
		bound float64
		want  bool
	}{
		{2, ">=", 2, true},
		{1.9, ">=", 2, false},
		{0.1, ">", 0, true},
		{0, ">", 0, false},
		{154.8, "<=", 1000, true},
		{1000.1, "<=", 1000, false},
		{8, "==", 8, true},
		{7, "==", 8, false},
		{1, "!=", 0, false}, // unknown operators never pass
	} {
		if c := check("x", tc.got, tc.op, tc.bound); c.Pass != tc.want {
			t.Errorf("%v %s %v: pass %v, want %v", tc.got, tc.op, tc.bound, c.Pass, tc.want)
		}
	}
}

// TestFalseVerdictFailsReport pins the gates that were once computed but
// never enforced: a result whose verdict is false must yield a failing
// report, and the true verdict a passing one.
func TestFalseVerdictFailsReport(t *testing.T) {
	goodGov := func() *GovernRows {
		return &GovernRows{
			CancelP99Ms: 154.8, PanicSurvivorsIdentical: true, PanicProcessSurvived: true,
			MemSubmitted: 8, MemAborted: 8, DigestIdentical: true,
		}
	}
	goodCrash := func() *CrashResult {
		r := &CrashResult{}
		for _, cse := range crashCases {
			r.Points = append(r.Points, CrashPoint{Site: cse.site.String(), CleanMatch: true})
		}
		return r
	}
	cases := []struct {
		name      string
		good, bad Gated
	}{
		{"benchgov cancel p99", goodGov(), func() Gated { r := goodGov(); r.CancelP99Ms = 1000.5; return r }()},
		{"benchgov survivors", goodGov(), func() Gated { r := goodGov(); r.PanicSurvivorsIdentical = false; return r }()},
		{"benchgov process", goodGov(), func() Gated { r := goodGov(); r.PanicProcessSurvived = false; return r }()},
		{"benchgov mem aborts", goodGov(), func() Gated { r := goodGov(); r.MemAborted = 7; return r }()},
		{"benchgov digest", goodGov(), func() Gated { r := goodGov(); r.DigestIdentical = false; return r }()},
		{"crash clean", goodCrash(), func() Gated { r := goodCrash(); r.Points[1].CleanMatch = false; return r }()},
		{"crash missing row", goodCrash(), func() Gated { r := goodCrash(); r.Points = r.Points[1:]; return r }()},
		{"serve invariants", &SoakResult{}, &SoakResult{InvariantErr: errors.New("overlap")}},
	}
	for _, tc := range cases {
		if rep := newReport(Small(), tc.good); !rep.Pass {
			t.Errorf("%s: true verdict failed: %+v", tc.name, rep.Checks)
		}
		if rep := newReport(Small(), tc.bad); rep.Pass {
			t.Errorf("%s: false verdict passed: %+v", tc.name, rep.Checks)
		}
	}
}

// TestChecksAreDeclared pins that every gated result declares its checks
// independently of the data: an empty result yields the full list, and
// it fails.
func TestChecksAreDeclared(t *testing.T) {
	for _, tc := range []struct {
		rows Gated
		want int
	}{
		{ExecRows(nil), 2 * len(execOpCases)},
		{&GovernRows{}, 5},
		{&CacheRows{}, 5},
		{&ScenarioRows{}, 12},
		{&EnduranceRows{}, 10},
		{&CrashResult{}, len(crashCases)},
		{&SoakResult{}, 1},
	} {
		if got := len(tc.rows.Checks()); got != tc.want {
			t.Errorf("%T declares %d checks, want %d", tc.rows, got, tc.want)
		}
	}
	if newReport(Small(), ExecRows(nil)).Pass {
		t.Error("an empty exec result passed its gate")
	}
}

func TestReportRendering(t *testing.T) {
	rows := &GovernRows{MemSubmitted: 8, MemAborted: 8}
	rep := newReport(Small(), rows)
	if rep.Env.Scale != "small" || Default().env().Scale != "paper" {
		t.Errorf("scale names: small config %q, default %q", rep.Env.Scale, Default().env().Scale)
	}
	var buf bytes.Buffer
	rep.WriteChecks(&buf)
	if !strings.Contains(buf.String(), "[FAIL] digest_identical") || !strings.Contains(buf.String(), "[ok  ] mem_aborted") {
		t.Errorf("check block:\n%s", buf.String())
	}
	buf.Reset()
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back struct {
		Env    Env     `json:"env"`
		Checks []Check `json:"checks"`
		Pass   bool    `json:"pass"`
	}
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Pass || len(back.Checks) != len(rep.Checks) || back.Env != rep.Env {
		t.Errorf("JSON round trip lost fields: %+v", back)
	}
	buf.Reset()
	newReport(Small(), &Fig5Result{}).WriteChecks(&buf)
	if buf.Len() != 0 {
		t.Errorf("report without checks rendered a check block: %q", buf.String())
	}
}
