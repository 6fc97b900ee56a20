package core

import (
	"testing"

	"miso/internal/data"
	"miso/internal/dw"
	"miso/internal/history"
	"miso/internal/hv"
	"miso/internal/logical"
	"miso/internal/optimizer"
	"miso/internal/stats"
	"miso/internal/transfer"
	"miso/internal/views"
	"miso/internal/workload"
)

// TestTunerInternals inspects benefits, interactions and knapsack items for
// the first analyst's session (informational; run with -v).
func TestTunerInternals(t *testing.T) {
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	est := stats.NewEstimator(cat)
	h := hv.NewStore(hv.DefaultConfig(), cat, est)
	d := dw.NewStore(dw.DefaultConfig(), est)
	opt := optimizer.New(h, d, est, transfer.DefaultConfig())
	builder := logical.NewBuilder(cat)

	w := history.NewWindow(6, 3, 0.5)
	for i, name := range []string{"A1v1", "A1v2", "A1v3"} {
		q, _ := workload.ByName(name)
		plan, err := builder.BuildSQL(q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := h.Execute(plan, i); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		w.Add(history.Entry{Seq: i, SQL: q.SQL, Plan: plan})
	}

	cfg := DefaultConfig()
	base := cat.TotalLogicalBytes()
	cfg.Bh = 2 * base
	cfg.Bd = base / 5
	cfg.Bt = 10 << 30
	tuner := NewTuner(cfg, opt)

	cur := optimizer.Design{HV: h.Views, DW: d.Views}
	entries := w.Entries()
	weights := w.Weights()
	for _, v := range h.Views.All() {
		var bnD float64
		rel := 0
		for i, e := range entries {
			if len(relevantViews(e.Plan, []*views.View{v})) == 0 {
				continue
			}
			rel++
			b := tuner.cost(e, nil, nil)
			bnD += weights[i] * max0(b-tuner.cost(e, nil, []*views.View{v}))
		}
		t.Logf("bnDW(%s kind=%v %.2fGB) = %.0f over %d relevant queries",
			v.Name, v.Def.Kind, float64(v.SizeBytes())/1e9, bnD, rel)
	}
	r, err := tuner.Tune(cur, w)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("HV views before: %d (%.1fGB)", h.Views.Len(), float64(h.Views.TotalBytes())/1e9)
	for _, v := range h.Views.All() {
		t.Logf("  view %s %.2fGB rows=%d kind=%v", v.Name, float64(v.SizeBytes())/1e9,
			v.Table.NumRows(), v.Def.Kind)
	}
	t.Logf("new DW: %d views, moveToDW=%d, moveToHV=%d, dropped=%d",
		r.NewDW.Len(), len(r.MoveToDW), len(r.MoveToHV), len(r.DropHV))
	for _, v := range r.NewDW.All() {
		t.Logf("  DW <- %s %.2fGB kind=%v", v.Name, float64(v.SizeBytes())/1e9, v.Def.Kind)
	}
}
