package core

import (
	"fmt"
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

// benchTunerSetup executes a 6-query evolving window in HV so its
// opportunistic views form a realistic candidate universe (33 views under
// data.SmallConfig), and returns everything a Tune call needs.
func benchTunerSetup(b testing.TB) (Config, *optimizer.Optimizer, *history.Window, optimizer.Design) {
	b.Helper()
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	est := stats.NewEstimator(cat)
	h := hv.NewStore(hv.DefaultConfig(), cat, est)
	d := dw.NewStore(dw.DefaultConfig(), est)
	opt := optimizer.New(h, d, est, transfer.DefaultConfig())
	builder := logical.NewBuilder(cat)
	win := history.NewWindow(6, 3, 0.5)
	for i, q := range workload.Evolving()[:6] {
		plan, err := builder.BuildSQL(q.SQL)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.Execute(plan, i); err != nil {
			b.Fatal(err)
		}
		win.Add(history.Entry{Seq: i, SQL: q.SQL, Plan: plan})
	}
	cfg := DefaultConfig()
	base := cat.TotalLogicalBytes()
	cfg.Bh, cfg.Bd, cfg.Bt = 2*base, 2*base/10, 10<<30
	cur := optimizer.Design{HV: h.Views, DW: d.Views}
	return cfg, opt, win, cur
}

// BenchmarkTunerReorganization measures one full reorganization decision —
// benefits, interactions, sparsification, and both knapsacks — over a
// 6-query window with a realistic view universe. The paper's claim is that
// tuning is lightweight relative to query execution; this quantifies the
// computational side of that claim. The workers=N variants run the
// what-if costing at that pool size.
func BenchmarkTunerReorganization(b *testing.B) {
	cfg, opt, win, cur := benchTunerSetup(b)
	run := func(b *testing.B, cfg Config) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// A fresh tuner per iteration: the cost cache is part of the
			// work being measured.
			tuner := NewTuner(cfg, opt)
			if _, err := tuner.Tune(cur, win); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(cur.HV.Len()), "candidate-views")
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			c := cfg
			c.TuneWorkers = w
			run(b, c)
		})
	}
}

// BenchmarkTunerCostKey regresses the cost-cache hot path: a cache hit
// must build its fixed-size (seq, view-set hash) key without allocating.
// The companion TestTunerCostKeyZeroAllocOnHit asserts the 0 allocs/op
// this benchmark reports.
func BenchmarkTunerCostKey(b *testing.B) {
	cfg, opt, win, cur := benchTunerSetup(b)
	tuner := NewTuner(cfg, opt)
	e := win.Entries()[0]
	universe := cur.HV.All()
	if len(universe) < 2 {
		b.Fatalf("need >= 2 candidate views, have %d", len(universe))
	}
	pair := []*views.View{universe[0], universe[1]}
	// Warm the entries so every measured call is a hit.
	tuner.cost(e, nil, nil)
	tuner.cost(e, nil, pair[:1])
	tuner.cost(e, pair[:1], pair[1:])
	tuner.cost(e, nil, pair)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tuner.cost(e, nil, nil)
		tuner.cost(e, nil, pair[:1])
		tuner.cost(e, pair[:1], pair[1:])
		tuner.cost(e, nil, pair)
	}
}

// BenchmarkKnapsackPacking isolates the DP itself at a realistic size.
func BenchmarkKnapsackPacking(b *testing.B) {
	gb := int64(1) << 30
	items := make([]*Item, 48)
	for i := range items {
		size := int64(i%13+1) * gb / 4
		items[i] = item(size, size, float64(100+i*7%91))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packKnapsack(items, 400*gb, 10*gb, 0, dwDims)
	}
}
