package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"miso/internal/views"
)

// reorgFingerprint renders every decision a Reorg carries — both stores'
// final view sets, each movement list, and the transfer total — so two
// Tune outputs can be compared byte-for-byte.
func reorgFingerprint(r *Reorg) string {
	names := func(vs []*views.View) string {
		out := make([]string, len(vs))
		for i, v := range vs {
			out[i] = v.Name
		}
		sort.Strings(out)
		return strings.Join(out, ",")
	}
	return fmt.Sprintf("hv:[%s] dw:[%s] toDW:[%s] toHV:[%s] drop:[%s] xfer:%d",
		names(r.NewHV.All()), names(r.NewDW.All()),
		names(r.MoveToDW), names(r.MoveToHV), names(r.DropHV), r.TransferBytes)
}

// TestTuneDeterministicAcrossWorkerCounts regresses the tentpole
// determinism guarantee: the parallel what-if workers only warm a pure
// cost cache, and every accumulation runs serially in a fixed order, so
// Tune's output must be identical at any worker count, with the serial
// path as the reference.
func TestTuneDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg, opt, win, cur := benchTunerSetup(t)
	if n := cur.HV.Len(); n < 12 {
		t.Fatalf("universe has %d candidate views, want >= 12", n)
	}

	tune := func(c Config) string {
		r, err := NewTuner(c, opt).Tune(cur, win)
		if err != nil {
			t.Fatalf("tune (workers=%d): %v", c.TuneWorkers, err)
		}
		return reorgFingerprint(r)
	}

	want := tune(cfg) // TuneWorkers zero: fully serial
	for _, w := range []int{1, 2, 8} {
		c := cfg
		c.TuneWorkers = w
		if got := tune(c); got != want {
			t.Errorf("workers=%d diverged:\n got %s\nwant %s", w, got, want)
		}
	}
}

// TestTunerCostKeyZeroAllocOnHit regresses the cost-cache key scheme: a
// hit must build its fixed-size (seq, hashed view set) key and look it up
// without allocating — the old string key allocated (and sorted) per
// probe.
func TestTunerCostKeyZeroAllocOnHit(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts are meaningless")
	}
	cfg, opt, win, cur := benchTunerSetup(t)
	tuner := NewTuner(cfg, opt)
	e := win.Entries()[0]
	universe := cur.HV.All()
	if len(universe) < 2 {
		t.Fatalf("need >= 2 candidate views, have %d", len(universe))
	}
	pair := []*views.View{universe[0], universe[1]}
	// Warm every key the measured loop reads.
	tuner.cost(e, nil, nil)
	tuner.cost(e, nil, pair[:1])
	tuner.cost(e, pair[:1], pair[1:])
	tuner.cost(e, nil, pair)
	allocs := testing.AllocsPerRun(100, func() {
		tuner.cost(e, nil, nil)
		tuner.cost(e, nil, pair[:1])
		tuner.cost(e, pair[:1], pair[1:])
		tuner.cost(e, nil, pair)
	})
	if allocs != 0 {
		t.Fatalf("cache hits allocated %.1f times per run, want 0", allocs)
	}
}
