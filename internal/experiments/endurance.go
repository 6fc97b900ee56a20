// Long-horizon adversarial endurance harness: closed-loop clients with
// think time across hundreds of tenants drive a served MS-MISO system
// while the SiteViewRot fault site silently corrupts resident views and
// the background integrity scrubber detects and self-heals them under
// live traffic. The run spans at least MinReorgs reorganization cycles;
// at exit the harness proves that every injected corruption was detected
// and repaired (or had legitimately left the design), that a final
// verification pass finds zero violations, and that goodput stayed
// within bound of an identical rot-free control run. Its report is
// BENCH_endurance.json.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"miso/internal/audit"
	"miso/internal/data"
	"miso/internal/faults"
	"miso/internal/govern"
	"miso/internal/multistore"
	"miso/internal/serve"
	"miso/internal/workload"
)

// EnduranceConfig parameterizes the endurance run.
type EnduranceConfig struct {
	Config
	// Workers / Queue configure the serving frontend.
	Workers int
	Queue   int
	// Tenants is the closed-loop client population; each client is its
	// own tenant and holds at most one query in flight.
	Tenants int
	// ThinkTime is the mean pause between a client's response and its
	// next submission (jittered ±50% per client).
	ThinkTime time.Duration
	// RotRate arms SiteViewRot at this per-operation probability.
	RotRate float64
	// MinReorgs is the horizon: the run continues until this many
	// reorganization cycles have completed (and MinQueries served).
	MinReorgs int
	// MinQueries is the minimum served-query horizon.
	MinQueries int
	// MaxDuration caps the run's wall clock; hitting it before the
	// horizon fails the run with a note.
	MaxDuration time.Duration
	// ScrubInterval / ScrubChunk rate-limit the background scrubber.
	ScrubInterval time.Duration
	ScrubChunk    int
	// Seed drives the adversarial generator's per-client choices.
	Seed int64
}

// DefaultEndurance returns the CI shape: small data, hundreds of
// tenants, a short multi-reorg horizon. Nonzero horizon overrides in
// base (EnduranceTenants, EnduranceQueries, EnduranceDur) replace the
// defaults.
func DefaultEndurance(base Config) EnduranceConfig {
	ec := EnduranceConfig{
		Config:        base,
		Workers:       4,
		Queue:         16,
		Tenants:       200,
		ThinkTime:     25 * time.Millisecond,
		RotRate:       0.08,
		MinReorgs:     3,
		MinQueries:    150,
		MaxDuration:   3 * time.Minute,
		ScrubInterval: 2 * time.Millisecond,
		ScrubChunk:    4,
		Seed:          11,
	}
	if base.EnduranceTenants > 0 {
		ec.Tenants = base.EnduranceTenants
	}
	if base.EnduranceQueries > 0 {
		ec.MinQueries = base.EnduranceQueries
	}
	if base.EnduranceDur > 0 {
		ec.MaxDuration = base.EnduranceDur
	}
	return ec
}

// EnduranceRows is the endurance run's result.
type EnduranceRows struct {
	Tenants     int     `json:"tenants"`
	DurationSec float64 `json:"duration_sec"`
	TimedOut    bool    `json:"timed_out"`
	Reorgs      int     `json:"reorgs"`
	MinReorgs   int     `json:"min_reorgs"`
	MinQueries  int     `json:"min_queries"`

	Submitted  int     `json:"submitted"`
	Served     int     `json:"served"`
	Shed       int     `json:"shed"`
	Failed     int     `json:"failed"`
	GoodputQPS float64 `json:"goodput_qps"`
	// ControlGoodputQPS is the rot-free control run's goodput; Ratio is
	// rot-run goodput over it.
	ControlGoodputQPS float64 `json:"control_goodput_qps"`
	GoodputRatio      float64 `json:"goodput_ratio"`

	RotInjected int `json:"rot_injected"`
	RotDistinct int `json:"rot_distinct_views"`
	// RotRepaired counts distinct rotted views repaired online at least
	// once; RotUnaccounted counts resident views still holding a rotted
	// table.
	RotRepaired    int  `json:"rot_repaired_views"`
	RotUnaccounted int  `json:"rot_unaccounted_views"`
	AuditDetects   int  `json:"audit_violations_detected"`
	AuditRepairs   int  `json:"audit_violations_repaired"`
	AuditUnrep     int  `json:"audit_violations_unrepaired"`
	ScrubPasses    int  `json:"scrub_passes"`
	ScrubChunks    int  `json:"scrub_chunks"`
	ScrubFatal     bool `json:"scrub_fatal"`
	// FinalViolations counts violations found by the post-run
	// verification pass (must be zero).
	FinalViolations int     `json:"final_violations"`
	RecoverySeconds float64 `json:"recovery_seconds"`
	// InvariantErr is the catalog invariant failure at exit ("" when the
	// invariants hold).
	InvariantErr string `json:"invariant_error,omitempty"`
}

// WriteText renders the result as plain text.
func (r *EnduranceRows) WriteText(w io.Writer) {
	fprintf(w, "endurance run\n")
	fprintf(w, "  %d tenants closed-loop for %.1fs, %d reorg cycles, timed out: %v\n",
		r.Tenants, r.DurationSec, r.Reorgs, r.TimedOut)
	fprintf(w, "  served %d of %d submitted (shed %d, failed %d) — %.1f q/s vs rot-free %.1f q/s (ratio %.2f)\n",
		r.Served, r.Submitted, r.Shed, r.Failed, r.GoodputQPS, r.ControlGoodputQPS, r.GoodputRatio)
	fprintf(w, "  rot injected %d (%d distinct views: %d repaired online, %d still resident rotted)\n",
		r.RotInjected, r.RotDistinct, r.RotRepaired, r.RotUnaccounted)
	fprintf(w, "  audit detected %d, repaired %d, unrepaired %d over %d passes (%d chunks)\n",
		r.AuditDetects, r.AuditRepairs, r.AuditUnrep, r.ScrubPasses, r.ScrubChunks)
	fprintf(w, "  final verification violations %d, recovery %.1fs charged\n",
		r.FinalViolations, r.RecoverySeconds)
	if r.InvariantErr != "" {
		fprintf(w, "  INVARIANT VIOLATION: %s\n", r.InvariantErr)
	}
}

// Checks declares the endurance acceptance criteria: the horizon was
// reached, rot was injected and every rotted view accounted for, nothing
// is left unrepaired, the verification pass is clean, goodput stayed
// within half of the rot-free control's, and the catalog invariants hold.
func (r *EnduranceRows) Checks() []Check {
	return []Check{
		checkTrue("horizon not timed out", !r.TimedOut),
		check("reorgs", float64(r.Reorgs), ">=", float64(r.MinReorgs)),
		check("served", float64(r.Served), ">=", float64(r.MinQueries)),
		check("rot_injected", float64(r.RotInjected), ">", 0),
		check("rot_unaccounted_views", float64(r.RotUnaccounted), "==", 0),
		check("audit_violations_unrepaired", float64(r.AuditUnrep), "==", 0),
		checkTrue("scrubber not fatal", !r.ScrubFatal),
		check("final_violations", float64(r.FinalViolations), "==", 0),
		check("goodput_qps vs 0.5 x control", r.GoodputQPS, ">=", 0.5*r.ControlGoodputQPS),
		checkTrue("invariants hold", r.InvariantErr == ""),
	}
}

// enduranceOutcome is what one (rot or control) run produces.
type enduranceOutcome struct {
	sys      *multistore.System
	scrub    *audit.Scrubber
	elapsed  time.Duration
	sub      int
	served   int
	shed     int
	failed   int
	timedOut bool
}

func (o *enduranceOutcome) goodput() float64 {
	if o.elapsed <= 0 {
		return 0
	}
	return float64(o.served) / o.elapsed.Seconds()
}

// adversarialSQL is the per-client query generator: mostly the evolving
// analyst rotation, salted with the workload's heavy tail — repeated
// view-hot queries that keep the catalogs populated (rot needs resident
// victims), expensive late-window shapes whose working sets exhaust
// transfer budgets, and slow multi-join shapes that trip the hedge
// threshold when hedging is armed.
func adversarialSQL(rng *rand.Rand, sqls []string, i int) string {
	switch p := rng.Float64(); {
	case p < 0.15:
		// Heavy tail: the last quarter of the evolving workload carries
		// the widest windows and largest working sets.
		return sqls[len(sqls)-1-rng.Intn(len(sqls)/4)]
	case p < 0.30:
		// Hot repeat: hammer one query so its views stay resident and
		// rot always has a victim worth repairing.
		return sqls[rng.Intn(4)]
	default:
		return sqls[(i+rng.Intn(3))%len(sqls)]
	}
}

// runEndurance executes one closed-loop run (rot armed or not) and
// leaves the system and scrubber alive for the caller's exit audits.
func (cfg EnduranceConfig) runEndurance(rotRate float64) (*enduranceOutcome, error) {
	cat, err := data.Generate(cfg.Data)
	if err != nil {
		return nil, err
	}
	mc := multistore.DefaultConfig(multistore.VariantMSMiso)
	mc.SetBudgets(cat, cfg.BudgetMultiple, cfg.TransferBudget)
	mc.Faults = faults.Profile{}.With(faults.SiteViewRot, rotRate)
	mc.FaultSeed = cfg.Seed
	mc.Tuner.TuneWorkers = cfg.TuneWorkers
	mc.ExecWorkers = cfg.ExecWorkers
	mc.CheckpointEvery = 8
	// Hedge-triggering slow shapes only matter if hedging is armed.
	mc.Hedge = multistore.HedgeConfig{Enabled: true}
	sys := multistore.New(mc, cat)
	if err := sys.ProvideFutureWorkload(workload.SQLs()); err != nil {
		return nil, err
	}

	srv := serve.NewServer(serve.Config{
		Workers: cfg.Workers, QueueDepth: cfg.Queue,
		QueryTimeout: 20 * time.Second, DrainTimeout: 2 * time.Second,
	}, sys)
	scrub := audit.New(sys, audit.Config{
		Interval:   cfg.ScrubInterval,
		ChunkViews: cfg.ScrubChunk,
		Repair:     true,
		Quiesce:    srv.Quiesce,
	})
	scrub.Start()

	out := &enduranceOutcome{sys: sys, scrub: scrub}
	var (
		mu      sync.Mutex
		hardErr error
	)
	stop := make(chan struct{})
	var once sync.Once
	halt := func() { once.Do(func() { close(stop) }) }

	// Horizon watcher: stop once the reorg-cycle and served-query
	// horizons are both met, or the wall-clock cap is hit.
	var watchWG sync.WaitGroup
	watchWG.Add(1)
	deadline := time.Now().Add(cfg.MaxDuration)
	go func() {
		defer watchWG.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				mu.Lock()
				served := out.served
				mu.Unlock()
				if sys.Metrics().Reorgs >= cfg.MinReorgs && served >= cfg.MinQueries {
					halt()
					return
				}
				if time.Now().After(deadline) {
					mu.Lock()
					out.timedOut = true
					mu.Unlock()
					halt()
					return
				}
			}
		}
	}()

	sqls := workload.SQLs()
	start := time.Now()
	var clientWG sync.WaitGroup
	for c := 0; c < cfg.Tenants; c++ {
		clientWG.Add(1)
		go func(c int) {
			defer clientWG.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(c)*7919))
			tenant := fmt.Sprintf("t%03d", c)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sql := adversarialSQL(rng, sqls, c+i)
				_, err := srv.DoAs(context.Background(), tenant, sql)
				mu.Lock()
				out.sub++
				switch {
				case err == nil:
					out.served++
				case errors.Is(err, serve.ErrShed):
					out.shed++
				case errors.Is(err, context.DeadlineExceeded),
					errors.Is(err, context.Canceled),
					errors.Is(err, govern.ErrMemLimit),
					errors.Is(err, govern.ErrInternal):
					out.failed++
				default:
					out.failed++
					if hardErr == nil {
						hardErr = fmt.Errorf("experiments: endurance tenant %s: %w", tenant, err)
					}
				}
				mu.Unlock()
				// Closed-loop think time, jittered ±50% per draw.
				think := time.Duration(float64(cfg.ThinkTime) * (0.5 + rng.Float64()))
				select {
				case <-stop:
					return
				case <-time.After(think):
				}
			}
		}(c)
	}
	clientWG.Wait()
	watchWG.Wait()
	out.elapsed = time.Since(start)
	srv.Close()
	scrub.Stop()

	mu.Lock()
	err = hardErr
	mu.Unlock()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// distinct returns the sorted distinct strings.
func distinct(names []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// RunEndurance executes the adversarial endurance run plus its rot-free
// control and assembles the acceptance report.
func RunEndurance(cfg EnduranceConfig) (*EnduranceRows, error) {
	if cfg.Tenants <= 0 {
		cfg.Tenants = 200
	}
	if cfg.MinReorgs <= 0 {
		cfg.MinReorgs = 3
	}
	if cfg.MinQueries <= 0 {
		cfg.MinQueries = 150
	}
	if cfg.MaxDuration <= 0 {
		cfg.MaxDuration = 3 * time.Minute
	}
	if cfg.ThinkTime <= 0 {
		cfg.ThinkTime = 25 * time.Millisecond
	}

	rot, err := cfg.runEndurance(cfg.RotRate)
	if err != nil {
		return nil, fmt.Errorf("experiments: endurance rot run: %w", err)
	}
	// The control differs only in the rot rate: same tenants, same
	// horizon, scrubber still running (its cost is present in both).
	control, err := cfg.runEndurance(0)
	if err != nil {
		return nil, fmt.Errorf("experiments: endurance control run: %w", err)
	}

	sys := rot.sys
	// Exit audit: one more repair pass catches rot injected after the
	// scrubber's last look (or views a reorg moved mid-pass), then an
	// independent verification pass must come back clean.
	if _, err := rot.scrub.RunOnce(); err != nil {
		return nil, fmt.Errorf("experiments: endurance exit repair pass: %w", err)
	}
	finalViols, err := audit.RunOnce(sys, false)
	if err != nil {
		return nil, fmt.Errorf("experiments: endurance verification pass: %w", err)
	}

	m := sys.Metrics()
	sr := rot.scrub.Report()
	rotNames := sys.RotLog()
	rotDistinct := distinct(rotNames)

	rep := &EnduranceRows{
		Tenants: cfg.Tenants, DurationSec: rot.elapsed.Seconds(), TimedOut: rot.timedOut,
		Reorgs: m.Reorgs, MinReorgs: cfg.MinReorgs, MinQueries: cfg.MinQueries,
		Submitted: rot.sub, Served: rot.served, Shed: rot.shed, Failed: rot.failed,
		GoodputQPS: rot.goodput(), ControlGoodputQPS: control.goodput(),
		RotInjected: len(rotNames), RotDistinct: len(rotDistinct),
		AuditDetects: m.AuditViolations, AuditRepairs: m.AuditRepaired, AuditUnrep: m.AuditUnrepaired,
		ScrubPasses: sr.Passes, ScrubChunks: sr.Chunks, ScrubFatal: sr.Fatal != nil,
		FinalViolations: len(finalViols), RecoverySeconds: m.Recovery,
	}
	if rep.ControlGoodputQPS > 0 {
		rep.GoodputRatio = rep.GoodputQPS / rep.ControlGoodputQPS
	}

	// Which rotted names were repaired at least once? A rotted table that
	// was never repaired must no longer be resident (evicted or dropped
	// by the tuner before a scrub chunk reached it — its corruption left
	// the system with it). The check is by table, not by name: a view
	// dropped after its rot may be materialized again, fresh, under the
	// same name.
	repaired := map[string]bool{}
	for _, v := range sr.Violations {
		if v.Repaired && v.Invariant == multistore.InvChecksum {
			repaired[v.View] = true
		}
	}
	for _, name := range rotDistinct {
		if repaired[name] {
			rep.RotRepaired++
		}
	}
	rep.RotUnaccounted = len(sys.RotResident())
	if err := sys.CheckInvariants(); err != nil {
		rep.InvariantErr = err.Error()
	}
	return rep, nil
}

// Endurance is the endurance mode: the run at its default shape.
func Endurance(c Config) (*EnduranceRows, error) { return RunEndurance(DefaultEndurance(c)) }
