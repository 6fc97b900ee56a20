// Governance experiments: the query-level resource-governance plane under
// load. The cancellation storm measures cancel-to-idle latency (how long a
// canceled query keeps a serving worker busy), the panic run proves
// injected worker panics are contained to single-query failures while
// concurrent queries keep producing byte-identical results, the memory run
// exercises per-query budget aborts, and the identity check pins the
// governance plane's zero-cost-when-disabled promise: with no limits, no
// exec faults and background contexts, the 32-query workload's results and
// state digest are byte-identical whether or not a ledger is attached.
// BenchGovern's report is BENCH_governance.json.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"miso/internal/data"
	"miso/internal/faults"
	"miso/internal/govern"
	"miso/internal/multistore"
	"miso/internal/serve"
	"miso/internal/storage"
	"miso/internal/workload"
)

// governProfile arms the exec-plane fault sites for one chaos sweep rate.
// Panic and memory-pressure draws happen once per morsel/operator — two
// orders of magnitude more often than the store-level sites — so their
// rates are scaled down to keep per-query survival comparable; slow
// morsels are harmless stalls and run at the full rate.
func governProfile(rate float64) faults.Profile {
	return faults.Profile{}.
		With(faults.SiteExecPanic, rate/10).
		With(faults.SiteMemPressure, rate/10).
		With(faults.SiteSlowMorsel, rate)
}

// newGovernSystem builds a system with an explicit (exec-plane) fault
// profile and per-query memory limit, where newSystem only takes a uniform
// store-level rate.
func (c Config) newGovernSystem(v multistore.Variant, prof faults.Profile, seed int64, memLimit int64) (*multistore.System, error) {
	cat, err := data.Generate(c.Data)
	if err != nil {
		return nil, err
	}
	cfg := multistore.DefaultConfig(v)
	cfg.SetBudgets(cat, c.BudgetMultiple, c.TransferBudget)
	cfg.Faults = prof
	cfg.FaultSeed = seed
	cfg.Tuner.TuneWorkers = c.TuneWorkers
	cfg.ExecWorkers = c.ExecWorkers
	cfg.MemLimitBytes = memLimit
	sys := multistore.New(cfg, cat)
	if err := sys.ProvideFutureWorkload(workload.SQLs()); err != nil {
		return nil, err
	}
	return sys, nil
}

// governedOutcome reports whether err is an expected governed outcome of a
// storm run rather than a hard failure.
func governedOutcome(err error) bool {
	return err == nil ||
		errors.Is(err, serve.ErrShed) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, govern.ErrMemLimit) ||
		errors.Is(err, govern.ErrInternal)
}

// durPercentile returns the p-th percentile of latencies (0 when empty).
func durPercentile(lat []time.Duration, p int) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := len(s) * p / 100
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// governStorm drives one governed serving run: sessions×queries
// submissions against srv, canceling three of every four query contexts a
// few milliseconds in. It returns the first hard (non-governed) error.
func governStorm(srv *serve.Server, sessions, queries int) error {
	sqls := workload.SQLs()
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		hardErr error
	)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(session int) {
			defer wg.Done()
			for i := 0; i < queries; i++ {
				k := session*queries + i
				sql := sqls[k%len(sqls)]
				ctx, cancel := context.WithCancel(context.Background())
				var timer *time.Timer
				if k%4 != 3 {
					// Staggered cancellation: mid-flight for queries
					// already executing, pre-admission for queued ones.
					timer = time.AfterFunc(time.Duration(1+k%5)*time.Millisecond, cancel)
				}
				_, err := srv.Do(ctx, sql)
				if timer != nil {
					timer.Stop()
				}
				cancel()
				if !governedOutcome(err) {
					mu.Lock()
					if hardErr == nil {
						hardErr = fmt.Errorf("experiments: govern session %d query %d: %w", session, i, err)
					}
					mu.Unlock()
				}
			}
		}(s)
	}
	wg.Wait()
	srv.Close()
	return hardErr
}

// governChaosPoint is the chaos sweep's govern-mode row: MS-MISO behind
// the serving frontend with exec-plane faults armed at the sweep rate and
// the cancellation pattern of governStorm.
func governChaosPoint(c Config, rate float64, seed int64) (ChaosPoint, error) {
	sys, err := c.newGovernSystem(multistore.VariantMSMiso, governProfile(rate), seed, 0)
	if err != nil {
		return ChaosPoint{}, err
	}
	srv := serve.NewServer(serve.Config{Workers: chaosServeWorkers, QueueDepth: 64}, sys)
	if err := governStorm(srv, 4, 16); err != nil {
		return ChaosPoint{}, err
	}
	m := srv.Metrics()
	if err := m.Check(); err != nil {
		return ChaosPoint{}, err
	}
	if err := sys.CheckInvariants(); err != nil {
		return ChaosPoint{}, err
	}
	sm := sys.Metrics()
	return ChaosPoint{
		Rate:            rate,
		Variant:         multistore.VariantMSMiso,
		Mode:            "govern",
		TTI:             sm.TTI(),
		Recovery:        sm.Recovery,
		Retries:         sm.Retries,
		Fallbacks:       sm.Fallbacks,
		Completed:       m.Completed,
		Sheds:           m.Sheds,
		BreakerTrips:    m.BreakerTrips,
		Timeouts:        m.Timeouts,
		Degraded:        m.Degraded,
		Canceled:        m.Canceled,
		MemAborted:      m.Aborted,
		PanicsContained: m.PanicsContained,
		CancelP99Ms:     float64(durPercentile(srv.CancelLatencies(), 99)) / 1e6,
	}, nil
}

// GovernRows is the governance pipeline's result.
type GovernRows struct {
	// Cancellation storm: submissions against a slow-morsel-stretched
	// system with three of every four query contexts canceled mid-flight,
	// and the measured cancel-to-idle latency distribution.
	StormSubmitted int     `json:"storm_submitted"`
	StormCompleted int     `json:"storm_completed"`
	StormCanceled  int     `json:"storm_canceled"`
	CancelP50Ms    float64 `json:"cancel_p50_ms"`
	CancelP99Ms    float64 `json:"cancel_p99_ms"`
	CancelMaxMs    float64 `json:"cancel_max_ms"`

	// Panic containment: HV-ONLY workload with worker panics injected;
	// every failure must wrap govern.ErrInternal and every success must be
	// byte-identical to the fault-free baseline.
	PanicSubmitted          int  `json:"panic_submitted"`
	PanicContained          int  `json:"panic_contained"`
	PanicCompleted          int  `json:"panic_completed"`
	PanicSurvivorsIdentical bool `json:"panic_survivors_identical"`
	PanicProcessSurvived    bool `json:"panic_process_survived"`

	// Memory budget: queries run under a deliberately tiny per-query
	// limit must abort with govern.ErrMemLimit.
	MemLimitBytes int64 `json:"mem_limit_bytes"`
	MemSubmitted  int   `json:"mem_submitted"`
	MemAborted    int   `json:"mem_aborted"`

	// Governance-off identity: result + state digests of the 32-query
	// workload with no governance at all versus with a ledger attached at
	// an unreachable limit. Equal digests prove the plane is free when
	// idle.
	DigestPlain     string `json:"digest_plain"`
	DigestGoverned  string `json:"digest_governed"`
	DigestIdentical bool   `json:"digest_identical"`
}

// WriteText renders the report as a human-readable summary.
func (r *GovernRows) WriteText(w io.Writer) {
	fprintf(w, "governance pipeline\n")
	fprintf(w, "cancellation storm: %d submitted, %d completed, %d canceled\n",
		r.StormSubmitted, r.StormCompleted, r.StormCanceled)
	fprintf(w, "  cancel-to-idle latency p50 %.2fms  p99 %.2fms  max %.2fms\n",
		r.CancelP50Ms, r.CancelP99Ms, r.CancelMaxMs)
	fprintf(w, "panic containment: %d submitted, %d panics contained, %d completed, survivors identical %v, process survived %v\n",
		r.PanicSubmitted, r.PanicContained, r.PanicCompleted, r.PanicSurvivorsIdentical, r.PanicProcessSurvived)
	fprintf(w, "memory budget (%d B/query): %d submitted, %d aborted over budget\n",
		r.MemLimitBytes, r.MemSubmitted, r.MemAborted)
	fprintf(w, "governance-off identity: plain %s vs governed %s: identical %v\n",
		r.DigestPlain, r.DigestGoverned, r.DigestIdentical)
}

// cancelBoundMs bounds the storm's p99 cancel-to-idle latency.
const cancelBoundMs = 1000

// Checks declares the governance pipeline's verdicts: cancellation frees
// workers within the bound, contained panics leave survivors intact,
// every over-budget query aborts, and an idle ledger changes nothing.
func (r *GovernRows) Checks() []Check {
	return []Check{
		check("cancel_p99_ms", r.CancelP99Ms, "<=", cancelBoundMs),
		checkTrue("panic_survivors_identical", r.PanicSurvivorsIdentical),
		checkTrue("panic_process_survived", r.PanicProcessSurvived),
		check("mem_aborted", float64(r.MemAborted), "==", float64(r.MemSubmitted)),
		checkTrue("digest_identical", r.DigestIdentical),
	}
}

// workloadDigest runs every workload query on sys through run and folds
// the result tables and final state digest into one order-sensitive
// digest.
func workloadDigest(sys *multistore.System, run func(sql string) (*multistore.QueryReport, error)) (uint64, error) {
	d := storage.HashSeed
	for i, sql := range workload.SQLs() {
		rep, err := run(sql)
		if err != nil {
			return 0, fmt.Errorf("experiments: identity query %d: %w", i, err)
		}
		d = digestTables(d, rep.Result)
	}
	return d*1099511628211 ^ sys.StateDigest(), nil
}

// BenchGovern runs the governance pipeline: the cancellation storm, the
// panic-containment run, the memory-budget run, and the governance-off
// identity check.
func BenchGovern(c Config) (*GovernRows, error) {
	rep := &GovernRows{}

	// 1. Cancellation storm: every morsel stalls (up to 2ms), so queries
	// are long enough that mid-flight cancellation is the common case.
	stormSys, err := c.newGovernSystem(multistore.VariantMSMiso,
		faults.Profile{}.With(faults.SiteSlowMorsel, 1), 42, 0)
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.Config{Workers: 2, QueueDepth: 64}, stormSys)
	if err := governStorm(srv, 4, 8); err != nil {
		return nil, err
	}
	m := srv.Metrics()
	if err := m.Check(); err != nil {
		return nil, err
	}
	lat := srv.CancelLatencies()
	rep.StormSubmitted = m.Submitted
	rep.StormCompleted = m.Completed
	rep.StormCanceled = m.Canceled
	rep.CancelP50Ms = float64(durPercentile(lat, 50)) / 1e6
	rep.CancelP99Ms = float64(durPercentile(lat, 99)) / 1e6
	rep.CancelMaxMs = float64(durPercentile(lat, 100)) / 1e6

	// 2. Panic containment. HV-ONLY retains nothing between queries, so
	// every query's result is position-independent: the fault-free
	// baseline digests are the ground truth for any concurrent
	// interleaving of the faulted run.
	baseSys, err := c.newGovernSystem(multistore.VariantHVOnly, faults.Profile{}, 42, 0)
	if err != nil {
		return nil, err
	}
	baseline := map[string]uint64{}
	for _, sql := range workload.SQLs() {
		r, err := baseSys.Run(sql)
		if err != nil {
			return nil, fmt.Errorf("experiments: panic baseline: %w", err)
		}
		baseline[sql] = storage.ChecksumTable(r.Result)
	}
	panicSys, err := c.newGovernSystem(multistore.VariantHVOnly,
		faults.Profile{}.With(faults.SiteExecPanic, 0.01), 42, 0)
	if err != nil {
		return nil, err
	}
	psrv := serve.NewServer(serve.Config{Workers: 2, QueueDepth: 64}, panicSys)
	var (
		pwg       sync.WaitGroup
		pmu       sync.Mutex
		phard     error
		identical = true
	)
	sqls := workload.SQLs()
	for s := 0; s < 2; s++ {
		pwg.Add(1)
		go func(session int) {
			defer pwg.Done()
			for i := session; i < len(sqls); i += 2 {
				sql := sqls[i]
				r, err := psrv.Do(context.Background(), sql)
				pmu.Lock()
				switch {
				case err == nil:
					if storage.ChecksumTable(r.Result) != baseline[sql] {
						identical = false
					}
				case errors.Is(err, govern.ErrInternal):
					// Contained panic: counted by the server.
				default:
					if phard == nil {
						phard = fmt.Errorf("experiments: panic run query %d: %w", i, err)
					}
				}
				pmu.Unlock()
			}
		}(s)
	}
	pwg.Wait()
	psrv.Close()
	if phard != nil {
		return nil, phard
	}
	pm := psrv.Metrics()
	if err := pm.Check(); err != nil {
		return nil, err
	}
	rep.PanicSubmitted = pm.Submitted
	rep.PanicContained = pm.PanicsContained
	rep.PanicCompleted = pm.Completed
	rep.PanicSurvivorsIdentical = identical
	rep.PanicProcessSurvived = true // reaching here means no panic escaped

	// 3. Memory budget: a limit far below any query's working set.
	memSys, err := c.newGovernSystem(multistore.VariantMSMiso, faults.Profile{}, 42, 64<<10)
	if err != nil {
		return nil, err
	}
	rep.MemLimitBytes = 64 << 10
	for i, sql := range workload.SQLs()[:8] {
		rep.MemSubmitted++
		if _, err := memSys.RunContext(context.Background(), sql); err != nil &&
			!errors.Is(err, govern.ErrMemLimit) {
			return nil, fmt.Errorf("experiments: mem run query %d: %w", i, err)
		}
	}
	rep.MemAborted = memSys.Metrics().MemAborted

	// 4. Governance-off identity.
	plainSys, err := c.newSystem(multistore.VariantMSMiso)
	if err != nil {
		return nil, err
	}
	dPlain, err := workloadDigest(plainSys, plainSys.Run)
	if err != nil {
		return nil, err
	}
	govSys, err := c.newGovernSystem(multistore.VariantMSMiso, faults.Profile{}, 42, 1<<40)
	if err != nil {
		return nil, err
	}
	dGov, err := workloadDigest(govSys, func(sql string) (*multistore.QueryReport, error) {
		return govSys.RunContext(context.Background(), sql)
	})
	if err != nil {
		return nil, err
	}
	rep.DigestPlain = fmt.Sprintf("%016x", dPlain)
	rep.DigestGoverned = fmt.Sprintf("%016x", dGov)
	rep.DigestIdentical = dPlain == dGov
	return rep, nil
}
