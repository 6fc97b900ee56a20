// Package multistore wires the substrates into the complete system of the
// paper — catalog, HV and DW stores, transfer layer, multistore query
// optimizer, history window, and MISO tuner — and implements the execution
// layer that runs multistore plans (executing HV parts, migrating working
// sets into DW temp space, resuming in DW) plus every system variant the
// evaluation compares: HV-ONLY, DW-ONLY, MS-BASIC, HV-OP, MS-MISO, MS-OFF,
// MS-LRU, and MS-ORA. All times are simulated seconds accumulated into the
// TTI breakdown.
package multistore

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"miso/internal/core"
	"miso/internal/data"
	"miso/internal/durability"
	"miso/internal/dw"
	"miso/internal/exec"
	"miso/internal/faults"
	"miso/internal/govern"
	"miso/internal/history"
	"miso/internal/hv"
	"miso/internal/logical"
	"miso/internal/mqo"
	"miso/internal/optimizer"
	"miso/internal/stats"
	"miso/internal/storage"
	"miso/internal/transfer"
)

// Variant selects the system behavior under evaluation.
type Variant string

// The system variants of Section 5.
const (
	VariantHVOnly  Variant = "HV-ONLY"
	VariantDWOnly  Variant = "DW-ONLY"
	VariantMSBasic Variant = "MS-BASIC"
	VariantHVOp    Variant = "HV-OP"
	VariantMSMiso  Variant = "MS-MISO"
	VariantMSOff   Variant = "MS-OFF"
	VariantMSLru   Variant = "MS-LRU"
	VariantMSOra   Variant = "MS-ORA"
)

// Config assembles the full system configuration.
type Config struct {
	Variant  Variant
	HV       hv.Config
	DW       dw.Config
	Transfer transfer.Config
	Tuner    core.Config

	// ReorgEvery triggers a reorganization phase every n queries
	// (MS-MISO / MS-ORA). The paper reorganizes every 1/10 of the
	// workload, i.e. every 3 queries for the 32-query workload. Zero
	// disables query-based reorganization; the paper also allows time-
	// or activity-based invocation, which callers implement by invoking
	// Reorganize directly (e.g. when the system is idle).
	ReorgEvery int
	// HistoryLen and EpochLen configure the tuning window (6 and 3 in
	// the paper); Decay weights older epochs down.
	HistoryLen int
	EpochLen   int
	Decay      float64

	// Faults is the fault-injection profile (all-zero disables injection,
	// making the failure plane strictly additive: timings are then
	// byte-identical to a system with no fault plane at all).
	Faults faults.Profile
	// FaultSeed seeds the deterministic injector; a fixed (profile, seed)
	// pair reproduces the exact same failure sequence.
	FaultSeed int64
	// Retry is the recovery policy for injected failures; the zero value
	// means faults.DefaultRetry.
	Retry faults.RetryPolicy
	// RetryBudget caps the total retries one query may pay across every
	// recovery path it touches (HV stage retries, transfer resume/reload
	// attempts, DW query replays); each reorganization or ETL phase gets
	// its own budget of the same size. When the budget runs dry the
	// operation stops retrying with an error wrapping faults.ErrExhausted
	// and degrades through the usual fallback paths, so a fault storm
	// costs a query at most RetryBudget extra attempts instead of a full
	// per-phase allowance at every phase. Zero disables the budget: retry
	// behavior is then byte-identical to a system without one.
	RetryBudget int
	// Hedge enables hedged DW execution: once the DW part of a split plan
	// has been running longer than an adaptive threshold (tracked from a
	// sliding window of observed DW wall durations), the equivalent
	// HV-only fallback plan starts computing concurrently. If the DW side
	// completes, the shadow is cooperatively canceled; if the DW side's
	// injected failures exhaust their retries, the already-computed shadow
	// is committed in place of the serial fallback re-execution. All
	// simulated accounting is deferred to the commit point, so results and
	// StateDigest are byte-identical with hedging on or off — only
	// wall-clock latency and the hedge counters differ.
	Hedge HedgeConfig

	// CheckpointEvery enables the durability plane: every catalog/design
	// mutation is journaled to a write-ahead log and a full-state
	// checkpoint is taken every n completed operations (queries, updates,
	// explicit Reorganize calls). Zero disables durability entirely —
	// journaling charges no simulated time either way, so enabling it
	// never changes the TTI breakdown of a fault-free run.
	CheckpointEvery int

	// ExecWorkers selects both stores' execution engine (exec.Env.Workers
	// semantics): 0 runs the morsel engine with GOMAXPROCS workers (the
	// default), n > 0 bounds the pool, and exec.SerialWorkers selects the
	// legacy serial engine. Results — tables, digests, TTI — are
	// byte-identical at every setting; only real wall-clock changes. A
	// nonzero value overrides HV.ExecWorkers and DW.ExecWorkers.
	ExecWorkers int

	// MemLimitBytes caps the execution memory of a single query: extract
	// buffers, hash partitions, sort keys, and materialized intermediates
	// are charged against a per-query ledger, and a query that exceeds the
	// limit aborts with an error wrapping govern.ErrMemLimit (its accrued
	// work charged to Recovery). Zero disables the per-query limit.
	MemLimitBytes int64
	// MemPoolBytes caps the combined charged execution memory of every
	// query the system runs (the server-wide reservation pool). Zero
	// disables the pool. With both fields zero no ledger is attached and
	// execution is byte-identical to a system with no memory governance.
	MemPoolBytes int64

	// Reuse enables the cross-query reuse plane: single-flight
	// piggybacking of identical concurrent queries and the content-hashed
	// semantic result/subresult cache (see ReuseConfig). Disabled runs
	// take the exact pre-reuse code path: results and StateDigest are
	// byte-identical to a system without the plane.
	Reuse ReuseConfig
}

// DefaultConfig returns the paper's setup for the given variant; view
// storage and transfer budgets must still be set (see SetBudgets).
func DefaultConfig(v Variant) Config {
	return Config{
		Variant:    v,
		HV:         hv.DefaultConfig(),
		DW:         dw.DefaultConfig(),
		Transfer:   transfer.DefaultConfig(),
		Tuner:      core.DefaultConfig(),
		ReorgEvery: 3,
		HistoryLen: 6,
		EpochLen:   3,
		Decay:      0.5,
	}
}

// SetBudgets sets the view storage budgets as multiples of each store's
// base-data size — HV's base is the full logs, DW's is the relevant
// portion, 1/10th of the logs as in the paper — and the transfer budget in
// bytes.
func (c *Config) SetBudgets(cat *storage.Catalog, multiple float64, transferBytes int64) {
	base := cat.TotalLogicalBytes()
	c.Tuner.Bh = int64(multiple * float64(base))
	c.Tuner.Bd = int64(multiple * float64(base) / 10)
	c.Tuner.Bt = transferBytes
}

// Metrics is the TTI breakdown: the cumulative simulated time of each
// component as defined in Section 5.1.
type Metrics struct {
	HVExe    float64
	DWExe    float64
	Transfer float64
	Tune     float64
	ETL      float64
	// Recovery is the time lost to injected failures and spent surviving
	// them: partial re-executions, backoff waits, rolled-back loads and
	// moves, and full-HV fallback runs. Zero when injection is disabled.
	Recovery float64
	Queries  int
	Reorgs   int
	// Fallbacks counts queries that completed in HV after their
	// multistore plan failed mid-flight.
	Fallbacks int
	// Retries counts injected failures survived anywhere in the system.
	Retries int
	// Canceled counts queries abandoned mid-plan by a deadline or
	// cancellation; their partial work is charged to Recovery and they do
	// not count toward Queries.
	Canceled int
	// MemAborted counts queries aborted for exceeding their memory budget
	// (per-query limit or server-wide pool); like canceled queries, their
	// partial work is charged to Recovery.
	MemAborted int
	// PanicsContained counts queries that failed because a worker panic was
	// caught and converted to a typed error instead of crashing the
	// process; their partial work is charged to Recovery.
	PanicsContained int
	// Degraded counts queries forced onto the HV-only path by the serving
	// layer (DW circuit breaker open). They complete and count toward
	// Queries; their time is charged to HVExe like any HV execution.
	Degraded int
	// Quarantined counts views removed from the design instead of being
	// served: corrupt content (checksum mismatch) or a stale base-log
	// generation. Quarantine work is charged to Recovery.
	Quarantined int
	// Hedges counts DW executions that armed an HV shadow (the hedge
	// timer was set; whether the shadow's goroutine actually ran before
	// the DW side finished is a scheduling race). The two counters below
	// depend on wall-clock timing, so all three are deliberately excluded
	// from StateDigest: hedged and unhedged runs stay digest-identical.
	Hedges int
	// HedgeWins counts hedged queries whose DW side exhausted its retries
	// and were answered by committing the shadow's pre-computed fallback
	// instead of re-executing it serially.
	HedgeWins int
	// HedgesCanceled counts shadows whose compute started but was
	// cooperatively canceled — the DW side completed first, or the shadow
	// itself failed.
	HedgesCanceled int
	// AuditViolations counts integrity violations detected by the online
	// audit plane (AuditViews/AuditInvariants): checksum mismatches, stale
	// generations, disjointness or budget breaks, WAL inconsistencies.
	// AuditRepaired counts violations self-healed online (views recomputed
	// through the HV fallback path, budgets evicted back under limit,
	// durable payloads re-journaled); AuditUnrepaired counts violations
	// that could only be quarantined or reported. Like the hedge counters,
	// all three are excluded from StateDigest: the scrubber runs on a
	// wall-clock schedule, and an audit-disabled run must stay
	// byte-identical to a system with no audit plane at all.
	AuditViolations int
	AuditRepaired   int
	AuditUnrepaired int
	// The reuse-plane counters below depend on concurrent arrival timing
	// (who rendezvouses with whom) and cache residency, so — like the
	// hedge and audit counters — all four are excluded from StateDigest:
	// a reuse-disabled run stays byte-identical to a system with no reuse
	// plane at all. CacheHits counts queries answered from the semantic
	// cache; CacheMisses counts fingerprintable queries that executed
	// cold (including cut-level subresult probes); Piggybacked counts
	// queries that shared a concurrent leader's in-flight execution;
	// SubplanHits counts HV cuts answered from cached subresults.
	CacheHits   int
	CacheMisses int
	Piggybacked int
	SubplanHits int
}

// TTI returns the total time-to-insight.
func (m Metrics) TTI() float64 {
	return m.HVExe + m.DWExe + m.Transfer + m.Tune + m.ETL + m.Recovery
}

// QueryReport records one query's execution.
type QueryReport struct {
	Seq int
	SQL string

	HVSeconds       float64
	TransferSeconds float64
	DWSeconds       float64
	TransferBytes   int64
	// RecoverySeconds is the time this query lost to injected failures
	// (partial re-executions, backoffs, aborted transfers, and — after a
	// mid-flight failure — the full-HV fallback run).
	RecoverySeconds float64
	// Retries counts injected failures this query survived.
	Retries int
	// FellBackToHV marks a query whose multistore plan failed mid-flight
	// (transfer aborted or DW side gave out) and that completed by
	// re-running entirely in HV.
	FellBackToHV bool
	// FallbackCause is the error that forced the HV fallback; it wraps
	// faults.ErrExhausted. Nil when FellBackToHV is false. The serving
	// layer's DW circuit breaker keys off this field.
	FallbackCause error
	// Degraded marks a query routed onto the forced HV-only path by the
	// serving layer while the DW circuit breaker was open (RunDegraded).
	Degraded bool
	// HedgeWon marks a fallback served from the hedge shadow's
	// pre-computed execution. Wall-clock observability only: the field is
	// excluded from StateDigest and the durability journal, since whether
	// the hedge timer beat the DW verdict depends on real time.
	HedgeWon bool
	// CacheHit marks a query answered from the semantic result cache;
	// Piggybacked marks one that shared a concurrent identical query's
	// in-flight execution; SubplanHits counts HV cuts answered from
	// cached subresults. All three are reuse-plane observability and, like
	// HedgeWon, excluded from StateDigest and the durability journal.
	CacheHit    bool
	Piggybacked bool
	SubplanHits int

	// HVOps / DWOps count plan operators executed in each store.
	HVOps, DWOps int
	// HVOnly marks full-HV execution; BypassedHV marks full-DW execution
	// (every cut answered from DW-resident views).
	HVOnly     bool
	BypassedHV bool
	// UsedViews are the names of materialized views read.
	UsedViews []string
	// NewViews counts opportunistic views created.
	NewViews int
	// ResultRows is the query result cardinality.
	ResultRows int
	// Result is the actual result table (kept for verification and for
	// callers that want the data; result sets are small).
	Result *storage.Table
}

// Total returns the query's execution time (excluding tuning/ETL, which are
// system-level), including any recovery time it paid.
func (r *QueryReport) Total() float64 {
	return r.HVSeconds + r.TransferSeconds + r.DWSeconds + r.RecoverySeconds
}

// System is one running multistore instance. Methods that mutate state
// (Run, Reorganize, AppendToLog, RefreshLog, ProvideFutureWorkload) are
// serialized by an internal mutex, so a System is safe to share across
// goroutines; queries still execute one at a time, as in the paper's
// single-stream evaluation.
type System struct {
	mu      sync.Mutex
	cfg     Config
	cat     *storage.Catalog
	builder *logical.Builder
	est     *stats.Estimator
	hv      *hv.Store
	dw      *dw.Store
	opt     *optimizer.Optimizer
	window  *history.Window
	inj     *faults.Injector
	execInj *faults.Injector
	memPool *govern.Pool
	retry   faults.RetryPolicy
	// qbud is the current query's retry budget (nil when RetryBudget is 0
	// or between queries); queries are serialized under mu, so a single
	// field is always the running query's.
	qbud  *faults.Budget
	hedge *hedgeTracker

	future  []history.Entry
	seq     int
	metrics Metrics
	reports []*QueryReport

	etlDone  bool
	offTuned bool
	// offTargetHV / offTargetDW are MS-OFF's fixed design (view names).
	offTargetHV map[string]bool
	offTargetDW map[string]bool

	reorgLog []ReorgRecord

	// dur is the durability manager (nil when CheckpointEvery is 0);
	// jbase is the design as of the last journaled operation boundary,
	// diffed at each boundary to emit view admit/evict records.
	dur   *durability.Manager
	jbase map[string]byte

	// tomb holds quarantine tombstones: names the audit plane removed from
	// the design without repairing. The capture veto and MS-LRU passive
	// retention refuse a tombstoned name, so an evicted-then-quarantined
	// view cannot resurrect through opportunistic capture; the set is
	// cleared when a repair reinstates the name and wholesale at reorg
	// commit, when the tuner rebuilds the design from the surviving views.
	// Nil until the first audit quarantine, so audit-disabled runs never
	// allocate it.
	tomb map[string]bool
	// rotLog names the views corrupted by SiteViewRot, in injection order;
	// rotted holds the corrupted tables themselves, so a later instance
	// of the same name (a repair or a fresh materialization) is told
	// apart from the damaged one.
	rotLog []string
	rotted map[*storage.Table]bool

	// reuse is the cross-query reuse plane (nil when Config.Reuse is
	// disabled — every reuse touchpoint is then a single nil check).
	reuse *reusePlane
}

// ReorgRecord summarizes one reorganization phase.
type ReorgRecord struct {
	// BeforeSeq is the sequence number of the query the reorganization
	// preceded.
	BeforeSeq int
	MovedToDW int
	MovedToHV int
	Dropped   int
	// Bytes is the total view bytes transferred (consumed from Bt).
	Bytes int64
	// Seconds is the movement time charged to TUNE.
	Seconds float64
	// FailedMoves counts moves that aborted or failed to commit and were
	// rolled back atomically: the view stayed in its source store and the
	// budget below was refunded.
	FailedMoves int
	// RefundedBytes is the Bt consumption returned by rolled-back moves.
	RefundedBytes int64
	// RecoverySeconds is the time this phase lost to injected failures
	// (retries, backoffs, and wasted work of rolled-back moves), charged
	// to the RECOVERY component rather than TUNE.
	RecoverySeconds float64
}

// New creates a system over the catalog.
func New(cfg Config, cat *storage.Catalog) *System {
	// Movement netting: derive per-byte move times from the transfer
	// pipeline so the tuner only places views whose benefit exceeds the
	// cost of moving them.
	// The 3x factor adds hysteresis: predicted benefits come from the
	// recent window, which overstates recurrence for ad-hoc queries, so a
	// move must clearly pay for itself before the tuner performs it.
	if cfg.Tuner.MovePenaltyPerByteDW == 0 {
		cfg.Tuner.MovePenaltyPerByteDW = 3 * transfer.Cost(cfg.Transfer, 1<<30).Total() / float64(1<<30)
	}
	if cfg.Tuner.MovePenaltyPerByteHV == 0 {
		cfg.Tuner.MovePenaltyPerByteHV = 3 * transfer.CostToHV(cfg.Transfer, 1<<30).Total() / float64(1<<30)
	}
	if cfg.ExecWorkers != 0 {
		cfg.HV.ExecWorkers = cfg.ExecWorkers
		cfg.DW.ExecWorkers = cfg.ExecWorkers
	}
	est := stats.NewEstimator(cat)
	h := hv.NewStore(cfg.HV, cat, est)
	d := dw.NewStore(cfg.DW, est)
	opt := optimizer.New(h, d, est, cfg.Transfer)
	if cfg.Variant == VariantHVOnly || cfg.Variant == VariantHVOp {
		opt.DisableSplits = true
	}
	if cfg.Hedge.Enabled {
		cfg.Hedge = cfg.Hedge.withDefaults()
	}
	retry := cfg.Retry.OrDefault()
	inj := faults.NewInjector(cfg.Faults, cfg.FaultSeed) // nil for an all-zero profile
	h.SetFaults(inj, retry)
	// The exec-plane sites get their own injector: morsel workers draw from
	// it concurrently, which must never perturb the main injector's
	// globally-ordered deterministic draw sequence.
	execInj := faults.NewInjector(cfg.Faults.ExecOnly(), cfg.FaultSeed+1)
	h.SetExecFaults(execInj)
	d.SetExecFaults(execInj)
	s := &System{
		cfg:     cfg,
		cat:     cat,
		builder: logical.NewBuilder(cat),
		est:     est,
		hv:      h,
		dw:      d,
		opt:     opt,
		window:  history.NewWindow(cfg.HistoryLen, cfg.EpochLen, cfg.Decay),
		inj:     inj,
		execInj: execInj,
		memPool: govern.NewPool(cfg.MemPoolBytes), // nil when unlimited
		retry:   retry,
		hedge:   newHedgeTracker(cfg.Hedge),
	}
	// Vh ∩ Vd = ∅: an HV fallback recomputing the definition of a view the
	// tuner moved to DW must not re-capture it on the HV side. A
	// quarantine-tombstoned name is vetoed for the same reason: capture
	// would resurrect a view the audit plane just removed. Commit runs on
	// the serialized query flow under s.mu, so reading s.tomb is safe.
	h.SetCaptureVeto(func(name string) bool {
		return d.Views.Has(name) || s.tombstoned(name)
	})
	if cfg.Reuse.Enabled {
		s.reuse = newReusePlane(cfg.Reuse, s)
		// Costing sees the cache: a cut whose subresult is resident costs
		// no HV time, steering plan choice toward reuse. The probe reads
		// only mutex-guarded reuse state, keeping EnumeratePlans safe for
		// the tuner's concurrent what-if workers; the cache is cleared at
		// reorg start, so tuning itself probes an empty cache and stays
		// deterministic.
		opt.ReuseProbe = func(n *logical.Node) bool {
			fp, ok := s.cutFingerprint(n)
			return ok && s.reuse.cache.Contains(fp)
		}
	}
	if cfg.CheckpointEvery > 0 {
		s.dur = durability.NewManager(cfg.CheckpointEvery, durability.NewWAL(inj))
		// Boot checkpoint: recovery always has a base state to replay over.
		s.dur.Checkpoint(0, s.snapshotLocked())
		s.jbase = s.designMap()
	}
	return s
}

// NewDefault builds a system with the default paper-scale dataset.
func NewDefault(cfg Config) (*System, error) {
	cat, err := data.Generate(data.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return New(cfg, cat), nil
}

// Catalog returns the system's catalog.
func (s *System) Catalog() *storage.Catalog { return s.cat }

// Estimator exposes the shared statistics estimator.
func (s *System) Estimator() *stats.Estimator { return s.est }

// HV returns the big data store.
func (s *System) HV() *hv.Store { return s.hv }

// DW returns the warehouse store.
func (s *System) DW() *dw.Store { return s.dw }

// SetExecStats attaches a per-operator execution timing collector to both
// stores (nil detaches). The collector is safe for concurrent use, so one
// can span a whole serving session.
func (s *System) SetExecStats(st *exec.Stats) {
	s.hv.SetExecStats(st)
	s.dw.SetExecStats(st)
}

// Optimizer returns the multistore query optimizer.
func (s *System) Optimizer() *optimizer.Optimizer { return s.opt }

// Metrics returns a snapshot of the accumulated TTI breakdown. It is safe
// to call while queries run; the snapshot is a consistent point-in-time
// copy.
func (s *System) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.metrics
}

// FaultInjector returns the system's fault injector (nil when injection
// is disabled); useful for inspecting injected-failure counts.
func (s *System) FaultInjector() *faults.Injector { return s.inj }

// ExecFaultInjector returns the separate injector arming the exec engine's
// fault sites (nil when no exec-plane rates are configured).
func (s *System) ExecFaultInjector() *faults.Injector { return s.execInj }

// MemPool returns the server-wide execution-memory pool (nil when
// MemPoolBytes is 0).
func (s *System) MemPool() *govern.Pool { return s.memPool }

// Reports returns deep copies of the per-query execution reports in
// submission order: callers can neither observe nor cause races on
// internal mutation. Result tables are shared — they are write-once and
// never mutated after execution.
func (s *System) Reports() []*QueryReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*QueryReport, len(s.reports))
	for i, r := range s.reports {
		cp := *r
		cp.UsedViews = append([]string(nil), r.UsedViews...)
		out[i] = &cp
	}
	return out
}

// ReorgLog returns a snapshot of the per-reorganization records.
func (s *System) ReorgLog() []ReorgRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]ReorgRecord(nil), s.reorgLog...)
}

// Design returns the current placement of views.
func (s *System) Design() optimizer.Design {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.design()
}

// design is Design without the lock, for callers already holding s.mu.
func (s *System) design() optimizer.Design {
	return optimizer.Design{HV: s.hv.Views, DW: s.dw.Views}
}

// ProvideFutureWorkload registers the upcoming queries. DW-ONLY uses it to
// scope the ETL, MS-OFF to tune once up-front, and MS-ORA as its oracle
// window.
func (s *System) ProvideFutureWorkload(sqls []string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.future = s.future[:0]
	for i, sql := range sqls {
		plan, err := s.builder.BuildSQL(sql)
		if err != nil {
			return fmt.Errorf("multistore: future query %d: %w", i+1, err)
		}
		s.future = append(s.future, history.Entry{Seq: i, SQL: sql, Plan: plan})
	}
	return nil
}

// Explain plans (but does not run) a query against the current design and
// returns a human-readable description of the chosen multistore plan.
func (s *System) Explain(sql string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	plan, err := s.builder.BuildSQL(sql)
	if err != nil {
		return "", err
	}
	mp, err := s.opt.Choose(plan, optimizer.Design{HV: s.hv.Views, DW: s.dw.Views})
	if err != nil {
		return "", err
	}
	return mp.Explain(), nil
}

// Run submits one query to the system and returns its report.
func (s *System) Run(sql string) (*QueryReport, error) {
	return s.RunContext(context.Background(), sql)
}

// RunContext submits one query under a context. When ctx is canceled or
// its deadline fires, the query is abandoned at the next phase boundary
// (between HV stages, before a transfer, before the DW part) and, inside
// the morsel engine, at the next morsel claim or merge poll: the work it
// had already paid for is charged to the RECOVERY TTI component, Canceled
// is incremented, and the returned error wraps ctx.Err(). A query whose
// context is already done before any work starts returns an error without
// charging anything. The same abandonment path books queries that exceed
// their memory budget (error wraps govern.ErrMemLimit, counted in
// MemAborted) and queries felled by a contained worker panic (error wraps
// govern.ErrInternal, counted in PanicsContained). With a background
// context and no memory limits, RunContext is byte-identical to Run.
//
// With the reuse plane enabled (Config.Reuse), a query may instead be
// answered by piggybacking on a concurrent identical query's in-flight
// execution or from the semantic result cache; both paths book a
// zero-cost report whose result table is digest-verified against cold
// execution. A cache hit never triggers a reorganization — it touches
// neither store — so tuned variants reorganize on misses and via
// Reorganize.
func (s *System) RunContext(ctx context.Context, sql string) (*QueryReport, error) {
	if s.reuse != nil {
		return s.runShared(ctx, sql)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runLocked(ctx, sql)
}

// runLocked is the serialized query path (callers hold s.mu): the exact
// pre-reuse RunContext flow, with the semantic cache consulted after plan
// build and populated after successful execution when the plane is on.
func (s *System) runLocked(ctx context.Context, sql string) (*QueryReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("multistore: query not started: %w", err)
	}
	defer s.attachLedger()()
	defer s.attachBudget()()
	s.beginOp()
	s.quarantineStale()
	s.maybeRot()
	plan, err := s.builder.BuildSQL(sql)
	if err != nil {
		return nil, err
	}
	entry := history.Entry{Seq: s.seq, SQL: sql, Plan: plan}
	if failed, _ := s.inj.Check(faults.SiteCrashServe); failed {
		return nil, fmt.Errorf("multistore: query %d: %w", entry.Seq, faults.Crash(faults.SiteCrashServe))
	}

	var fp mqo.Fingerprint
	var fpOK bool
	if s.reuse != nil {
		if fp, fpOK = s.fingerprintLocked(plan); fpOK {
			if t, ok := s.reuse.cache.Get(fp); ok {
				s.metrics.CacheHits++
				return s.bookLocked(entry, &QueryReport{
					Seq: entry.Seq, SQL: sql,
					CacheHit:   true,
					ResultRows: t.NumRows(),
					Result:     t,
				})
			}
		}
		s.metrics.CacheMisses++
	}

	rep, err := s.runVariant(ctx, entry)
	if err != nil {
		return nil, err
	}
	if fpOK && rep.Result != nil {
		// Chain boundary: the finished query's materialized answer enters
		// the cache under the fingerprint computed before execution.
		s.reuse.cache.Put(fp, rep.Result)
	}
	return s.bookLocked(entry, rep)
}

// bookLocked commits a completed query into the window, sequence,
// metrics, report log, and durability journal. Callers hold s.mu.
func (s *System) bookLocked(entry history.Entry, rep *QueryReport) (*QueryReport, error) {
	s.window.Add(entry)
	s.seq++
	s.metrics.Queries++
	s.reports = append(s.reports, rep)
	if err := s.endOp(queryDoneRecord(rep)); err != nil {
		// The WAL append tore: the process is considered dead and the
		// query's completion never became durable.
		return nil, err
	}
	return rep, nil
}

// RunDegraded executes the query entirely in HV regardless of variant —
// the serving layer routes queries here while the DW circuit breaker is
// open. HV always holds the base logs, so any query can complete on this
// path. Opportunistic by-products are retained as usual (the store keeps
// warming while DW is out) and the execution time is charged to HVEXE:
// degraded service is productive work, not recovery. Reorganization is
// never triggered from this path — moving views into a store the breaker
// just declared unhealthy would be counterproductive.
func (s *System) RunDegraded(ctx context.Context, sql string) (*QueryReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("multistore: query not started: %w", err)
	}
	defer s.attachLedger()()
	defer s.attachBudget()()
	s.beginOp()
	s.quarantineStale()
	s.maybeRot()
	plan, err := s.builder.BuildSQL(sql)
	if err != nil {
		return nil, err
	}
	entry := history.Entry{Seq: s.seq, SQL: sql, Plan: plan}
	if failed, _ := s.inj.Check(faults.SiteCrashServe); failed {
		return nil, fmt.Errorf("multistore: query %d: %w", entry.Seq, faults.Crash(faults.SiteCrashServe))
	}
	rewritten := optimizer.RewriteWithViews(plan, s.hv.Views)
	res, err := s.hv.ExecuteContext(ctx, rewritten, entry.Seq)
	if err != nil {
		if isAbortErr(err) {
			return nil, s.abandon(err, &QueryReport{Seq: entry.Seq, SQL: sql}, entry.Seq)
		}
		return nil, fmt.Errorf("multistore: degraded query %d in HV: %w", entry.Seq, err)
	}
	rep := &QueryReport{
		Seq: entry.Seq, SQL: sql,
		HVSeconds:       res.Seconds,
		RecoverySeconds: res.RecoverySeconds,
		Retries:         res.Retries,
		HVOps:           countOps(rewritten),
		HVOnly:          true,
		Degraded:        true,
		UsedViews:       s.markUsedViews(rewritten, entry.Seq),
		NewViews:        len(res.NewViews),
		ResultRows:      res.Table.NumRows(),
		Result:          res.Table,
	}
	s.metrics.HVExe += res.Seconds
	s.addRecovery(res.RecoverySeconds, res.Retries)
	s.metrics.Degraded++
	return s.bookLocked(entry, rep)
}

// isCtxErr reports whether err stems from context cancellation or an
// expired deadline.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// isAbortErr reports whether err is a governed per-query abort — context
// cancellation/deadline, a memory-budget violation, or a contained worker
// panic — as opposed to a store or plan failure. Governed aborts are booked
// by abandon rather than wrapped as execution errors.
func isAbortErr(err error) bool {
	return isCtxErr(err) || errors.Is(err, govern.ErrMemLimit) || errors.Is(err, govern.ErrInternal)
}

// attachLedger creates the per-query memory ledger (nil when no limit and
// no pool are configured — then governance costs nothing and changes
// nothing), attaches it to both stores, and returns the cleanup that
// detaches it and releases every byte it still holds. Queries run one at a
// time under s.mu, so a single attached ledger is always the current
// query's; the server-wide pool still meters concurrent Systems or any
// future intra-system concurrency sharing it.
func (s *System) attachLedger() func() {
	led := govern.NewLedger(s.cfg.MemLimitBytes, s.memPool)
	if led == nil {
		return func() {}
	}
	s.hv.SetGovernor(led)
	s.dw.SetGovernor(led)
	return func() {
		s.hv.SetGovernor(nil)
		s.dw.SetGovernor(nil)
		led.ReleaseAll()
	}
}

// attachBudget creates the per-query retry budget (nil when RetryBudget
// is 0 — the budgeted paths then behave byte-identically to un-budgeted
// ones), attaches it to HV's stage-retry loops, and returns the cleanup
// that detaches it. Transfer and DW retry paths read it through s.qbud.
func (s *System) attachBudget() func() {
	bud := faults.NewBudget(s.cfg.RetryBudget)
	if bud == nil {
		return func() {}
	}
	s.qbud = bud
	s.hv.SetRetryBudget(bud)
	return func() {
		s.hv.SetRetryBudget(nil)
		s.qbud = nil
	}
}

// abandon books a query that died mid-plan to a governed abort: every
// simulated second it had already accrued (completed HV cuts, transfers,
// DW work, recovery) is charged to RECOVERY — work done and thrown away —
// and staged temp tables are discarded. The cause classifies the abort:
// context errors count as Canceled, memory-budget violations as
// MemAborted, contained worker panics as PanicsContained. Returns a typed
// error wrapping the cause.
func (s *System) abandon(cause error, rep *QueryReport, seq int) error {
	wasted := rep.HVSeconds + rep.TransferSeconds + rep.DWSeconds + rep.RecoverySeconds
	s.metrics.Recovery += wasted
	s.metrics.Retries += rep.Retries
	verb := "abandoned mid-plan"
	switch {
	case errors.Is(cause, govern.ErrMemLimit):
		s.metrics.MemAborted++
		verb = "aborted over memory budget"
	case errors.Is(cause, govern.ErrInternal):
		s.metrics.PanicsContained++
		verb = "failed by a contained panic"
	default:
		s.metrics.Canceled++
	}
	s.dw.ClearTemp()
	return fmt.Errorf("multistore: query %d %s (%.1fs charged to recovery): %w",
		seq, verb, wasted, cause)
}

func (s *System) runVariant(ctx context.Context, e history.Entry) (*QueryReport, error) {
	switch s.cfg.Variant {
	case VariantHVOnly:
		rep, err := s.runHVOnly(ctx, e)
		if err != nil {
			return nil, err
		}
		s.hv.Views.Reset() // no retention
		return rep, nil
	case VariantHVOp:
		return s.runHVOp(ctx, e)
	case VariantDWOnly:
		return s.runDWOnly(ctx, e)
	case VariantMSBasic:
		rep, err := s.runMultistore(ctx, e, optimizer.EmptyDesign())
		if err != nil {
			return nil, err
		}
		s.hv.Views.Reset() // transfers and by-products are discarded
		return rep, nil
	case VariantMSLru:
		return s.runMSLru(ctx, e)
	case VariantMSMiso:
		if s.reorgDue() {
			if err := s.reorg(s.window); err != nil {
				return nil, err
			}
		}
		return s.runMultistore(ctx, e, s.design())
	case VariantMSOra:
		if s.reorgDue() {
			if err := s.reorg(s.oracleWindow()); err != nil {
				return nil, err
			}
		}
		return s.runMultistore(ctx, e, s.design())
	case VariantMSOff:
		if !s.offTuned {
			if err := s.offlineTune(); err != nil {
				return nil, err
			}
			s.offTuned = true
		}
		rep, err := s.runMultistore(ctx, e, s.design())
		if err != nil {
			return nil, err
		}
		s.trimHVToDesign()
		return rep, nil
	default:
		return nil, fmt.Errorf("multistore: unknown variant %q", s.cfg.Variant)
	}
}

// CheckInvariants verifies the catalog-level invariants the recovery and
// serving machinery promise to preserve, regardless of faults, deadlines,
// or concurrent submission: the two stores never hold the same view
// (Vh ∩ Vd = ∅), both view sets fit their storage budgets, no
// reorganization moved more than the transfer budget or recorded negative
// byte counts, every TTI component is non-negative, and the query counter
// matches the report log. It is safe to call at any time.
func (s *System) CheckInvariants() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range s.hv.Views.All() {
		if s.dw.Views.Has(v.Name) {
			return fmt.Errorf("multistore: view %q present in both HV and DW", v.Name)
		}
	}
	if got, bh := s.hv.Views.TotalBytes(), s.cfg.Tuner.Bh; got > bh {
		return fmt.Errorf("multistore: HV views %d bytes exceed Bh %d", got, bh)
	}
	if got, bd := s.dw.Views.TotalBytes(), s.cfg.Tuner.Bd; got > bd {
		return fmt.Errorf("multistore: DW views %d bytes exceed Bd %d", got, bd)
	}
	for _, rec := range s.reorgLog {
		if rec.Bytes < 0 || rec.RefundedBytes < 0 {
			return fmt.Errorf("multistore: reorg before query %d has negative byte accounting", rec.BeforeSeq)
		}
		if rec.Bytes > s.cfg.Tuner.Bt {
			return fmt.Errorf("multistore: reorg before query %d moved %d bytes, transfer budget %d",
				rec.BeforeSeq, rec.Bytes, s.cfg.Tuner.Bt)
		}
	}
	m := s.metrics
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"HVExe", m.HVExe}, {"DWExe", m.DWExe}, {"Transfer", m.Transfer},
		{"Tune", m.Tune}, {"ETL", m.ETL}, {"Recovery", m.Recovery},
	} {
		if c.v < 0 {
			return fmt.Errorf("multistore: negative %s component %f", c.name, c.v)
		}
	}
	if m.Queries != len(s.reports) {
		return fmt.Errorf("multistore: %d queries counted but %d reports", m.Queries, len(s.reports))
	}
	return nil
}

// reorgDue reports whether a reorganization phase precedes this query.
func (s *System) reorgDue() bool {
	return s.cfg.ReorgEvery > 0 && s.seq > 0 && s.seq%s.cfg.ReorgEvery == 0
}

// Reorganize triggers a reorganization phase immediately, outside the
// query-based schedule — the paper's time-based or activity-based
// invocation ("e.g., when the system is idle"). It only applies to the
// tuned variants; for others it is a no-op.
func (s *System) Reorganize() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.beginOp()
	var err error
	switch s.cfg.Variant {
	case VariantMSMiso:
		err = s.reorg(s.window)
	case VariantMSOra:
		err = s.reorg(s.oracleWindow())
	default:
		return nil
	}
	if err != nil {
		return err
	}
	return s.endOp(nil)
}

// oracleWindow builds the MS-ORA tuning window from the actual upcoming
// queries rather than history.
func (s *System) oracleWindow() *history.Window {
	w := history.NewWindow(s.cfg.HistoryLen, s.cfg.EpochLen, 1.0)
	end := s.seq + s.cfg.HistoryLen
	if end > len(s.future) {
		end = len(s.future)
	}
	// Reverse-weighted: the nearest future query matters most, so it goes
	// last (the window weights the end highest).
	for i := end - 1; i >= s.seq && i >= 0; i-- {
		w.Add(s.future[i])
	}
	return w
}
