// Package hv simulates the big data store: a Hive-like engine that executes
// logical plans as a sequence of MapReduce-style jobs. Every job boundary
// (join, aggregate, distinct, sort — plus the map-phase outputs feeding
// them) materializes its result, exactly the fault-tolerance by-products the
// paper retains as opportunistic materialized views. Execution is real
// (actual tuples); wall-clock time is simulated from measured logical bytes
// through a calibrated cost model: high per-job startup and modest per-node
// scan/write throughput, with an extra SerDe penalty when parsing raw JSON
// logs.
package hv

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"miso/internal/exec"
	"miso/internal/faults"
	"miso/internal/govern"
	"miso/internal/logical"
	"miso/internal/stats"
	"miso/internal/storage"
	"miso/internal/views"
)

// ErrViewMissing marks a ViewScan over a view this store does not hold;
// callers test for it with errors.Is.
var ErrViewMissing = errors.New("hv: view not in HV")

// Config calibrates the HV cluster and cost model.
type Config struct {
	// Nodes is the cluster size (15 in the paper).
	Nodes int
	// StageStartup is the fixed per-job scheduling overhead in seconds.
	StageStartup float64
	// ScanMBps is the per-node scan throughput for already-extracted data.
	ScanMBps float64
	// WriteMBps is the per-node HDFS write (materialization) throughput.
	WriteMBps float64
	// SerDeFactor divides scan throughput when parsing raw JSON logs.
	SerDeFactor float64
	// ExecWorkers selects the execution engine (exec.Env.Workers
	// semantics): 0 runs the morsel engine with GOMAXPROCS workers (the
	// default), n > 0 bounds the pool, and exec.SerialWorkers selects the
	// legacy serial engine. Results are byte-identical at every setting;
	// only real wall-clock changes (simulated cost is byte-based).
	ExecWorkers int
}

// DefaultConfig matches the paper's 15-node Hive cluster, calibrated to its
// observed query times (thousands of seconds per query over ~TB logs).
func DefaultConfig() Config {
	return Config{
		Nodes:        15,
		StageStartup: 90,
		ScanMBps:     90,
		WriteMBps:    60,
		SerDeFactor:  2.0,
	}
}

// Result reports one plan execution in HV.
type Result struct {
	Table *storage.Table
	// Seconds is the simulated fault-free execution time.
	Seconds float64
	// RecoverySeconds is extra simulated time spent surviving injected
	// stage failures: partially re-executed stages plus backoff waits.
	// Because every job boundary is materialized, recovery restarts from
	// the failed stage only, never from the start of the plan.
	RecoverySeconds float64
	// Retries counts injected stage and HDFS-write failures survived.
	Retries int
	// NewViews are opportunistic views created by this execution (stage
	// outputs not already present in the store).
	NewViews []*views.View
	// Stages is the number of jobs run.
	Stages int
}

// Store is the HV instance: it owns the raw logs (via the catalog) and the
// HV side of the multistore design.
type Store struct {
	cfg       Config
	cat       *storage.Catalog
	est       *stats.Estimator
	inj       *faults.Injector
	retry     faults.RetryPolicy
	execStats *exec.Stats
	execInj   *faults.Injector
	gov       *govern.Ledger
	budget    *faults.Budget
	// captureVeto, when set, suppresses opportunistic capture of views
	// whose name it reports true for (see SetCaptureVeto).
	captureVeto func(name string) bool

	// Views is the HV view set (the store's physical design).
	Views *views.Set
}

// NewStore creates an HV store over the catalog.
func NewStore(cfg Config, cat *storage.Catalog, est *stats.Estimator) *Store {
	return &Store{cfg: cfg, cat: cat, est: est, Views: views.NewSet()}
}

// Config returns the store configuration.
func (s *Store) Config() Config { return s.cfg }

// SetFaults arms the store with a fault injector and recovery policy. A
// nil injector disables injection entirely (the default).
func (s *Store) SetFaults(inj *faults.Injector, retry faults.RetryPolicy) {
	s.inj = inj
	s.retry = retry.OrDefault()
}

// SetExecStats attaches a per-operator timing collector to every Env this
// store hands out (nil detaches).
func (s *Store) SetExecStats(st *exec.Stats) { s.execStats = st }

// SetExecFaults arms the exec engine's fault sites (worker panics, memory
// pressure, slow morsels) with their own injector, separate from the
// store-level one so concurrent morsel draws never perturb the serialized
// stage/transfer draw sequence. Nil disables (the default).
func (s *Store) SetExecFaults(inj *faults.Injector) { s.execInj = inj }

// SetGovernor attaches the current query's memory ledger to every Env the
// store hands out; the multistore sets it per query and clears it after
// (queries are serialized, so there is never more than one). Nil detaches.
func (s *Store) SetGovernor(l *govern.Ledger) { s.gov = l }

// SetRetryBudget attaches the current query's shared retry budget,
// consulted by the stage-retry loops alongside the per-phase policy; the
// multistore sets it per query like the governor. Nil (the default) means
// unlimited, leaving the retry loops byte-identical to the un-budgeted
// ones.
func (s *Store) SetRetryBudget(b *faults.Budget) { s.budget = b }

// SetCaptureVeto installs a predicate consulted before an opportunistic
// view capture publishes a new view. The multistore uses it to preserve
// Vh ∩ Vd = ∅: an HV fallback that recomputes the definition of a
// DW-resident view (the tuner moved it there) must not re-capture it in
// HV. The veto runs during Commit, on the serialized query flow.
func (s *Store) SetCaptureVeto(veto func(name string) bool) { s.captureVeto = veto }

// Env returns the execution environment resolving logs and HV views.
func (s *Store) Env() *exec.Env {
	return &exec.Env{
		ReadLog: func(name string) (*storage.LogFile, error) { return s.cat.Log(name) },
		ReadView: func(name string) (*storage.Table, error) {
			v, ok := s.Views.Get(name)
			if !ok {
				return nil, fmt.Errorf("%w: %q", ErrViewMissing, name)
			}
			return v.Table, nil
		},
		Workers: s.cfg.ExecWorkers,
		Stats:   s.execStats,
		Mem:     s.gov,
		Inj:     s.execInj,
	}
}

var boundaryKind = map[logical.Kind]bool{
	logical.KindJoin:      true,
	logical.KindAggregate: true,
	logical.KindDistinct:  true,
	logical.KindSort:      true,
}

// MaterializedNodes returns the set of nodes whose outputs a Hive-style
// engine writes to HDFS: the root, every job boundary, and the map-phase
// outputs feeding each boundary.
func MaterializedNodes(root *logical.Node) map[*logical.Node]bool {
	mat := map[*logical.Node]bool{root: true}
	root.Walk(func(n *logical.Node) {
		if !boundaryKind[n.Kind] {
			return
		}
		mat[n] = true
		for _, c := range n.Children {
			if c.Kind != logical.KindViewScan && c.Kind != logical.KindScan {
				mat[c] = true
			}
		}
	})
	// A bare ViewScan or Scan root is not a job.
	if root.Kind == logical.KindViewScan || root.Kind == logical.KindScan {
		delete(mat, root)
	}
	return mat
}

// stageInput sums the bytes a job reads: materialized descendants' outputs
// and views at normal scan rate, raw logs at SerDe rate.
func stageInput(n *logical.Node, mat map[*logical.Node]bool, size func(*logical.Node) int64) (normal, serde int64) {
	for _, c := range n.Children {
		switch {
		case mat[c], c.Kind == logical.KindViewScan:
			normal += size(c)
		case c.Kind == logical.KindScan:
			serde += size(c)
		default:
			cn, cs := stageInput(c, mat, size)
			normal += cn
			serde += cs
		}
	}
	return normal, serde
}

// jobSeconds costs one job from its input/output byte sizes.
func (s *Store) jobSeconds(normal, serde, out int64) float64 {
	scan := s.cfg.ScanMBps * float64(s.cfg.Nodes) * 1e6
	write := s.cfg.WriteMBps * float64(s.cfg.Nodes) * 1e6
	sec := s.cfg.StageStartup
	sec += float64(normal) / scan
	sec += float64(serde) * s.cfg.SerDeFactor / scan
	sec += float64(out) / write
	return sec
}

// Execute runs the plan, materializing every stage, charging simulated time,
// recording observed statistics, and capturing new opportunistic views.
// seq is the workload sequence number (for view bookkeeping).
func (s *Store) Execute(plan *logical.Node, seq int) (*Result, error) {
	return s.ExecuteContext(context.Background(), plan, seq)
}

// ExecuteContext runs the plan like Execute but abandons it at the next
// stage boundary once ctx is done. An abandoned execution returns a nil
// Result and an error wrapping ctx.Err(); any simulated time the caller
// had already accrued for earlier phases is its to charge (the multistore
// books it under RECOVERY).
func (s *Store) ExecuteContext(ctx context.Context, plan *logical.Node, seq int) (*Result, error) {
	p, err := s.BeginExecute(ctx, plan)
	if err != nil {
		return nil, err
	}
	return p.Commit(ctx, seq)
}

// Pending is a plan execution whose data-path compute has finished but
// whose bookkeeping — statistics records, simulated-time costing, fault
// replay, opportunistic view capture — has not been performed. The hedging
// path uses it to race the real (wall-clock) compute of the HV fallback
// plan against the DW side without publishing any state: a Pending that is
// simply dropped leaves the store byte-identical to one that never ran.
type Pending struct {
	s      *Store
	plan   *logical.Node
	out    *storage.Table
	tables map[*logical.Node]*storage.Table
	mat    map[*logical.Node]bool
}

// Table returns the computed result table (available before Commit; the
// hedge verifies it byte-identical to the other racer's output).
func (p *Pending) Table() *storage.Table { return p.out }

// Plan returns the plan whose compute finished (the rewritten HV fallback
// plan; the commit path books its views from it).
func (p *Pending) Plan() *logical.Node { return p.plan }

// BeginExecute runs only the compute phase of the plan: real tuples
// through the exec engine, charged to the attached memory ledger, with
// cooperative cancellation at every stage boundary and morsel claim. It
// performs no injector draws and mutates no store state, so concurrent
// BeginExecute calls are safe alongside a serialized query stream and an
// abandoned Pending costs nothing.
func (s *Store) BeginExecute(ctx context.Context, plan *logical.Node) (*Pending, error) {
	env := s.Env()
	env.Ctx = ctx
	mat := MaterializedNodes(plan)
	tables := map[*logical.Node]*storage.Table{}

	var run func(n *logical.Node) (*storage.Table, error)
	run = func(n *logical.Node) (*storage.Table, error) {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("hv: abandoned: %w", err)
		}
		var inputs []*storage.Table
		switch n.Kind {
		case logical.KindExtract, logical.KindViewScan:
		default:
			for _, c := range n.Children {
				t, err := run(c)
				if err != nil {
					return nil, err
				}
				inputs = append(inputs, t)
			}
		}
		t, err := exec.RunNode(n, env, inputs)
		if err != nil {
			return nil, err
		}
		// Materialized intermediates are the query's working set: charge
		// their real (raw) bytes to the ledger. The multistore releases
		// the whole ledger when the query ends.
		if err := s.gov.Reserve(t.RawBytes()); err != nil {
			return nil, err
		}
		tables[n] = t
		return t, nil
	}
	out, err := run(plan)
	if err != nil {
		return nil, fmt.Errorf("hv: executing plan: %w", err)
	}
	return &Pending{s: s, plan: plan, out: out, tables: tables, mat: mat}, nil
}

// Commit performs the deferred bookkeeping of a computed execution, in the
// caller's serialized flow: statistics records, per-stage simulated-time
// costing, the deterministic fault replay (which consumes main-injector
// draws exactly where an undeferred execution would), and opportunistic
// view capture. ExecuteContext is BeginExecute + Commit, so committing a
// hedge shadow at the point the serial fallback would have executed yields
// byte-identical state.
func (p *Pending) Commit(ctx context.Context, seq int) (*Result, error) {
	s, tables, mat, out := p.s, p.tables, p.mat, p.out

	// Iterate every map in signature order: float accumulation and view
	// capture must not depend on Go's randomized map iteration, or two
	// identical runs drift by an ULP and the durable digest diverges.
	sortedNodes := func(m map[*logical.Node]*storage.Table) []*logical.Node {
		ns := make([]*logical.Node, 0, len(m))
		for n := range m {
			ns = append(ns, n)
		}
		sort.SliceStable(ns, func(i, j int) bool { return ns[i].Signature() < ns[j].Signature() })
		return ns
	}
	allNodes := sortedNodes(tables)
	matNodes := make([]*logical.Node, 0, len(mat))
	for _, n := range allNodes {
		if _, ok := mat[n]; ok {
			matNodes = append(matNodes, n)
		}
	}

	// Record truth for every computed subtree.
	for _, n := range allNodes {
		t := tables[n]
		s.est.Record(n.Signature(), stats.Stat{Rows: int64(t.NumRows()), Bytes: t.LogicalBytes()})
	}

	res := &Result{Table: out}
	size := func(n *logical.Node) int64 {
		if n.Kind == logical.KindScan {
			log, err := s.cat.Log(n.LogName)
			if err != nil {
				return 0
			}
			return log.LogicalBytes()
		}
		if t, ok := tables[n]; ok {
			return t.LogicalBytes()
		}
		if v, ok := s.Views.Get(n.ViewName); ok {
			return v.SizeBytes()
		}
		return 0
	}
	type stageCost struct {
		sig           string
		sec, writeSec float64
	}
	var stages []stageCost
	for _, n := range matNodes {
		normal, serde := stageInput(n, mat, size)
		outBytes := tables[n].LogicalBytes()
		sec := s.jobSeconds(normal, serde, outBytes)
		res.Seconds += sec
		res.Stages++
		if s.inj.Enabled() {
			write := s.cfg.WriteMBps * float64(s.cfg.Nodes) * 1e6
			stages = append(stages, stageCost{n.Signature(), sec, float64(outBytes) / write})
		}
	}

	// Fault plane: replay each stage against the injector in signature
	// order (stages is already sorted that way). A failed stage
	// re-executes from its materialized inputs — the last job boundary —
	// so only that stage's partial work plus backoff is lost, never the
	// whole plan. This is exactly the fault tolerance the paper's
	// by-product materializations buy.
	if s.inj.Enabled() {
		for i, st := range stages {
			if err := s.recoverPhase(ctx, faults.SiteHVStage, st.sec, res); err != nil {
				return nil, fmt.Errorf("hv: stage %d/%d: %w", i+1, len(stages), err)
			}
			if err := s.recoverPhase(ctx, faults.SiteHDFSWrite, st.writeSec, res); err != nil {
				return nil, fmt.Errorf("hv: materializing stage %d/%d: %w", i+1, len(stages), err)
			}
		}
	}

	// Capture opportunistic views from stage outputs. Definitions are
	// expanded to base-data terms so future raw plans match them.
	for _, n := range matNodes {
		if n.Kind == logical.KindViewScan {
			continue
		}
		def := s.ExpandViews(n)
		if def == nil {
			continue
		}
		name := views.NameForSig(def.Signature())
		if s.captureVeto != nil && s.captureVeto(name) {
			continue
		}
		if s.Views.Has(name) {
			if v, _ := s.Views.Get(name); v != nil {
				v.LastUsedSeq = seq
			}
			continue
		}
		v := views.New(def, tables[n], seq)
		v.StampGenerations(s.logGeneration)
		s.est.RecordView(v.Name, stats.Stat{
			Rows:  int64(tables[n].NumRows()),
			Bytes: tables[n].LogicalBytes(),
		})
		s.Views.Add(v)
		res.NewViews = append(res.NewViews, v)
	}
	return res, nil
}

// recoverPhase simulates one stage phase (execution or HDFS write) under
// the injector: each injected failure wastes the completed fraction of the
// phase plus a backoff wait, all charged to RecoverySeconds. Exhausting
// the retry policy — or the query's shared retry budget, or the caller's
// deadline (no retry fits inside an expired deadline) — fails the whole
// execution with a typed fault error.
func (s *Store) recoverPhase(ctx context.Context, site faults.Site, sec float64, res *Result) error {
	for attempt := 1; ; attempt++ {
		failed, frac := s.inj.Check(site)
		if !failed {
			return nil
		}
		res.Retries++
		res.RecoverySeconds += frac*sec + s.retry.Backoff(attempt)
		f := &faults.Fault{Site: site, Op: "hv job", Attempt: attempt}
		switch {
		case attempt >= s.retry.MaxAttempts:
			return faults.Exhausted(f)
		case ctx.Err() != nil:
			return fmt.Errorf("abandoned before retry: %w", ctx.Err())
		case !s.budget.Take():
			return faults.BudgetExhausted(f)
		}
	}
}

// ExpandViews rewrites ViewScan leaves back to their base-data definitions,
// producing a definition whose signature matches raw (unrewritten) plans.
// Returns nil when a referenced view is unknown to this store.
func (s *Store) ExpandViews(n *logical.Node) *logical.Node {
	if n.Kind == logical.KindViewScan {
		v, ok := s.Views.Get(n.ViewName)
		if !ok {
			return nil
		}
		return logical.Normalize(v.Def.Clone())
	}
	c := n.Clone()
	if s.expandInPlace(c) == nil {
		return nil
	}
	return logical.Normalize(c)
}

func (s *Store) expandInPlace(n *logical.Node) *logical.Node {
	for i, c := range n.Children {
		if c.Kind == logical.KindViewScan {
			v, ok := s.Views.Get(c.ViewName)
			if !ok {
				return nil
			}
			n.Children[i] = v.Def.Clone()
			continue
		}
		if s.expandInPlace(c) == nil {
			return nil
		}
	}
	return n
}

// CostPlan estimates the simulated execution time of the plan without
// running it, using the shared estimator (what-if mode). Hypothetical views
// must have recorded sizes (RecordView) for accurate costing. The stage
// sum runs in signature order so the float64 accumulation — and therefore
// every what-if cost — is deterministic regardless of map iteration order.
func (s *Store) CostPlan(plan *logical.Node) float64 {
	if plan.Kind == logical.KindViewScan || plan.Kind == logical.KindScan {
		return 0
	}
	mat := MaterializedNodes(plan)
	stages := make([]*logical.Node, 0, len(mat))
	for n := range mat {
		stages = append(stages, n)
	}
	sort.Slice(stages, func(i, j int) bool { return stages[i].Signature() < stages[j].Signature() })
	// Memoize sizes per call so a subtree is estimated once, not once per
	// appearance as a stage input.
	sizes := map[*logical.Node]int64{}
	size := func(n *logical.Node) int64 {
		if b, ok := sizes[n]; ok {
			return b
		}
		b := s.est.Estimate(n).Bytes
		sizes[n] = b
		return b
	}
	var sec float64
	for _, n := range stages {
		normal, serde := stageInput(n, mat, size)
		sec += s.jobSeconds(normal, serde, s.est.Estimate(n).Bytes)
	}
	return sec
}

// logGeneration reports the current generation of a catalog log, for
// stamping freshly materialized views.
func (s *Store) logGeneration(name string) (int, bool) {
	log, err := s.cat.Log(name)
	if err != nil {
		return 0, false
	}
	return log.Generation, true
}

// EnforceBudget evicts least-recently-used views until the set fits in
// budgetBytes. It returns the evicted views. This implements the simple LRU
// policy used by the HV-OP and MS-LRU variants and HV temporary-space
// trimming at reorganization time; the ordering is views.EvictLRU's.
func (s *Store) EnforceBudget(budgetBytes int64) []*views.View {
	return views.EvictLRU(s.Views, budgetBytes)
}
