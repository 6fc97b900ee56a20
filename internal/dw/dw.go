// Package dw simulates the parallel data warehouse: a hash-partitioned
// RDBMS with far better query performance than HV once data is loaded.
// The store has two table spaces: permanent space holds the DW side of the
// multistore design (views placed by the tuner), temporary space holds
// working sets migrated during query execution, discarded when the query
// ends. DW cannot execute UDFs. Cost is modeled as a small per-query
// startup plus bytes processed through high per-node throughput — the
// asymmetry against HV that drives every result in the paper.
package dw

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"miso/internal/exec"
	"miso/internal/expr"
	"miso/internal/faults"
	"miso/internal/govern"
	"miso/internal/logical"
	"miso/internal/stats"
	"miso/internal/storage"
	"miso/internal/views"
)

// Typed errors callers match with errors.Is.
var (
	// ErrNoSuchTable marks a name found in neither permanent nor temp space.
	ErrNoSuchTable = errors.New("dw: no such table in permanent or temp space")
	// ErrNoBaseLogs marks an attempt to scan raw logs inside DW.
	ErrNoBaseLogs = errors.New("dw: DW holds no base logs")
	// ErrUDF marks a plan containing a UDF, which only HV can execute.
	ErrUDF = errors.New("dw: plan contains a UDF, which only HV can execute")
)

// Config calibrates the DW cluster and cost model.
type Config struct {
	// Nodes is the cluster size (9 in the paper).
	Nodes int
	// Startup is the fixed per-query overhead in seconds.
	Startup float64
	// ScanMBps is the per-node processing throughput.
	ScanMBps float64
	// IndexSelectivityFloor bounds how much an index scan can skip; the
	// loader builds an index on each permanent view's leading column.
	IndexSelectivityFloor float64
	// ExecWorkers selects the execution engine (exec.Env.Workers
	// semantics): 0 runs the morsel engine with GOMAXPROCS workers (the
	// default), n > 0 bounds the pool, and exec.SerialWorkers selects the
	// legacy serial engine. Results are byte-identical at every setting.
	ExecWorkers int
}

// DefaultConfig matches the paper's 9-node commercial parallel row store.
func DefaultConfig() Config {
	return Config{
		Nodes:                 9,
		Startup:               0.5,
		ScanMBps:              450,
		IndexSelectivityFloor: 0.05,
	}
}

// Result reports one (sub)plan execution in DW.
type Result struct {
	Table   *storage.Table
	Seconds float64
}

// Store is the DW instance. Temporary table space is guarded by an
// internal mutex so the serving layer's observers race neither with
// staging nor with the end-of-query cleanup; the Views set is internally
// locked itself, and reassignment of the Views field is serialized by the
// multistore system's mutex.
type Store struct {
	cfg       Config
	est       *stats.Estimator
	execStats *exec.Stats
	execInj   *faults.Injector
	gov       *govern.Ledger

	// Views is the permanent table space: the DW side of the multistore
	// design.
	Views *views.Set

	mu   sync.Mutex
	temp map[string]*storage.Table
}

// NewStore creates an empty DW store.
func NewStore(cfg Config, est *stats.Estimator) *Store {
	return &Store{cfg: cfg, est: est, Views: views.NewSet(), temp: map[string]*storage.Table{}}
}

// Config returns the store configuration.
func (s *Store) Config() Config { return s.cfg }

// StageTemp registers a migrated working set under the given name in
// temporary table space (not part of the physical design).
func (s *Store) StageTemp(name string, t *storage.Table) {
	s.mu.Lock()
	s.temp[name] = t
	s.mu.Unlock()
	s.est.RecordView(name, stats.Stat{Rows: int64(t.NumRows()), Bytes: t.LogicalBytes()})
}

// ClearTemp discards all temporary tables (end of query).
func (s *Store) ClearTemp() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.temp = map[string]*storage.Table{}
}

// Resolve finds a table by view name in permanent then temporary space.
func (s *Store) Resolve(name string) (*storage.Table, error) {
	if v, ok := s.Views.Get(name); ok {
		return v.Table, nil
	}
	s.mu.Lock()
	t, ok := s.temp[name]
	s.mu.Unlock()
	if ok {
		return t, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
}

// SetExecStats attaches a per-operator timing collector to every Env this
// store hands out (nil detaches).
func (s *Store) SetExecStats(st *exec.Stats) { s.execStats = st }

// SetExecFaults arms the exec engine's fault sites with their own
// injector, separate from the store-level one (see hv.Store.SetExecFaults).
func (s *Store) SetExecFaults(inj *faults.Injector) { s.execInj = inj }

// SetGovernor attaches the current query's memory ledger to every Env the
// store hands out; the multistore sets it per query and clears it after.
func (s *Store) SetGovernor(l *govern.Ledger) { s.gov = l }

// Env returns the execution environment. DW has no raw logs: plans must
// bottom out in ViewScans over permanent views or staged temp tables.
func (s *Store) Env() *exec.Env {
	return &exec.Env{
		ReadLog: func(name string) (*storage.LogFile, error) {
			return nil, fmt.Errorf("%w: cannot scan raw log %q", ErrNoBaseLogs, name)
		},
		ReadView: s.Resolve,
		Workers:  s.cfg.ExecWorkers,
		Stats:    s.execStats,
		Mem:      s.gov,
		Inj:      s.execInj,
	}
}

// Execute runs a subplan entirely inside DW. The plan must be UDF-free and
// leaf only on resolvable views/temp tables.
func (s *Store) Execute(plan *logical.Node) (*Result, error) {
	return s.ExecuteContext(context.Background(), plan)
}

// ExecuteContext runs a subplan inside DW, abandoning it at the next
// operator boundary once ctx is done (the error then wraps ctx.Err()).
func (s *Store) ExecuteContext(ctx context.Context, plan *logical.Node) (*Result, error) {
	if plan.UsesUDF() {
		return nil, ErrUDF
	}
	env := s.Env()
	env.Ctx = ctx
	tables := map[*logical.Node]*storage.Table{}
	var run func(n *logical.Node) (*storage.Table, error)
	run = func(n *logical.Node) (*storage.Table, error) {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("dw: abandoned: %w", err)
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
		// Intermediates pipelined through DW are still real memory: charge
		// their raw bytes; the multistore releases the ledger at query end.
		if err := s.gov.Reserve(t.RawBytes()); err != nil {
			return nil, err
		}
		tables[n] = t
		return t, nil
	}
	out, err := run(plan)
	if err != nil {
		return nil, fmt.Errorf("dw: executing plan: %w", err)
	}
	for n, t := range tables {
		s.est.Record(n.Signature(), stats.Stat{Rows: int64(t.NumRows()), Bytes: t.LogicalBytes()})
	}
	sec := s.costFromSizes(plan, func(n *logical.Node) int64 {
		if t, ok := tables[n]; ok {
			return t.LogicalBytes()
		}
		return 0
	})
	return &Result{Table: out, Seconds: sec}, nil
}

// CostPlan estimates execution time without running the plan (what-if
// mode). This is the store's "what-if interface" in the paper's terms: its
// optimizer units are already normalized to seconds.
func (s *Store) CostPlan(plan *logical.Node) float64 {
	return s.CostPlanWith(plan, nil)
}

// CostPlanWith costs like CostPlan but resolves node sizes through a local
// stat overlay (signature -> stat) before the shared estimator cache. The
// optimizer uses it to cost DW remainders that read hypothetical migrated
// working sets (ws_0, ws_1, ...) without publishing their stats, keeping
// the what-if path read-only and safe for concurrent use.
func (s *Store) CostPlanWith(plan *logical.Node, overlay map[string]stats.Stat) float64 {
	// The cost walk sizes each node once per parent visit; memoize per
	// call so a node's subtree is estimated once, not once per appearance
	// as an input.
	sizes := map[*logical.Node]int64{}
	return s.costFromSizes(plan, func(n *logical.Node) int64 {
		if b, ok := sizes[n]; ok {
			return b
		}
		b := s.est.EstimateWith(n, overlay).Bytes
		sizes[n] = b
		return b
	})
}

// costFromSizes charges each operator its input bytes through the cluster
// throughput. Filters directly over an indexed permanent view scan less.
func (s *Store) costFromSizes(plan *logical.Node, size func(*logical.Node) int64) float64 {
	throughput := s.cfg.ScanMBps * float64(s.cfg.Nodes) * 1e6
	var bytes float64
	var walk func(n *logical.Node)
	walk = func(n *logical.Node) {
		for _, c := range n.Children {
			walk(c)
			b := float64(size(c))
			if n.Kind == logical.KindFilter && c.Kind == logical.KindViewScan {
				if sel, ok := s.indexSelectivity(n, c); ok {
					b *= sel
				}
			}
			bytes += b
		}
	}
	walk(plan)
	// The root's output is returned to the client; charge it once.
	bytes += float64(size(plan))
	return s.cfg.Startup + bytes/throughput
}

// indexSelectivity reports the fraction of an indexed view a filter must
// read, when the filter constrains the view's leading column with an
// equality or IN predicate. Only permanent views are indexed (the tuner
// builds the index at load time); temp tables are not.
func (s *Store) indexSelectivity(filter, scan *logical.Node) (float64, bool) {
	v, ok := s.Views.Get(scan.ViewName)
	if !ok || v.Table.Schema.Len() == 0 {
		return 0, false
	}
	lead := v.Table.Schema.Columns[0].Name
	for _, c := range expr.Conjuncts(filter.Pred) {
		switch e := c.(type) {
		case *expr.BinOp:
			if e.Op != "=" {
				continue
			}
			if refsColumn(e.L, lead) || refsColumn(e.R, lead) {
				return s.floorSel(0.1), true
			}
		case *expr.In:
			if !e.Neg && refsColumn(e.E, lead) {
				return s.floorSel(0.1 * float64(len(e.Items))), true
			}
		}
	}
	return 0, false
}

func (s *Store) floorSel(sel float64) float64 {
	if sel < s.cfg.IndexSelectivityFloor {
		return s.cfg.IndexSelectivityFloor
	}
	if sel > 1 {
		return 1
	}
	return sel
}

func refsColumn(e expr.Expr, name string) bool {
	c, ok := e.(*expr.ColRef)
	return ok && c.Name == name
}
