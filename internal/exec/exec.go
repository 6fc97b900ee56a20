// Package exec implements the physical operators shared by both stores:
// SerDe extraction over raw JSON logs, filter, project, hash join, hash
// aggregation, distinct, sort, and limit. Run walks a plan one operator at
// a time and materializes every intermediate. Both stores execute through
// it: hv captures stage outputs as opportunistic views, and both record
// every observed subtree size for the optimizer. Results are real tables —
// simulated time is layered on top by each store's cost model, not here.
package exec

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"miso/internal/expr"
	"miso/internal/faults"
	"miso/internal/govern"
	"miso/internal/logical"
	"miso/internal/storage"
)

// Env resolves plan leaves to stored data and selects the execution
// engine.
type Env struct {
	// ReadLog returns the raw log for a Scan leaf.
	ReadLog func(name string) (*storage.LogFile, error)
	// ReadView returns the materialized table for a ViewScan leaf.
	ReadView func(name string) (*storage.Table, error)
	// Workers selects the engine and its parallelism:
	//
	//	< 0 (SerialWorkers) — the legacy row-at-a-time serial engine,
	//	      kept as the benchmark baseline;
	//	  0 — the morsel engine with GOMAXPROCS workers (the default);
	//	  n — the morsel engine with n workers.
	//
	// Outputs are byte-identical across every setting.
	Workers int
	// MorselRows overrides the fixed morsel size (DefaultMorselRows when
	// zero). Morsel boundaries affect scheduling only, never results.
	MorselRows int
	// Stats, when non-nil, accumulates per-operator wall-clock timings
	// across every node this Env runs.
	Stats *Stats
	// Ctx, when non-nil, is the query's cancellation context. Morsel
	// workers check it at every morsel claim and merge loops poll it
	// periodically, so a canceled query releases its workers within a
	// bounded amount of residual work. Nil disables the checks.
	Ctx context.Context
	// Mem, when non-nil, is the query's memory reservation ledger:
	// operators charge it as extract buffers, hash partitions, and sort
	// keys grow, and a reservation over the limit aborts the query with
	// an error wrapping govern.ErrMemLimit. Nil disables accounting.
	Mem *govern.Ledger
	// Inj, when non-nil, is the exec-plane fault injector (worker panics,
	// memory pressure, slow-morsel stragglers). It must be a separate
	// injector from the store-level one so concurrent morsel draws never
	// perturb the serialized stage/transfer sequence (see
	// faults.Profile.ExecOnly). Nil disables injection.
	Inj *faults.Injector
}

// Run executes the plan one operator at a time, bottom-up through
// RunNode, and returns the root's result. Every output is materialized and
// charged to env.Mem at its raw size: the intermediates are the query's
// working set, and the ledger's owner releases it when the query ends.
// When tables is non-nil, Run records every computed node's output in it,
// which is how the stores learn stage outputs and observed subtree sizes.
// Cancellation and panic containment apply at every node (see RunNode).
func Run(n *logical.Node, env *Env, tables map[*logical.Node]*storage.Table) (*storage.Table, error) {
	var inputs []*storage.Table
	switch n.Kind {
	case logical.KindExtract, logical.KindViewScan, logical.KindScan:
		// Leaf-like: children resolved inside RunNode.
	default:
		inputs = make([]*storage.Table, 0, len(n.Children))
		for _, c := range n.Children {
			t, err := Run(c, env, tables)
			if err != nil {
				return nil, err
			}
			inputs = append(inputs, t)
		}
	}
	t, err := RunNode(n, env, inputs)
	if err != nil {
		return nil, err
	}
	if err := env.Mem.Reserve(t.RawBytes()); err != nil {
		return nil, err
	}
	if tables != nil {
		tables[n] = t
	}
	return t, nil
}

// RunNode executes a single operator given its children's outputs. Extract
// and ViewScan resolve their data through env and ignore inputs.
//
// Governance applies at the node boundary for every engine: a canceled
// Env.Ctx fails the node before work starts, and a panic anywhere in the
// operator — including the serial engine's inline path — is converted to
// a typed govern.ErrInternal carrying the operator name, so one bad node
// cannot kill the process or other in-flight queries.
func RunNode(n *logical.Node, env *Env, inputs []*storage.Table) (*storage.Table, error) {
	if env.Stats == nil {
		return runNodeSafe(n, env, inputs)
	}
	start := time.Now()
	t, err := runNodeSafe(n, env, inputs)
	rows := 0
	if t != nil {
		rows = len(t.Rows)
	}
	env.Stats.record(n.Kind, rows, time.Since(start))
	return t, err
}

func runNodeSafe(n *logical.Node, env *Env, inputs []*storage.Table) (t *storage.Table, err error) {
	if cerr := env.cancelErr(); cerr != nil {
		return nil, cerr
	}
	defer func() {
		if v := recover(); v != nil {
			t = nil
			err = govern.NewPanicError(n.Kind.String(), v, debug.Stack())
		}
	}()
	return runNode(n, env, inputs)
}

func runNode(n *logical.Node, env *Env, inputs []*storage.Table) (*storage.Table, error) {
	par := env.parallel()
	switch n.Kind {
	case logical.KindScan:
		return nil, fmt.Errorf("exec: bare Scan cannot execute; it is consumed by Extract")
	case logical.KindExtract:
		if par {
			return runExtractMorsel(n, env)
		}
		return runExtract(n, env)
	case logical.KindViewScan:
		if env.ReadView == nil {
			return nil, fmt.Errorf("exec: no view resolver for view %q", n.ViewName)
		}
		return env.ReadView(n.ViewName)
	case logical.KindFilter:
		if par {
			return runFilterMorsel(n, env, inputs[0])
		}
		return runFilter(n, inputs[0])
	case logical.KindProject:
		if par {
			return runProjectMorsel(n, env, inputs[0])
		}
		return runProject(n, inputs[0])
	case logical.KindJoin:
		if par {
			return runJoinMorsel(n, env, inputs[0], inputs[1])
		}
		return runJoin(n, inputs[0], inputs[1])
	case logical.KindAggregate:
		if par {
			return runAggregateMorsel(n, env, inputs[0])
		}
		return runAggregate(n, inputs[0])
	case logical.KindDistinct:
		if par {
			return runDistinctMorsel(n, env, inputs[0])
		}
		return runDistinct(n, inputs[0])
	case logical.KindSort:
		if par {
			return runSortMorsel(n, env, inputs[0])
		}
		return runSort(n, inputs[0])
	case logical.KindLimit:
		return runLimit(n, inputs[0]), nil
	default:
		return nil, fmt.Errorf("exec: unknown node kind %v", n.Kind)
	}
}

func newOutput(n *logical.Node, inputs ...*storage.Table) *storage.Table {
	t := storage.NewTable(n.Signature(), n.Schema().Clone())
	for _, in := range inputs {
		if in != nil && in.ScaleFactor > t.ScaleFactor {
			t.ScaleFactor = in.ScaleFactor
		}
	}
	return t
}

// runExtract applies the SerDe: it parses each JSON line and extracts the
// declared fields with their declared types. Missing or mistyped fields
// yield NULL, as a permissive SerDe does.
func runExtract(n *logical.Node, env *Env) (*storage.Table, error) {
	if env.ReadLog == nil {
		return nil, fmt.Errorf("exec: no log resolver")
	}
	scan := n.Children[0]
	log, err := env.ReadLog(scan.LogName)
	if err != nil {
		return nil, err
	}
	out := storage.NewTable(n.Signature(), n.Schema().Clone())
	out.ScaleFactor = log.ScaleFactor
	// Precompile computed (UDF) fields against the extract schema; they
	// reference plain fields, which come first.
	udfEvals := make([]expr.Compiled, len(n.Fields))
	for i, f := range n.Fields {
		if f.UDF == nil {
			continue
		}
		c, err := expr.Compile(f.UDF, n.Schema())
		if err != nil {
			return nil, fmt.Errorf("exec: extract UDF field %q: %w", f.OutName, err)
		}
		udfEvals[i] = c
	}
	for _, line := range log.Lines {
		dec := json.NewDecoder(strings.NewReader(line))
		dec.UseNumber()
		var rec map[string]any
		if err := dec.Decode(&rec); err != nil {
			continue // malformed record: skipped by the SerDe
		}
		row := make(storage.Row, len(n.Fields))
		for i, f := range n.Fields {
			if f.UDF == nil {
				row[i] = coerceJSON(rec[f.LogField], f.Type)
			}
		}
		for i, eval := range udfEvals {
			if eval != nil {
				row[i] = eval(row)
			}
		}
		out.MustAppend(row)
	}
	return out, nil
}

func coerceJSON(v any, want storage.Kind) storage.Value {
	switch x := v.(type) {
	case nil:
		return storage.Null
	case json.Number:
		switch want {
		case storage.KindInt:
			if i, err := x.Int64(); err == nil {
				return storage.IntValue(i)
			}
			if f, err := x.Float64(); err == nil {
				return storage.IntValue(int64(f))
			}
		case storage.KindFloat:
			if f, err := x.Float64(); err == nil {
				return storage.FloatValue(f)
			}
		case storage.KindString:
			return storage.StringValue(x.String())
		}
		return storage.Null
	case string:
		switch want {
		case storage.KindString:
			return storage.StringValue(x)
		case storage.KindInt:
			v := storage.StringValue(x)
			if i, ok := v.AsInt(); ok {
				return storage.IntValue(i)
			}
		case storage.KindFloat:
			v := storage.StringValue(x)
			if f, ok := v.AsFloat(); ok {
				return storage.FloatValue(f)
			}
		}
		return storage.Null
	case bool:
		if want == storage.KindBool {
			return storage.BoolValue(x)
		}
		return storage.Null
	default:
		return storage.Null
	}
}

func runFilter(n *logical.Node, in *storage.Table) (*storage.Table, error) {
	pred, err := expr.Compile(n.Pred, in.Schema)
	if err != nil {
		return nil, err
	}
	out := newOutput(n, in)
	for _, row := range in.Rows {
		v := pred(row)
		if !v.IsNull() && v.Bool() {
			out.MustAppend(row)
		}
	}
	return out, nil
}

func runProject(n *logical.Node, in *storage.Table) (*storage.Table, error) {
	evals := make([]expr.Compiled, len(n.Projs))
	for i, p := range n.Projs {
		c, err := expr.Compile(p.Expr, in.Schema)
		if err != nil {
			return nil, err
		}
		evals[i] = c
	}
	out := newOutput(n, in)
	for _, row := range in.Rows {
		nr := make(storage.Row, len(evals))
		for i, e := range evals {
			nr[i] = e(row)
		}
		out.MustAppend(nr)
	}
	return out, nil
}

func joinKeyIndexes(n *logical.Node, left, right *storage.Table) (lIdx, rIdx []int, err error) {
	lIdx = make([]int, len(n.LeftKeys))
	for i, k := range n.LeftKeys {
		lIdx[i] = left.Schema.Index(k)
		if lIdx[i] < 0 {
			return nil, nil, fmt.Errorf("exec: left join key %q missing from %s", k, left.Schema)
		}
	}
	rIdx = make([]int, len(n.RightKeys))
	for i, k := range n.RightKeys {
		rIdx[i] = right.Schema.Index(k)
		if rIdx[i] < 0 {
			return nil, nil, fmt.Errorf("exec: right join key %q missing from %s", k, right.Schema)
		}
	}
	return lIdx, rIdx, nil
}

func runJoin(n *logical.Node, left, right *storage.Table) (*storage.Table, error) {
	lIdx, rIdx, err := joinKeyIndexes(n, left, right)
	if err != nil {
		return nil, err
	}
	// Build on the right input.
	build := make(map[uint64][]storage.Row, len(right.Rows))
	for _, row := range right.Rows {
		h, ok := hashKeys(row, rIdx)
		if !ok {
			continue // NULL keys never match
		}
		build[h] = append(build[h], row)
	}
	out := newOutput(n, left, right)
	rWidth := right.Schema.Len()
	for _, lrow := range left.Rows {
		matched := false
		if h, ok := hashKeys(lrow, lIdx); ok {
			for _, rrow := range build[h] {
				if keysEqual(lrow, rrow, lIdx, rIdx) {
					matched = true
					nr := make(storage.Row, 0, len(lrow)+rWidth)
					nr = append(nr, lrow...)
					nr = append(nr, rrow...)
					out.MustAppend(nr)
				}
			}
		}
		if !matched && n.JoinType == logical.JoinLeft {
			nr := make(storage.Row, 0, len(lrow)+rWidth)
			nr = append(nr, lrow...)
			for i := 0; i < rWidth; i++ {
				nr = append(nr, storage.Null)
			}
			out.MustAppend(nr)
		}
	}
	return out, nil
}

// hashKeys folds the key columns into one running FNV-64a state via
// Value.HashInto — no per-row string formatting or allocations. Rows with a
// NULL key return false: NULL keys never match.
func hashKeys(row storage.Row, idx []int) (uint64, bool) {
	h := storage.HashSeed
	for _, i := range idx {
		if row[i].IsNull() {
			return 0, false
		}
		h = row[i].HashInto(h)
	}
	return h, true
}

func keysEqual(l, r storage.Row, lIdx, rIdx []int) bool {
	for i := range lIdx {
		if !storage.Equal(l[lIdx[i]], r[rIdx[i]]) {
			return false
		}
	}
	return true
}

func runDistinct(n *logical.Node, in *storage.Table) (*storage.Table, error) {
	out := newOutput(n, in)
	seen := make(map[string]bool, len(in.Rows))
	var keyBuf []byte
	for _, row := range in.Rows {
		keyBuf = keyBuf[:0]
		for _, v := range row {
			keyBuf = appendTaggedKey(keyBuf, v)
			keyBuf = append(keyBuf, 0)
		}
		if !seen[string(keyBuf)] {
			seen[string(keyBuf)] = true
			out.MustAppend(row)
		}
	}
	return out, nil
}

func runSort(n *logical.Node, in *storage.Table) (*storage.Table, error) {
	keys := make([]expr.Compiled, len(n.SortKeys))
	for i, k := range n.SortKeys {
		c, err := expr.Compile(k.Expr, in.Schema)
		if err != nil {
			return nil, err
		}
		keys[i] = c
	}
	out := newOutput(n, in)
	out.Rows = make([]storage.Row, len(in.Rows))
	copy(out.Rows, in.Rows)
	sort.SliceStable(out.Rows, func(i, j int) bool {
		for k, key := range keys {
			c := storage.Compare(key(out.Rows[i]), key(out.Rows[j]))
			if n.SortKeys[k].Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		// Full-row tie-break: equal-key orderings must not depend on how
		// rows happened to arrive, or they would drift between engines.
		// Fully identical rows fall through to stable input order.
		return compareRowsFull(out.Rows[i], out.Rows[j]) < 0
	})
	// Rows were copied, not appended; recompute the byte accounting.
	rebuilt := newOutput(n, in)
	for _, r := range out.Rows {
		rebuilt.MustAppend(r)
	}
	return rebuilt, nil
}

// compareRowsFull orders two rows of the same schema column-wise; it is the
// sort tie-break shared by both engines.
func compareRowsFull(a, b storage.Row) int {
	for i := range a {
		if c := storage.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

func runLimit(n *logical.Node, in *storage.Table) *storage.Table {
	out := newOutput(n, in)
	limit := n.LimitN
	if limit > len(in.Rows) {
		limit = len(in.Rows)
	}
	for _, row := range in.Rows[:limit] {
		out.MustAppend(row)
	}
	return out
}
