// Package logical defines the logical query plan: a DAG of relational
// operators built from the parsed HiveQL AST. Plans carry canonical
// signatures used to identify opportunistic materialized views, and
// descriptors that support subsumption-based view matching. The package is
// store-agnostic; the hv and dw engines execute (sub)plans, and the
// multistore optimizer chooses where each part runs.
package logical

import (
	"fmt"
	"sort"
	"strings"

	"miso/internal/expr"
	"miso/internal/storage"
)

// Kind enumerates logical operator kinds.
type Kind int

// Operator kinds.
const (
	KindScan Kind = iota
	KindExtract
	KindFilter
	KindProject
	KindJoin
	KindAggregate
	KindDistinct
	KindSort
	KindLimit
	KindViewScan
)

// String returns the lower-case operator name.
func (k Kind) String() string {
	switch k {
	case KindScan:
		return "scan"
	case KindExtract:
		return "extract"
	case KindFilter:
		return "filter"
	case KindProject:
		return "project"
	case KindJoin:
		return "join"
	case KindAggregate:
		return "aggregate"
	case KindDistinct:
		return "distinct"
	case KindSort:
		return "sort"
	case KindLimit:
		return "limit"
	case KindViewScan:
		return "viewscan"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// JoinType distinguishes inner from left outer joins.
type JoinType int

// Join types.
const (
	JoinInner JoinType = iota
	JoinLeft
)

func (t JoinType) String() string {
	if t == JoinLeft {
		return "left"
	}
	return "inner"
}

// ExtractField maps one raw log field — or a UDF computed over this log's
// fields — to an output column. UDF fields model Hive's map-phase UDF
// application: the SerDe extracts the raw fields and the user code runs in
// the same pass. A view materialized from such an extract carries the UDF
// results as plain data, which is how DW can answer UDF-derived predicates
// without ever executing user code.
type ExtractField struct {
	LogField string
	OutName  string
	Type     storage.Kind
	// UDF, when non-nil, is the computed expression (over this extract's
	// plain fields) instead of a raw log field.
	UDF expr.Expr
}

// Proj is one computed output column.
type Proj struct {
	Expr expr.Expr
	Name string
}

// AggSpec is one aggregate computation.
type AggSpec struct {
	Func     string // COUNT, SUM, AVG, MIN, MAX
	Arg      expr.Expr
	Star     bool
	Distinct bool
	Name     string
}

// Canon returns the canonical form of the aggregate. The encoding matches
// what the builder produces for aggregate calls in scalar position
// (FUNC[_STAR][_DISTINCT](args)) so substitution by canonical identity works.
func (a AggSpec) Canon() string {
	name := a.Func
	if a.Star {
		name += "_STAR"
	}
	if a.Distinct {
		name += "_DISTINCT"
	}
	if a.Star {
		return name + "()"
	}
	return name + "(" + a.Arg.Canon() + ")"
}

// SortKey is one ORDER BY key over the child's output columns.
type SortKey struct {
	Expr expr.Expr
	Desc bool
}

// Node is one logical operator. Exactly the fields for its Kind are set.
type Node struct {
	Kind     Kind
	Children []*Node

	LogName string         // Scan
	Fields  []ExtractField // Extract

	Pred expr.Expr // Filter

	Projs []Proj // Project

	JoinType  JoinType // Join
	LeftKeys  []string
	RightKeys []string

	GroupBy []Proj    // Aggregate: grouping expressions with output names
	Aggs    []AggSpec // Aggregate: aggregate outputs

	SortKeys []SortKey // Sort
	LimitN   int       // Limit

	ViewName   string // ViewScan: name of the materialized view
	ViewSchema *storage.Schema

	schema *storage.Schema // computed output schema
	sig    string          // memoized signature
}

// Child returns the i-th child.
func (n *Node) Child(i int) *Node { return n.Children[i] }

// Schema returns the node's output schema (computed by the builder).
func (n *Node) Schema() *storage.Schema { return n.schema }

// SetSchema installs the output schema; used by the builder and by rewrites.
func (n *Node) SetSchema(s *storage.Schema) { n.schema = s }

// Walk visits the node and all descendants pre-order.
func (n *Node) Walk(fn func(*Node)) {
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Nodes returns all nodes in the subtree, pre-order.
func (n *Node) Nodes() []*Node {
	var out []*Node
	n.Walk(func(m *Node) { out = append(out, m) })
	return out
}

// PrewarmSignatures computes and memoizes the signature of every node in
// the subtree. Signature caches lazily into the node on first call, which
// is a benign write on a single goroutine but a data race when multiple
// goroutines first touch a shared plan concurrently — the tuner prewarms
// its window's plans serially before fanning what-if probes out to a
// worker pool.
func (n *Node) PrewarmSignatures() {
	n.Walk(func(m *Node) { m.Signature() })
}

// UsesUDFHere reports whether this node's own expressions call a UDF.
func (n *Node) UsesUDFHere() bool {
	check := func(e expr.Expr) bool { return e != nil && expr.UsesUDF(e) }
	switch n.Kind {
	case KindExtract:
		for _, f := range n.Fields {
			if f.UDF != nil {
				return true
			}
		}
	case KindFilter:
		return check(n.Pred)
	case KindProject:
		for _, p := range n.Projs {
			if check(p.Expr) {
				return true
			}
		}
	case KindAggregate:
		for _, g := range n.GroupBy {
			if check(g.Expr) {
				return true
			}
		}
		for _, a := range n.Aggs {
			if !a.Star && check(a.Arg) {
				return true
			}
		}
	case KindSort:
		for _, k := range n.SortKeys {
			if check(k.Expr) {
				return true
			}
		}
	}
	return false
}

// UsesUDF reports whether any node in the subtree calls a UDF. Such
// subtrees are pinned to HV by the multistore optimizer.
func (n *Node) UsesUDF() bool {
	found := false
	n.Walk(func(m *Node) {
		if m.UsesUDFHere() {
			found = true
		}
	})
	return found
}

// Signature returns the canonical structural signature of the subtree.
// Conjuncts of filters are sorted so AND order does not matter; extract
// fields are sorted by the builder. Two subtrees with equal signatures
// compute the same relation with the same column set.
func (n *Node) Signature() string {
	if n.sig != "" {
		return n.sig
	}
	var b strings.Builder
	switch n.Kind {
	case KindScan:
		fmt.Fprintf(&b, "scan(%s)", n.LogName)
	case KindExtract:
		fields := make([]string, len(n.Fields))
		for i, f := range n.Fields {
			if f.UDF != nil {
				fields[i] = "udf:" + f.UDF.Canon() + ">" + f.OutName
			} else {
				fields[i] = f.LogField + ">" + f.OutName
			}
		}
		fmt.Fprintf(&b, "extract(%s,[%s])", n.Children[0].Signature(), strings.Join(fields, ","))
	case KindFilter:
		cs := expr.Conjuncts(n.Pred)
		canon := make([]string, len(cs))
		for i, c := range cs {
			canon[i] = c.Canon()
		}
		sort.Strings(canon)
		fmt.Fprintf(&b, "filter(%s,[%s])", n.Children[0].Signature(), strings.Join(canon, "&"))
	case KindProject:
		ps := make([]string, len(n.Projs))
		for i, p := range n.Projs {
			ps[i] = p.Expr.Canon() + ">" + p.Name
		}
		fmt.Fprintf(&b, "project(%s,[%s])", n.Children[0].Signature(), strings.Join(ps, ","))
	case KindJoin:
		keys := make([]string, len(n.LeftKeys))
		for i := range n.LeftKeys {
			keys[i] = n.LeftKeys[i] + "=" + n.RightKeys[i]
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "join(%s,%s,%s,[%s])", n.JoinType,
			n.Children[0].Signature(), n.Children[1].Signature(), strings.Join(keys, ","))
	case KindAggregate:
		gs := make([]string, len(n.GroupBy))
		for i, g := range n.GroupBy {
			gs[i] = g.Expr.Canon() + ">" + g.Name
		}
		as := make([]string, len(n.Aggs))
		for i, a := range n.Aggs {
			as[i] = a.Canon() + ">" + a.Name
		}
		fmt.Fprintf(&b, "agg(%s,gb=[%s],aggs=[%s])", n.Children[0].Signature(),
			strings.Join(gs, ","), strings.Join(as, ","))
	case KindDistinct:
		fmt.Fprintf(&b, "distinct(%s)", n.Children[0].Signature())
	case KindSort:
		ks := make([]string, len(n.SortKeys))
		for i, k := range n.SortKeys {
			dir := "asc"
			if k.Desc {
				dir = "desc"
			}
			ks[i] = k.Expr.Canon() + ":" + dir
		}
		fmt.Fprintf(&b, "sort(%s,[%s])", n.Children[0].Signature(), strings.Join(ks, ","))
	case KindLimit:
		fmt.Fprintf(&b, "limit(%s,%d)", n.Children[0].Signature(), n.LimitN)
	case KindViewScan:
		fmt.Fprintf(&b, "viewscan(%s)", n.ViewName)
	}
	n.sig = b.String()
	return n.sig
}

// String renders an indented operator tree for debugging.
func (n *Node) String() string {
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

func (n *Node) render(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	switch n.Kind {
	case KindScan:
		fmt.Fprintf(b, "Scan %s", n.LogName)
	case KindExtract:
		names := make([]string, len(n.Fields))
		for i, f := range n.Fields {
			names[i] = f.OutName
		}
		fmt.Fprintf(b, "Extract [%s]", strings.Join(names, ", "))
	case KindFilter:
		fmt.Fprintf(b, "Filter %s", n.Pred.Canon())
	case KindProject:
		names := make([]string, len(n.Projs))
		for i, p := range n.Projs {
			names[i] = p.Name
		}
		fmt.Fprintf(b, "Project [%s]", strings.Join(names, ", "))
	case KindJoin:
		keys := make([]string, len(n.LeftKeys))
		for i := range n.LeftKeys {
			keys[i] = n.LeftKeys[i] + "=" + n.RightKeys[i]
		}
		fmt.Fprintf(b, "Join(%s) on %s", n.JoinType, strings.Join(keys, " AND "))
	case KindAggregate:
		fmt.Fprintf(b, "Aggregate groups=%d aggs=%d", len(n.GroupBy), len(n.Aggs))
	case KindDistinct:
		b.WriteString("Distinct")
	case KindSort:
		fmt.Fprintf(b, "Sort keys=%d", len(n.SortKeys))
	case KindLimit:
		fmt.Fprintf(b, "Limit %d", n.LimitN)
	case KindViewScan:
		fmt.Fprintf(b, "ViewScan %s", n.ViewName)
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		c.render(b, depth+1)
	}
}

// Clone deep-copies the plan tree. Expressions and schemas are shared
// (both are immutable once built).
func (n *Node) Clone() *Node {
	c := *n
	c.sig = ""
	c.Children = make([]*Node, len(n.Children))
	for i, ch := range n.Children {
		c.Children[i] = ch.Clone()
	}
	// The schema pointer is shared: schemas are immutable once built —
	// every rewrite installs a freshly constructed schema via SetSchema —
	// so the deep copy was pure overhead on the optimizer's clone-heavy
	// plan enumeration path.
	return &c
}

// CloneShallow copies only the node itself: the schema pointer is shared
// (as in Clone) and Children is a fresh slice still holding the original
// child pointers. Rewrites that overwrite every child slot use it to
// avoid cloning subtrees that are about to be replaced; unchanged
// subtrees are then shared between the original and rewritten plans,
// which is safe because plan nodes are never mutated after construction.
func (n *Node) CloneShallow() *Node {
	c := *n
	c.sig = ""
	c.Children = append([]*Node(nil), n.Children...)
	return &c
}
