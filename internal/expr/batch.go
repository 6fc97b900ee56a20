package expr

import (
	"fmt"

	"miso/internal/storage"
)

// Batch is a window of rows plus lazily-transposed column vectors, the unit
// the vectorized evaluators operate on. The executor resets one Batch per
// morsel; columns are transposed from the rows only when an evaluator first
// touches them, so expressions that read two of ten columns pay for two.
//
// Like Compiled, a Batch and every BatchCompiled bound to it are
// single-goroutine: evaluators reuse closure-owned scratch vectors between
// calls, so concurrent executors must compile one evaluator chain (and
// allocate one Batch) per worker. Evaluators compiled from the same
// expression and schema are interchangeable — they compute identical
// values.
type Batch struct {
	schema *storage.Schema
	rows   []storage.Row
	cols   []storage.Vector
	built  []bool
}

// NewBatch returns a Batch for rows of the given schema.
func NewBatch(schema *storage.Schema) *Batch {
	n := len(schema.Columns)
	return &Batch{schema: schema, cols: make([]storage.Vector, n), built: make([]bool, n)}
}

// Reset points the batch at a new window of rows, invalidating all column
// vectors (their capacity is kept). Vectors previously returned by
// evaluators bound to this batch are invalid after Reset.
func (b *Batch) Reset(rows []storage.Row) {
	b.rows = rows
	for i := range b.built {
		b.built[i] = false
	}
}

// Rows returns the current row window.
func (b *Batch) Rows() []storage.Row { return b.rows }

// Len returns the number of rows in the window.
func (b *Batch) Len() int { return len(b.rows) }

// Col returns column i as a vector, transposing it from the rows on first
// access since the last Reset. The vector is owned by the batch; callers
// must not modify it.
func (b *Batch) Col(i int) *storage.Vector {
	if !b.built[i] {
		b.cols[i].FromRows(b.rows, i, b.schema.Columns[i].Type)
		b.built[i] = true
	}
	return &b.cols[i]
}

// BatchCompiled evaluates an expression over a whole batch. With sel == nil
// it evaluates every row and returns a vector of Len elements; with a
// selection vector it evaluates only rows[sel[j]] and returns a dense
// vector of len(sel) elements in selection order. The returned vector is
// scratch owned by the evaluator (or by the batch, for bare column
// references): it is valid until the next call or the next Batch.Reset, and
// must not be modified.
//
// BatchCompiled inherits Compiled's single-goroutine contract: compile one
// evaluator per worker.
type BatchCompiled func(b *Batch, sel []int32) *storage.Vector

// CompileBatch binds e to the schema and returns a batch evaluator that
// computes, for every row, exactly the value Compile's row evaluator would.
// Comparisons, arithmetic, boolean connectives, LIKE, IN, IS NULL, negation
// and constants run as vectorized per-kind kernels; subtrees the compiler
// cannot vectorize — user-defined function calls, and connectives whose
// operands contain them (to preserve short-circuit evaluation around
// non-builtin code) — fall back to the row evaluator, batched over the
// selection.
func CompileBatch(e Expr, schema *storage.Schema) (BatchCompiled, error) {
	if _, already := e.(*Const); !already && isConstExpr(e) {
		c, err := Compile(e, schema)
		if err != nil {
			return nil, err
		}
		return broadcastKernel(c(nil)), nil
	}
	return compileBatchNode(e, schema)
}

// RefineSelection compacts sel to the entries whose corresponding element
// of v (dense over sel, as produced by evaluating a predicate with sel) is
// non-NULL and true. It writes in place and returns the shortened slice.
func RefineSelection(sel []int32, v *storage.Vector) []int32 {
	out := sel[:0]
	for j := range sel {
		if null, t := truthAt(v, j); !null && t {
			out = append(out, sel[j])
		}
	}
	return out
}

// HasFunc reports whether e contains a function call (builtin or UDF)
// anywhere in its tree. Such expressions cannot be fully vectorized —
// CompileBatch routes them through a row-at-a-time fallback — so operators
// that materialize per-row results anyway may prefer the plain Compile
// path for them and skip the vector round-trip.
func HasFunc(e Expr) bool { return containsFunc(e) }

func containsFunc(e Expr) bool {
	found := false
	e.Walk(func(x Expr) {
		if _, ok := x.(*Func); ok {
			found = true
		}
	})
	return found
}

// constValueOf folds a row-independent subtree to its value at compile
// time. It mirrors Compile's folding rule: function calls never fold.
func constValueOf(e Expr, schema *storage.Schema) (storage.Value, bool) {
	if !isConstExpr(e) {
		return storage.Null, false
	}
	c, err := Compile(e, schema)
	if err != nil {
		return storage.Null, false
	}
	return c(nil), true
}

func selLen(b *Batch, sel []int32) int {
	if sel == nil {
		return b.Len()
	}
	return len(sel)
}

// truthAt returns (isNull, truthy) for element i under Value.Bool
// semantics, without materializing a Value on typed vectors.
func truthAt(v *storage.Vector, i int) (bool, bool) {
	if v.Generic() {
		val := v.Vals[i]
		return val.IsNull(), val.Bool()
	}
	if v.NullAt(i) {
		return true, false
	}
	switch v.Kind() {
	case storage.KindInt, storage.KindBool:
		return false, v.Ints[i] != 0
	case storage.KindFloat:
		return false, v.Floats[i] != 0
	case storage.KindString:
		return false, v.Strs[i] != ""
	default:
		return true, false
	}
}

func isNumericKind(k storage.Kind) bool {
	switch k {
	case storage.KindInt, storage.KindFloat, storage.KindBool:
		return true
	default:
		return false
	}
}

// typedFloat reads the float64 image of a non-NULL element of a typed
// numeric vector — the same image Compare and HashInto use.
func typedFloat(v *storage.Vector, i int) float64 {
	if v.Kind() == storage.KindFloat {
		return v.Floats[i]
	}
	return float64(v.Ints[i])
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpHolds(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "!=":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	default: // ">="
		return c >= 0
	}
}

func compileBatchNode(e Expr, schema *storage.Schema) (BatchCompiled, error) {
	switch v := e.(type) {
	case *ColRef:
		idx := schema.Index(v.Name)
		if idx < 0 {
			return nil, fmt.Errorf("expr: unknown column %q in schema %s", v.Name, schema)
		}
		kind := schema.Columns[idx].Type
		out := &storage.Vector{}
		return func(b *Batch, sel []int32) *storage.Vector {
			if sel == nil {
				return b.Col(idx)
			}
			if b.built[idx] {
				out.Gather(&b.cols[idx], sel)
				return out
			}
			out.FromRowsSel(b.rows, idx, kind, sel)
			return out
		}, nil
	case *Const:
		return broadcastKernel(v.Val), nil
	case *BinOp:
		return compileBatchBinOp(v, schema)
	case *Not:
		in, err := compileBatchNode(v.E, schema)
		if err != nil {
			return nil, err
		}
		out := &storage.Vector{}
		return func(b *Batch, sel []int32) *storage.Vector {
			x := in(b, sel)
			n := x.Len()
			out.Reset(storage.KindBool)
			for i := 0; i < n; i++ {
				if null, t := truthAt(x, i); null {
					out.AppendNull()
				} else {
					out.AppendBool(!t)
				}
			}
			return out
		}, nil
	case *Neg:
		in, err := compileBatchNode(v.E, schema)
		if err != nil {
			return nil, err
		}
		out := &storage.Vector{}
		return func(b *Batch, sel []int32) *storage.Vector {
			x := in(b, sel)
			n := x.Len()
			if !x.Generic() {
				switch x.Kind() {
				case storage.KindInt:
					out.Reset(storage.KindInt)
					for i, xi := range x.Ints {
						if x.NullAt(i) {
							out.AppendNull()
						} else {
							out.AppendInt(-xi)
						}
					}
					return out
				case storage.KindFloat:
					out.Reset(storage.KindFloat)
					for i, xf := range x.Floats {
						if x.NullAt(i) {
							out.AppendNull()
						} else {
							out.AppendFloat(-xf)
						}
					}
					return out
				}
			}
			// Generic storage, or a kind whose negation is NULL.
			out.Reset(storage.KindNull)
			for i := 0; i < n; i++ {
				xv := x.Value(i)
				switch xv.Kind {
				case storage.KindInt:
					out.Append(storage.IntValue(-xv.I))
				case storage.KindFloat:
					out.Append(storage.FloatValue(-xv.F))
				default:
					out.AppendNull()
				}
			}
			return out
		}, nil
	case *IsNull:
		in, err := compileBatchNode(v.E, schema)
		if err != nil {
			return nil, err
		}
		neg := v.Neg
		out := &storage.Vector{}
		return func(b *Batch, sel []int32) *storage.Vector {
			x := in(b, sel)
			n := x.Len()
			out.Reset(storage.KindBool)
			for i := 0; i < n; i++ {
				isNull := x.NullAt(i)
				if neg {
					isNull = !isNull
				}
				out.AppendBool(isNull)
			}
			return out
		}, nil
	case *In:
		// The row evaluator probes items lazily, so function calls inside
		// the item list must keep their short-circuit behaviour.
		for _, it := range v.Items {
			if containsFunc(it) {
				return scalarFallback(e, schema)
			}
		}
		in, err := compileBatchNode(v.E, schema)
		if err != nil {
			return nil, err
		}
		var constItems []storage.Value
		var dynItems []BatchCompiled
		for _, it := range v.Items {
			if cv, ok := constValueOf(it, schema); ok {
				constItems = append(constItems, cv)
				continue
			}
			c, err := compileBatchNode(it, schema)
			if err != nil {
				return nil, err
			}
			dynItems = append(dynItems, c)
		}
		neg := v.Neg
		out := &storage.Vector{}
		dynVecs := make([]*storage.Vector, len(dynItems))
		return func(b *Batch, sel []int32) *storage.Vector {
			x := in(b, sel)
			n := x.Len()
			for k, it := range dynItems {
				dynVecs[k] = it(b, sel)
			}
			out.Reset(storage.KindBool)
			for i := 0; i < n; i++ {
				xv := x.Value(i)
				if xv.IsNull() {
					out.AppendNull()
					continue
				}
				found := false
				for _, cv := range constItems {
					if storage.Equal(xv, cv) {
						found = true
						break
					}
				}
				if !found {
					for _, dv := range dynVecs {
						if storage.Equal(xv, dv.Value(i)) {
							found = true
							break
						}
					}
				}
				if neg {
					found = !found
				}
				out.AppendBool(found)
			}
			return out
		}, nil
	case *Func:
		return scalarFallback(e, schema)
	default:
		return nil, fmt.Errorf("expr: cannot compile %T", e)
	}
}

// broadcastKernel fills its scratch vector with one value per selected row.
func broadcastKernel(val storage.Value) BatchCompiled {
	out := &storage.Vector{}
	kind := val.Kind
	return func(b *Batch, sel []int32) *storage.Vector {
		n := selLen(b, sel)
		out.Reset(kind)
		for i := 0; i < n; i++ {
			out.Append(val)
		}
		return out
	}
}

// scalarFallback wraps the row evaluator for subtrees the vectorizer does
// not handle. The result vector declares the statically inferred kind and
// degrades to generic storage if runtime values disagree, so values
// round-trip exactly either way.
func scalarFallback(e Expr, schema *storage.Schema) (BatchCompiled, error) {
	row, err := Compile(e, schema)
	if err != nil {
		return nil, err
	}
	kind, kerr := TypeOf(e, schema)
	if kerr != nil {
		kind = storage.KindNull
	}
	out := &storage.Vector{}
	return func(b *Batch, sel []int32) *storage.Vector {
		out.Reset(kind)
		if sel == nil {
			for _, r := range b.rows {
				out.Append(row(r))
			}
		} else {
			for _, i := range sel {
				out.Append(row(b.rows[i]))
			}
		}
		return out
	}, nil
}

func compileBatchBinOp(v *BinOp, schema *storage.Schema) (BatchCompiled, error) {
	switch v.Op {
	case "AND", "OR":
		// The row evaluator short-circuits, so a function call on either
		// side must not be batch-evaluated unconditionally.
		if containsFunc(v.L) || containsFunc(v.R) {
			return scalarFallback(v, schema)
		}
		l, err := compileBatchNode(v.L, schema)
		if err != nil {
			return nil, err
		}
		r, err := compileBatchNode(v.R, schema)
		if err != nil {
			return nil, err
		}
		return logicKernel(v.Op, l, r), nil
	case "=", "!=", "<", "<=", ">", ">=":
		if cv, ok := constValueOf(v.R, schema); ok {
			l, err := compileBatchNode(v.L, schema)
			if err != nil {
				return nil, err
			}
			return compareConstKernel(v.Op, l, cv, false), nil
		}
		if cv, ok := constValueOf(v.L, schema); ok {
			r, err := compileBatchNode(v.R, schema)
			if err != nil {
				return nil, err
			}
			return compareConstKernel(v.Op, r, cv, true), nil
		}
		l, err := compileBatchNode(v.L, schema)
		if err != nil {
			return nil, err
		}
		r, err := compileBatchNode(v.R, schema)
		if err != nil {
			return nil, err
		}
		return compareVecKernel(v.Op, l, r), nil
	case "LIKE":
		l, err := compileBatchNode(v.L, schema)
		if err != nil {
			return nil, err
		}
		if cv, ok := constValueOf(v.R, schema); ok {
			return likeConstKernel(l, cv), nil
		}
		r, err := compileBatchNode(v.R, schema)
		if err != nil {
			return nil, err
		}
		return likeVecKernel(l, r), nil
	case "+", "-", "*", "/", "%":
		if cv, ok := constValueOf(v.R, schema); ok {
			l, err := compileBatchNode(v.L, schema)
			if err != nil {
				return nil, err
			}
			return arithConstKernel(v.Op, l, cv, false), nil
		}
		if cv, ok := constValueOf(v.L, schema); ok {
			r, err := compileBatchNode(v.R, schema)
			if err != nil {
				return nil, err
			}
			return arithConstKernel(v.Op, r, cv, true), nil
		}
		l, err := compileBatchNode(v.L, schema)
		if err != nil {
			return nil, err
		}
		r, err := compileBatchNode(v.R, schema)
		if err != nil {
			return nil, err
		}
		return arithVecKernel(v.Op, l, r), nil
	default:
		return nil, fmt.Errorf("expr: unknown operator %q", v.Op)
	}
}

// logicKernel evaluates AND/OR with the row evaluator's three-valued
// semantics. Both sides are evaluated for the whole batch — safe because
// function calls were excluded above and all remaining node kinds are pure.
func logicKernel(op string, l, r BatchCompiled) BatchCompiled {
	isAnd := op == "AND"
	out := &storage.Vector{}
	return func(b *Batch, sel []int32) *storage.Vector {
		lv := l(b, sel)
		rv := r(b, sel)
		n := lv.Len()
		out.Reset(storage.KindBool)
		out.Grow(n)
		for i := 0; i < n; i++ {
			lnull, lt := truthAt(lv, i)
			rnull, rt := truthAt(rv, i)
			if isAnd {
				switch {
				case (!lnull && !lt) || (!rnull && !rt):
					out.AppendBool(false)
				case lnull || rnull:
					out.AppendNull()
				default:
					out.AppendBool(true)
				}
			} else {
				switch {
				case (!lnull && lt) || (!rnull && rt):
					out.AppendBool(true)
				case lnull || rnull:
					out.AppendNull()
				default:
					out.AppendBool(false)
				}
			}
		}
		return out
	}
}

func compareConstKernel(op string, child BatchCompiled, cv storage.Value, reversed bool) BatchCompiled {
	out := &storage.Vector{}
	return func(b *Batch, sel []int32) *storage.Vector {
		x := child(b, sel)
		n := x.Len()
		out.Reset(storage.KindBool)
		out.Grow(n)
		if cv.IsNull() {
			for i := 0; i < n; i++ {
				out.AppendNull()
			}
			return out
		}
		if !x.Generic() {
			switch {
			case isNumericKind(x.Kind()) && isNumericKind(cv.Kind):
				cf, _ := cv.AsFloat()
				if x.Kind() == storage.KindFloat {
					for i, xf := range x.Floats {
						if x.NullAt(i) {
							out.AppendNull()
							continue
						}
						c := cmpFloat(xf, cf)
						if reversed {
							c = -c
						}
						out.AppendBool(cmpHolds(op, c))
					}
				} else {
					for i, xi := range x.Ints {
						if x.NullAt(i) {
							out.AppendNull()
							continue
						}
						c := cmpFloat(float64(xi), cf)
						if reversed {
							c = -c
						}
						out.AppendBool(cmpHolds(op, c))
					}
				}
				return out
			case x.Kind() == storage.KindString && cv.Kind == storage.KindString:
				cs := cv.S
				for i, s := range x.Strs {
					if x.NullAt(i) {
						out.AppendNull()
						continue
					}
					c := 0
					switch {
					case s < cs:
						c = -1
					case s > cs:
						c = 1
					}
					if reversed {
						c = -c
					}
					out.AppendBool(cmpHolds(op, c))
				}
				return out
			}
		}
		for i := 0; i < n; i++ {
			xv := x.Value(i)
			if xv.IsNull() {
				out.AppendNull()
				continue
			}
			var c int
			if reversed {
				c = storage.Compare(cv, xv)
			} else {
				c = storage.Compare(xv, cv)
			}
			out.AppendBool(cmpHolds(op, c))
		}
		return out
	}
}

func compareVecKernel(op string, l, r BatchCompiled) BatchCompiled {
	out := &storage.Vector{}
	return func(b *Batch, sel []int32) *storage.Vector {
		lv := l(b, sel)
		rv := r(b, sel)
		n := lv.Len()
		out.Reset(storage.KindBool)
		if !lv.Generic() && !rv.Generic() &&
			isNumericKind(lv.Kind()) && isNumericKind(rv.Kind()) {
			for i := 0; i < n; i++ {
				if lv.NullAt(i) || rv.NullAt(i) {
					out.AppendNull()
					continue
				}
				out.AppendBool(cmpHolds(op, cmpFloat(typedFloat(lv, i), typedFloat(rv, i))))
			}
			return out
		}
		if !lv.Generic() && !rv.Generic() &&
			lv.Kind() == storage.KindString && rv.Kind() == storage.KindString {
			for i := 0; i < n; i++ {
				if lv.NullAt(i) || rv.NullAt(i) {
					out.AppendNull()
					continue
				}
				a, bs := lv.Strs[i], rv.Strs[i]
				c := 0
				switch {
				case a < bs:
					c = -1
				case a > bs:
					c = 1
				}
				out.AppendBool(cmpHolds(op, c))
			}
			return out
		}
		for i := 0; i < n; i++ {
			a, bv := lv.Value(i), rv.Value(i)
			if a.IsNull() || bv.IsNull() {
				out.AppendNull()
				continue
			}
			out.AppendBool(cmpHolds(op, storage.Compare(a, bv)))
		}
		return out
	}
}

func likeConstKernel(l BatchCompiled, cv storage.Value) BatchCompiled {
	out := &storage.Vector{}
	pattern := cv.String()
	constNull := cv.IsNull()
	return func(b *Batch, sel []int32) *storage.Vector {
		lv := l(b, sel)
		n := lv.Len()
		out.Reset(storage.KindBool)
		if constNull {
			for i := 0; i < n; i++ {
				out.AppendNull()
			}
			return out
		}
		if !lv.Generic() && lv.Kind() == storage.KindString {
			for i, s := range lv.Strs {
				if lv.NullAt(i) {
					out.AppendNull()
				} else {
					out.AppendBool(likeMatch(s, pattern))
				}
			}
			return out
		}
		for i := 0; i < n; i++ {
			xv := lv.Value(i)
			if xv.IsNull() {
				out.AppendNull()
			} else {
				out.AppendBool(likeMatch(xv.String(), pattern))
			}
		}
		return out
	}
}

func likeVecKernel(l, r BatchCompiled) BatchCompiled {
	out := &storage.Vector{}
	return func(b *Batch, sel []int32) *storage.Vector {
		lv := l(b, sel)
		rv := r(b, sel)
		n := lv.Len()
		out.Reset(storage.KindBool)
		for i := 0; i < n; i++ {
			a, p := lv.Value(i), rv.Value(i)
			if a.IsNull() || p.IsNull() {
				out.AppendNull()
				continue
			}
			out.AppendBool(likeMatch(a.String(), p.String()))
		}
		return out
	}
}

// arithFloat applies a float-path arithmetic op with the row evaluator's
// zero-divide and modulo semantics. ok=false means NULL.
func arithFloat(op string, af, bf float64) (float64, bool) {
	switch op {
	case "+":
		return af + bf, true
	case "-":
		return af - bf, true
	case "*":
		return af * bf, true
	case "/":
		if bf == 0 {
			return 0, false
		}
		return af / bf, true
	case "%":
		if bf == 0 {
			return 0, false
		}
		return float64(int64(af) % int64(bf)), true
	default:
		return 0, false
	}
}

func arithConstKernel(op string, child BatchCompiled, cv storage.Value, reversed bool) BatchCompiled {
	out := &storage.Vector{}
	return func(b *Batch, sel []int32) *storage.Vector {
		x := child(b, sel)
		n := x.Len()
		if cv.IsNull() {
			out.Reset(storage.KindNull)
			for i := 0; i < n; i++ {
				out.AppendNull()
			}
			return out
		}
		if !x.Generic() {
			// Int×int stays in int64 (wrapping), exactly like arith's fast
			// path; everything else numeric goes through the float image.
			if x.Kind() == storage.KindInt && cv.Kind == storage.KindInt && op != "/" {
				ci := cv.I
				out.Reset(storage.KindInt)
				for i, xi := range x.Ints {
					if x.NullAt(i) {
						out.AppendNull()
						continue
					}
					a, bi := xi, ci
					if reversed {
						a, bi = ci, xi
					}
					switch op {
					case "+":
						out.AppendInt(a + bi)
					case "-":
						out.AppendInt(a - bi)
					case "*":
						out.AppendInt(a * bi)
					case "%":
						if bi == 0 {
							out.AppendNull()
						} else {
							out.AppendInt(a % bi)
						}
					}
				}
				return out
			}
			if isNumericKind(x.Kind()) && isNumericKind(cv.Kind) {
				cf, _ := cv.AsFloat()
				out.Reset(storage.KindFloat)
				for i := 0; i < n; i++ {
					if x.NullAt(i) {
						out.AppendNull()
						continue
					}
					af, bf := typedFloat(x, i), cf
					if reversed {
						af, bf = cf, af
					}
					if f, ok := arithFloat(op, af, bf); ok {
						out.AppendFloat(f)
					} else {
						out.AppendNull()
					}
				}
				return out
			}
		}
		// Generic path (mixed kinds, strings that may parse as numbers).
		out.Reset(storage.KindNull)
		for i := 0; i < n; i++ {
			xv := x.Value(i)
			if xv.IsNull() {
				out.AppendNull()
				continue
			}
			a, bv := xv, cv
			if reversed {
				a, bv = cv, xv
			}
			out.Append(arith(op, a, bv))
		}
		return out
	}
}

func arithVecKernel(op string, l, r BatchCompiled) BatchCompiled {
	out := &storage.Vector{}
	return func(b *Batch, sel []int32) *storage.Vector {
		lv := l(b, sel)
		rv := r(b, sel)
		n := lv.Len()
		if !lv.Generic() && !rv.Generic() {
			if lv.Kind() == storage.KindInt && rv.Kind() == storage.KindInt && op != "/" {
				out.Reset(storage.KindInt)
				for i, a := range lv.Ints {
					if lv.NullAt(i) || rv.NullAt(i) {
						out.AppendNull()
						continue
					}
					bi := rv.Ints[i]
					switch op {
					case "+":
						out.AppendInt(a + bi)
					case "-":
						out.AppendInt(a - bi)
					case "*":
						out.AppendInt(a * bi)
					case "%":
						if bi == 0 {
							out.AppendNull()
						} else {
							out.AppendInt(a % bi)
						}
					}
				}
				return out
			}
			if isNumericKind(lv.Kind()) && isNumericKind(rv.Kind()) {
				out.Reset(storage.KindFloat)
				for i := 0; i < n; i++ {
					if lv.NullAt(i) || rv.NullAt(i) {
						out.AppendNull()
						continue
					}
					if f, ok := arithFloat(op, typedFloat(lv, i), typedFloat(rv, i)); ok {
						out.AppendFloat(f)
					} else {
						out.AppendNull()
					}
				}
				return out
			}
		}
		out.Reset(storage.KindNull)
		for i := 0; i < n; i++ {
			a, bv := lv.Value(i), rv.Value(i)
			if a.IsNull() || bv.IsNull() {
				out.AppendNull()
				continue
			}
			out.Append(arith(op, a, bv))
		}
		return out
	}
}
