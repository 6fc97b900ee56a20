// Morsel-engine operators. Every operator here carries the same
// determinism contract: its output is byte-identical to the legacy serial
// operator at any worker count and any morsel size. Filter/Project merge
// per-morsel buffers in morsel order; Join partitions its build side by key
// hash but keeps every per-key row list in build-input order; Distinct and
// Sort recover the serial order from recorded input positions.
//
// Governance contract: operators charge the query's memory ledger (when
// one is attached) as their transient state grows — chunk buffers, hash
// partitions, precomputed key arrays — and release it once the output is
// materialized; a reservation over the limit aborts the operator with
// govern.ErrMemLimit. Merge loops poll cancellation every cancelPollRows
// rows. With governance disabled every charge and poll is a nil no-op and
// results are byte-identical to the ungoverned engine.
package exec

import (
	"math"
	"sort"
	"strconv"
	"sync/atomic"

	"miso/internal/expr"
	"miso/internal/govern"
	"miso/internal/logical"
	"miso/internal/storage"
)

// partitions is the fixed fan-out of the partitioned hash Join, Aggregate
// and Distinct. It is a power of two so partition assignment is a mask, and
// it is independent of the worker count so results cannot drift with
// parallelism.
const partitions = 16

// Ledger charge approximations for transient operator state. Referenced
// rows are charged per retained reference (the rows themselves belong to
// the input table); newly built rows are charged at their encoded size.
const (
	refRowCost = 8  // bytes per retained row reference
	idxCost    = 4  // bytes per int32 row index
	hashCost   = 8  // bytes per uint64 row hash
	valueCost  = 24 // bytes per precomputed storage.Value (keys)
	vecKeyCost = 16 // bytes per typed key-vector element (sort columns)
	groupCost  = 64 // fixed overhead per hash-table group entry
)

// rowsEncodedSize sums the encoded size of newly materialized rows.
func rowsEncodedSize(rows []storage.Row) int64 {
	var n int64
	for _, r := range rows {
		n += r.EncodedSize()
	}
	return n
}

// compileWorkers compiles e once per worker (Compiled evaluators are
// single-goroutine).
func compileWorkers(e expr.Expr, schema *storage.Schema, workers int) ([]expr.Compiled, error) {
	out := make([]expr.Compiled, workers)
	for w := 0; w < workers; w++ {
		c, err := expr.Compile(e, schema)
		if err != nil {
			return nil, err
		}
		out[w] = c
	}
	return out, nil
}

// compileBatchWorkers compiles a batch evaluator once per worker
// (BatchCompiled evaluators own scratch vectors and are single-goroutine).
func compileBatchWorkers(e expr.Expr, schema *storage.Schema, workers int) ([]expr.BatchCompiled, error) {
	out := make([]expr.BatchCompiled, workers)
	for w := 0; w < workers; w++ {
		c, err := expr.CompileBatch(e, schema)
		if err != nil {
			return nil, err
		}
		out[w] = c
	}
	return out, nil
}

// newBatchWorkers allocates one Batch per worker over the given schema.
func newBatchWorkers(schema *storage.Schema, workers int) []*expr.Batch {
	out := make([]*expr.Batch, workers)
	for w := range out {
		out[w] = expr.NewBatch(schema)
	}
	return out
}

// opWorkers clamps the worker count to the morsel count so per-worker
// compilation and scratch are not paid for workers that would never claim a
// morsel (forEachMorsel applies the same clamp when scheduling).
func opWorkers(env *Env, nRows int) int {
	workers := env.workerCount()
	if mc := morselCount(nRows, env.morselRows()); workers > mc {
		workers = mc
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// appendChunks merges per-morsel buffers in morsel order, polling
// cancellation as it goes.
func appendChunks(env *Env, out *storage.Table, chunks [][]storage.Row) (*storage.Table, error) {
	sincePoll := 0
	for _, c := range chunks {
		for _, r := range c {
			out.MustAppend(r)
		}
		sincePoll += len(c)
		if sincePoll >= cancelPollRows {
			sincePoll = 0
			if err := env.cancelErr(); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// appendBlocks merges per-morsel buffers whose encoded byte sizes were
// already computed for the ledger reservation, bulk-appending each block
// into a presized output — no per-row append and no repeat of the per-row
// size walk — and polling cancellation between blocks.
func appendBlocks(env *Env, out *storage.Table, chunks [][]storage.Row, sizes []int64) (*storage.Table, error) {
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	out.Rows = make([]storage.Row, 0, total)
	sincePoll := 0
	for m, c := range chunks {
		out.AppendBlock(c, sizes[m])
		if sincePoll += len(c); sincePoll >= cancelPollRows {
			sincePoll = 0
			if err := env.cancelErr(); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// runFilterMorsel is the columnar filter: each morsel evaluates the
// predicate batch-at-a-time over lazily transposed column vectors and marks
// survivors in a selection vector instead of copying rows. All morsels
// share one preallocated selection buffer — morsel m's survivors land in
// selBuf[start:start+counts[m]], disjoint by construction — so no
// per-morsel buffer is allocated or grown, which is what removed the
// partition-merge allocation regression. Survivors are appended as row
// references in morsel order, byte-identical to the serial engine.
func runFilterMorsel(n *logical.Node, env *Env, in *storage.Table) (*storage.Table, error) {
	nRows := len(in.Rows)
	mr := env.morselRows()
	workers := opWorkers(env, nRows)
	preds, err := compileBatchWorkers(n.Pred, in.Schema, workers)
	if err != nil {
		return nil, err
	}
	batches := newBatchWorkers(in.Schema, workers)
	sc := env.scope()
	defer sc.Release()
	if err := env.reserve(sc, idxCost*int64(nRows)); err != nil {
		return nil, err
	}
	selBuf := make([]int32, nRows)
	counts := make([]int, morselCount(nRows, mr))
	sizes := make([]int64, len(counts))
	err = forEachMorsel(env, "filter", workers, nRows, mr, func(w, m, start, end int) error {
		b := batches[w]
		b.Reset(in.Rows[start:end])
		vec := preds[w](b, nil)
		sel := vec.TruesInto(selBuf[start:start:end], int32(start))
		counts[m] = len(sel)
		// Size the survivors here, in parallel, so the ordered merge
		// below only copies row references.
		for _, i := range sel {
			sizes[m] += in.Rows[i].EncodedSize()
		}
		return env.reserve(sc, refRowCost*int64(len(sel)))
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	env.recordColumnar(logical.KindFilter, int64(len(counts)), int64(nRows))
	out := newOutput(n, in)
	out.Rows = make([]storage.Row, 0, total)
	sincePoll := 0
	for m, c := range counts {
		start := m * mr
		out.AppendSelected(in.Rows, selBuf[start:start+c], sizes[m])
		if sincePoll += c; sincePoll >= cancelPollRows {
			sincePoll = 0
			if err := env.cancelErr(); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// runProjectMorsel is the columnar projection: each morsel batch-evaluates
// every projection (vectorized kernels where possible, row fallback for
// UDFs) and materializes the output rows into one flat value arena per
// morsel — two allocations per morsel instead of one per row.
func runProjectMorsel(n *logical.Node, env *Env, in *storage.Table) (*storage.Table, error) {
	nRows := len(in.Rows)
	mr := env.morselRows()
	workers := opWorkers(env, nRows)
	workerEvals := make([][]projEval, workers)
	for w := 0; w < workers; w++ {
		evals, err := compileProjEvals(n.Projs, in.Schema)
		if err != nil {
			return nil, err
		}
		workerEvals[w] = evals
	}
	batches := newBatchWorkers(in.Schema, workers)
	width := len(n.Projs)
	sc := env.scope()
	defer sc.Release()
	chunks := make([][]storage.Row, morselCount(nRows, mr))
	sizes := make([]int64, len(chunks))
	err := forEachMorsel(env, "project", workers, nRows, mr, func(w, m, start, end int) error {
		b := batches[w]
		b.Reset(in.Rows[start:end])
		buf := materializeBatch(b, nil, workerEvals[w], width)
		sz := rowsEncodedSize(buf)
		if err := env.reserve(sc, sz); err != nil {
			return err
		}
		chunks[m], sizes[m] = buf, sz
		return nil
	})
	if err != nil {
		return nil, err
	}
	env.recordColumnar(logical.KindProject, int64(len(chunks)), int64(nRows))
	return appendBlocks(env, newOutput(n, in), chunks, sizes)
}

// projEval is one projection column's evaluator. Expressions that compile
// to batch kernels end-to-end evaluate vectorized; expressions containing
// a function call evaluate row-at-a-time directly into the output — for
// them a vector round-trip would only add copying on top of the same
// per-row work.
type projEval struct {
	batch expr.BatchCompiled
	row   expr.Compiled
}

// compileProjEvals compiles one projection list for one worker.
func compileProjEvals(projs []logical.Proj, schema *storage.Schema) ([]projEval, error) {
	evals := make([]projEval, len(projs))
	for i, p := range projs {
		if expr.HasFunc(p.Expr) {
			c, err := expr.Compile(p.Expr, schema)
			if err != nil {
				return nil, err
			}
			evals[i].row = c
			continue
		}
		c, err := expr.CompileBatch(p.Expr, schema)
		if err != nil {
			return nil, err
		}
		evals[i].batch = c
	}
	return evals, nil
}

// materializeBatch evaluates the projection list over (b, sel) and carves
// the output rows out of one flat value slice. The rows alias the slice;
// they are immutable once returned, like every materialized row.
func materializeBatch(b *expr.Batch, sel []int32, evals []projEval, width int) []storage.Row {
	nOut := b.Len()
	if sel != nil {
		nOut = len(sel)
	}
	flat := make([]storage.Value, nOut*width)
	inRows := b.Rows()
	for k := range evals {
		if ev := evals[k].batch; ev != nil {
			vec := ev(b, sel)
			for j := 0; j < nOut; j++ {
				flat[j*width+k] = vec.Value(j)
			}
		} else if sel == nil {
			for j := 0; j < nOut; j++ {
				flat[j*width+k] = evals[k].row(inRows[j])
			}
		} else {
			for j, i := range sel {
				flat[j*width+k] = evals[k].row(inRows[i])
			}
		}
	}
	rows := make([]storage.Row, nOut)
	for j := range rows {
		rows[j] = storage.Row(flat[j*width : (j+1)*width : (j+1)*width])
	}
	return rows
}

// rowBuckets records, per morsel, which row indexes land in each hash
// partition. Concatenating one partition's lists across morsels (morsels
// are input-ordered) visits that partition's rows in global input order.
type rowBuckets [partitions][]int32

func runJoinMorsel(n *logical.Node, env *Env, left, right *storage.Table) (*storage.Table, error) {
	lIdx, rIdx, err := joinKeyIndexes(n, left, right)
	if err != nil {
		return nil, err
	}
	workers := env.workerCount()
	mr := env.morselRows()
	sc := env.scope()
	defer sc.Release()

	// Phase 1: hash both sides in parallel, bucketing the build side. Key
	// hashing is column-wise: each morsel transposes its key columns into
	// typed vectors and folds them into one Value.HashInto chain per row
	// (keyHasher), which is byte-equivalent to the serial per-row chain.
	if err := env.reserve(sc, int64(len(right.Rows))*(hashCost+idxCost)+int64(len(left.Rows))*(hashCost+1)); err != nil {
		return nil, err
	}
	hashers := make([]keyHasher, workers)
	rHash := make([]uint64, len(right.Rows))
	rBuckets := make([]rowBuckets, morselCount(len(right.Rows), mr))
	err = forEachMorsel(env, "join-hash", workers, len(right.Rows), mr, func(w, m, start, end int) error {
		hs, ok := hashers[w].hashWindow(right.Rows[start:end], right.Schema, rIdx)
		var b rowBuckets
		for j, h := range hs {
			if !ok[j] {
				continue // NULL keys never match
			}
			i := start + j
			rHash[i] = h
			p := int(h & (partitions - 1))
			b[p] = append(b[p], int32(i))
		}
		rBuckets[m] = b
		return nil
	})
	if err != nil {
		return nil, err
	}
	lHash := make([]uint64, len(left.Rows))
	lOK := make([]bool, len(left.Rows))
	err = forEachMorsel(env, "join-hash", workers, len(left.Rows), mr, func(w, _, start, end int) error {
		hs, ok := hashers[w].hashWindow(left.Rows[start:end], left.Schema, lIdx)
		// Hash slots of NULL-keyed rows hold unspecified values; the probe
		// only reads lHash[i] when lOK[i] is true.
		copy(lHash[start:end], hs)
		copy(lOK[start:end], ok)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: per-partition builds. Each partition walks its bucket lists
	// in morsel order, so every per-key row list is in build-input order —
	// exactly the order the serial build produces.
	builds := make([]map[uint64][]storage.Row, partitions)
	err = forEachTask(env, "join-build", workers, partitions, func(_, p int) error {
		m := make(map[uint64][]storage.Row)
		count := 0
		for _, b := range rBuckets {
			for _, i := range b[p] {
				h := rHash[i]
				m[h] = append(m[h], right.Rows[i])
				count++
			}
		}
		if err := env.reserve(sc, refRowCost*int64(count)); err != nil {
			return err
		}
		builds[p] = m
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 3: probe morsels over the left side, merged in morsel order.
	// Output rows are carved out of per-worker arenas — one value-block
	// allocation per ~hundreds of rows instead of one per match — which is
	// where the join's GC pressure went.
	rWidth := right.Schema.Len()
	leftJoin := n.JoinType == logical.JoinLeft
	arenas := make([]rowArena, workers)
	chunks := make([][]storage.Row, morselCount(len(left.Rows), mr))
	sizes := make([]int64, len(chunks))
	err = forEachMorsel(env, "join-probe", workers, len(left.Rows), mr, func(w, m, start, end int) error {
		arena := &arenas[w]
		var buf []storage.Row
		for i := start; i < end; i++ {
			lrow := left.Rows[i]
			matched := false
			if lOK[i] {
				h := lHash[i]
				for _, rrow := range builds[h&(partitions-1)][h] {
					if keysEqual(lrow, rrow, lIdx, rIdx) {
						matched = true
						nr := arena.alloc(len(lrow) + rWidth)
						nr = append(nr, lrow...)
						nr = append(nr, rrow...)
						buf = append(buf, nr)
					}
				}
			}
			if !matched && leftJoin {
				nr := arena.alloc(len(lrow) + rWidth)
				nr = append(nr, lrow...)
				for j := 0; j < rWidth; j++ {
					nr = append(nr, storage.Null)
				}
				buf = append(buf, nr)
			}
		}
		sz := rowsEncodedSize(buf)
		if err := env.reserve(sc, sz); err != nil {
			return err
		}
		chunks[m], sizes[m] = buf, sz
		return nil
	})
	if err != nil {
		return nil, err
	}
	env.recordColumnar(logical.KindJoin,
		int64(morselCount(len(right.Rows), mr)+2*morselCount(len(left.Rows), mr)),
		int64(len(left.Rows)+len(right.Rows)))
	return appendBlocks(env, newOutput(n, left, right), chunks, sizes)
}

// appendTaggedKey appends a kind tag byte then the value's bytes, so
// values of different kinds — NULL vs the literal string "NULL", the int 1
// vs the string "1" — never collide in a distinct or group key. Both
// engines key through it, which keeps them byte-identical on the edge
// where the morsel engine's kind-tagged hash partitioning would otherwise
// split rows an untagged key conflates.
func appendTaggedKey(b []byte, v storage.Value) []byte {
	return appendValueKey(append(b, byte(v.Kind)), v)
}

// appendValueKey appends exactly the bytes of v.String(); the byte-buffer
// form lets group/distinct keys be built and looked up without per-row
// string allocations (map reads on string(buf) do not allocate).
func appendValueKey(b []byte, v storage.Value) []byte {
	switch v.Kind {
	case storage.KindInt:
		return strconv.AppendInt(b, v.I, 10)
	case storage.KindFloat:
		return strconv.AppendFloat(b, v.F, 'g', -1, 64)
	case storage.KindString:
		return append(b, v.S...)
	case storage.KindBool:
		if v.I != 0 {
			return append(b, "true"...)
		}
		return append(b, "false"...)
	default:
		return append(b, "NULL"...)
	}
}

// distinctRowsEqual reports whether two rows are the same distinct key.
// It is value-wise kind-tagged equality — exactly the relation induced by
// the serial engine's appendTaggedKey strings (kind byte + exact value
// representation): numerics never equal strings, Int 1 never equals Float
// 1.0, floats compare by bit pattern except that every NaN is one key, and
// ±0.0 are distinct keys (their decimal forms differ).
func distinctRowsEqual(a, b storage.Row) bool {
	for i := range a {
		if !valueKeyEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// valueKeyEqual is the per-value leg of distinctRowsEqual: same tagged key.
func valueKeyEqual(va, vb storage.Value) bool {
	if va.Kind != vb.Kind {
		return false
	}
	switch va.Kind {
	case storage.KindInt, storage.KindBool:
		return va.I == vb.I
	case storage.KindString:
		return va.S == vb.S
	case storage.KindFloat:
		return math.Float64bits(va.F) == math.Float64bits(vb.F) ||
			(math.IsNaN(va.F) && math.IsNaN(vb.F))
	}
	return true
}

func runDistinctMorsel(n *logical.Node, env *Env, in *storage.Table) (*storage.Table, error) {
	nRows := len(in.Rows)
	workers := opWorkers(env, nRows)
	mr := env.morselRows()
	sc := env.scope()
	defer sc.Release()
	// Phase 1, in parallel morsels: hash whole rows with the fast internal
	// mix hash (Value.MixInto) — row-major, since every column
	// participates and a transpose would only add copying — and dedup
	// each morsel locally. A row whose hash already appeared earlier in
	// its morsel is verified value-wise against that row and dropped;
	// the morsel's first row per hash is kept as a local first. NULL
	// values fold in like any other (a NULL is a real distinct key), so
	// the hash needs no other property than "tagged-key-equal rows hash
	// equal".
	if err := env.reserve(sc, hashCost*int64(nRows)); err != nil {
		return nil, err
	}
	hashes := make([]uint64, nRows)
	morsels := morselCount(nRows, mr)
	locals := make([][]int32, morsels)
	seen := make([]map[uint64]int32, workers)
	var collided atomic.Bool
	err := forEachMorsel(env, "distinct-hash", workers, nRows, mr, func(w, m, start, end int) error {
		if seen[w] == nil {
			seen[w] = make(map[uint64]int32)
		}
		local := seen[w]
		clear(local)
		for i := start; i < end; i++ {
			h := storage.HashSeed
			for _, v := range in.Rows[i] {
				h = v.MixInto(h)
			}
			hashes[i] = h
			if r0, ok := local[h]; ok {
				if !distinctRowsEqual(in.Rows[i], in.Rows[r0]) {
					collided.Store(true)
				}
				continue
			}
			local[h] = int32(i)
			locals[m] = append(locals[m], int32(i))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	env.recordColumnar(logical.KindDistinct, int64(morsels), int64(nRows))
	// Phase 2: merge the local firsts in morsel order — first-seen order
	// IS input order, so no position sort is needed. Only local firsts
	// reach this serial pass, one integer-keyed probe each, with no
	// per-row key strings: strictly less serial work than the serial
	// engine's tagged-key build. A 64-bit hash collision (two unequal
	// rows with one hash) sends the input to the exact pass instead.
	if collided.Load() {
		return distinctByHashExact(n, env, sc, in, hashes)
	}
	first := make(map[uint64]int32)
	out := newOutput(n, in)
	for _, local := range locals {
		if err := env.cancelErr(); err != nil {
			return nil, err
		}
		if err := env.reserve(sc, (hashCost+idxCost)*int64(len(local))); err != nil {
			return nil, err
		}
		for _, i := range local {
			if r0, ok := first[hashes[i]]; ok {
				if !distinctRowsEqual(in.Rows[i], in.Rows[r0]) {
					return distinctByHashExact(n, env, sc, in, hashes)
				}
				continue
			}
			first[hashes[i]] = i
			out.MustAppend(in.Rows[i])
		}
	}
	return out, nil
}

// distinctByHashExact is the dedup pass for inputs with a 64-bit hash
// collision: rows that collide on the full hash are verified value-wise
// and kept apart in an overflow map.
func distinctByHashExact(n *logical.Node, env *Env, sc *govern.Scope, in *storage.Table, hashes []uint64) (*storage.Table, error) {
	first := make(map[uint64]int32, len(in.Rows)/4+16)
	var overflow map[uint64][]int32
	out := newOutput(n, in)
	kept := 0
	for i, row := range in.Rows {
		if i%cancelPollRows == cancelPollRows-1 {
			if err := env.cancelErr(); err != nil {
				return nil, err
			}
			if err := env.reserve(sc, (hashCost+idxCost)*int64(kept)); err != nil {
				return nil, err
			}
			kept = 0
		}
		h := hashes[i]
		if r0, ok := first[h]; ok {
			if distinctRowsEqual(row, in.Rows[r0]) {
				continue
			}
			dup := false
			for _, r := range overflow[h] {
				if distinctRowsEqual(row, in.Rows[r]) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			if overflow == nil {
				overflow = make(map[uint64][]int32)
			}
			overflow[h] = append(overflow[h], int32(i))
		} else {
			first[h] = int32(i)
		}
		kept++
		out.MustAppend(row)
	}
	return out, nil
}

func runSortMorsel(n *logical.Node, env *Env, in *storage.Table) (*storage.Table, error) {
	workers := env.workerCount()
	nK := len(n.SortKeys)
	workerKeys := make([][]expr.Compiled, workers)
	for w := 0; w < workers; w++ {
		evals := make([]expr.Compiled, nK)
		for i, k := range n.SortKeys {
			c, err := expr.Compile(k.Expr, in.Schema)
			if err != nil {
				return nil, err
			}
			evals[i] = c
		}
		workerKeys[w] = evals
	}
	sc := env.scope()
	defer sc.Release()
	// Precompute sort keys in parallel: n evaluations instead of the
	// comparator's n·log n.
	if err := env.reserve(sc, int64(len(in.Rows))*(valueCost*int64(nK)+idxCost)); err != nil {
		return nil, err
	}
	keys := make([]storage.Value, len(in.Rows)*nK)
	err := forEachMorsel(env, "sort-keys", workers, len(in.Rows), env.morselRows(), func(w, _, start, end int) error {
		evals := workerKeys[w]
		for i := start; i < end; i++ {
			kv := keys[i*nK : i*nK+nK]
			for k, ev := range evals {
				kv[k] = ev(in.Rows[i])
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Transpose the precomputed keys into one typed vector per key column:
	// the comparator then runs tight per-kind loops (CompareAt) instead of
	// switching on Value.Kind at every comparison. A mixed-kind column
	// degrades to generic storage, whose CompareAt falls back to
	// storage.Compare — orderings are digest-identical to the serial
	// comparator either way.
	if err := env.reserve(sc, int64(len(in.Rows))*vecKeyCost*int64(nK)); err != nil {
		return nil, err
	}
	keyCols := make([]*storage.Vector, nK)
	for k := 0; k < nK; k++ {
		kind := storage.KindInt
		for i := 0; i < len(in.Rows); i++ {
			if kv := keys[i*nK+k]; kv.Kind != storage.KindNull {
				kind = kv.Kind
				break
			}
		}
		vec := storage.NewVector(kind)
		for i := 0; i < len(in.Rows); i++ {
			if i%cancelPollRows == cancelPollRows-1 {
				if err := env.cancelErr(); err != nil {
					return nil, err
				}
			}
			vec.Append(keys[i*nK+k])
		}
		keyCols[k] = vec
	}
	idx := make([]int32, len(in.Rows))
	for i := range idx {
		idx[i] = int32(i)
	}
	// The comparator polls cancellation every cancelPollRows comparisons:
	// the sort itself is the one phase that cannot stop at a morsel
	// boundary, so this bounds its residual work after a cancel.
	polled := 0
	var cancelled error
	sort.SliceStable(idx, func(a, b int) bool {
		if polled++; polled >= cancelPollRows && cancelled == nil {
			polled = 0
			cancelled = env.cancelErr()
		}
		ia, ib := idx[a], idx[b]
		for k := range n.SortKeys {
			c := keyCols[k].CompareAt(int(ia), int(ib))
			if n.SortKeys[k].Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		// Same full-row tie-break as the serial engine; beyond it the
		// stable sort preserves input order, matching serial exactly.
		return compareRowsFull(in.Rows[ia], in.Rows[ib]) < 0
	})
	if cancelled != nil {
		return nil, cancelled
	}
	out := newOutput(n, in)
	for j, i := range idx {
		if j%cancelPollRows == cancelPollRows-1 {
			if err := env.cancelErr(); err != nil {
				return nil, err
			}
		}
		out.MustAppend(in.Rows[i])
	}
	return out, nil
}
