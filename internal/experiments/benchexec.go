// Exec benchmark pipeline: reproducible measurements of the data path —
// the morsel execution engine against the legacy serial engine, per
// operator and end-to-end over the paper's 32-query workload
// (BENCH_exec.json). Every parallel row's outputs are digest-checked
// against the serial baseline's during measurement, so the report cannot
// record a speedup from an engine that produced different answers.
package experiments

import (
	"fmt"
	"io"
	"testing"

	"miso/internal/data"
	"miso/internal/exec"
	"miso/internal/logical"
	"miso/internal/storage"
	"miso/internal/workload"
)

// ExecRow is one exec benchmark measurement.
type ExecRow struct {
	// Name identifies the benchmark (e.g. "exec/join/workers=4").
	Name string `json:"name"`
	// Workers is the morsel engine's pool size; 0 for serial rows.
	Workers int `json:"workers,omitempty"`
	// Iterations is how many times the measured op ran.
	Iterations int `json:"iterations"`
	// NsPerOp / AllocsPerOp / BytesPerOp are the standard Go benchmark
	// metrics.
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// SpeedupVsBaseline is the serial row's ns/op divided by this row's.
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline,omitempty"`
	// Digest is the combined FNV-64a digest of the measured run's output
	// tables, as hex: equal digests mean byte-identical outputs.
	Digest string `json:"digest,omitempty"`
	// DigestMatchesBaseline reports that this row's outputs were
	// byte-identical to its serial baseline's (rows at workers >= 1).
	DigestMatchesBaseline bool `json:"digest_matches_baseline,omitempty"`
}

// ExecRows is the exec benchmark pipeline's result.
type ExecRows []ExecRow

// WriteText renders the rows as a plain-text table.
func (rows ExecRows) WriteText(w io.Writer) {
	fprintf(w, "exec benchmark pipeline\n")
	fprintf(w, "%-28s %6s %12s %12s %12s %9s\n",
		"name", "iters", "ns/op", "B/op", "allocs/op", "speedup")
	for _, row := range rows {
		fprintf(w, "%-28s %6d %12d %12d %12d %8.2fx\n",
			row.Name, row.Iterations, row.NsPerOp, row.BytesPerOp,
			row.AllocsPerOp, row.SpeedupVsBaseline)
	}
}

// Checks declares the columnar performance floor: each operator's
// workers=4 row must match the serial digest and run at least as fast as
// the serial baseline (speedup >= 1.0).
func (rows ExecRows) Checks() []Check {
	out := make([]Check, 0, 2*len(execOpCases))
	for _, oc := range execOpCases {
		name := "exec/" + oc.name + "/workers=4"
		var r ExecRow
		for _, row := range rows {
			if row.Name == name {
				r = row
			}
		}
		out = append(out,
			checkTrue(name+" digest_matches_baseline", r.DigestMatchesBaseline),
			check(name+" speedup_vs_baseline", r.SpeedupVsBaseline, ">=", 1.0))
	}
	return out
}

// execWorkerCounts are the morsel-engine pool sizes the end-to-end rows
// sweep; per-operator rows measure the midpoint (4).
var execWorkerCounts = []int{1, 2, 4, 8}

type execFixture struct {
	cat   *storage.Catalog
	plans []*logical.Node
}

func newExecFixture(dcfg data.Config) (*execFixture, error) {
	cat, err := data.Generate(dcfg)
	if err != nil {
		return nil, err
	}
	builder := logical.NewBuilder(cat)
	f := &execFixture{cat: cat}
	for _, q := range workload.Evolving() {
		plan, err := builder.BuildSQL(q.SQL)
		if err != nil {
			return nil, fmt.Errorf("benchexec: build %s: %w", q.Name, err)
		}
		f.plans = append(f.plans, plan)
	}
	return f, nil
}

func (f *execFixture) env(workers int) *exec.Env {
	return &exec.Env{
		ReadLog: func(name string) (*storage.LogFile, error) { return f.cat.Log(name) },
		Workers: workers,
	}
}

// digestTables folds table checksums into one order-sensitive digest.
func digestTables(d uint64, t *storage.Table) uint64 {
	return d*1099511628211 ^ storage.ChecksumTable(t)
}

// runWorkload executes every workload plan over the raw logs and returns
// the combined output digest.
func (f *execFixture) runWorkload(workers int) (uint64, error) {
	env := f.env(workers)
	d := storage.HashSeed
	for i, plan := range f.plans {
		out, err := exec.Run(plan, env, nil)
		if err != nil {
			return 0, fmt.Errorf("benchexec: workload query %d: %w", i, err)
		}
		d = digestTables(d, out)
	}
	return d, nil
}

// opCase isolates one operator: the first node of the given kind in the
// plan built from sql, benchmarked over its serially-precomputed inputs.
type opCase struct {
	name string
	sql  string
	kind logical.Kind
}

var execOpCases = []opCase{
	{"extract", "SELECT tweet_id, user_id, ts, text, hashtag, lang, retweets, followers FROM tweets", logical.KindExtract},
	{"filter", "SELECT tweet_id FROM tweets WHERE lang = 'en' AND retweets > 10", logical.KindFilter},
	{"project", "SELECT retweets * 2 AS dbl, UPPER(lang) AS lg, SENTIMENT(text) AS s FROM tweets", logical.KindProject},
	{"join", "SELECT t.tweet_id, c.lat FROM tweets t JOIN checkins c ON t.user_id = c.user_id", logical.KindJoin},
	{"aggregate", "SELECT hashtag, COUNT(*) AS n, SUM(retweets) AS rt, AVG(followers) AS fl FROM tweets GROUP BY hashtag", logical.KindAggregate},
	{"distinct", "SELECT DISTINCT lang, hashtag FROM tweets", logical.KindDistinct},
	{"sort", "SELECT tweet_id, retweets FROM tweets ORDER BY retweets DESC", logical.KindSort},
}

func findKind(root *logical.Node, kind logical.Kind) *logical.Node {
	var found *logical.Node
	root.Walk(func(n *logical.Node) {
		if found == nil && n.Kind == kind {
			found = n
		}
	})
	return found
}

// benchNode measures RunNode on one operator with the given engine and
// returns the row plus the output digest of a representative run.
func (f *execFixture) benchNode(name string, n *logical.Node, inputs []*storage.Table, workers int) (ExecRow, uint64, error) {
	env := f.env(workers)
	out, err := exec.RunNode(n, env, inputs)
	if err != nil {
		return ExecRow{}, 0, err
	}
	digest := storage.ChecksumTable(out)
	var runErr error
	// Best-of-3: per-operator runs are sub-millisecond, so a background
	// load spike during one engine's measurement window can flip a ratio;
	// the minimum ns/op of three repetitions is the stable estimate of what
	// the operator actually costs.
	var res testing.BenchmarkResult
	for rep := 0; rep < 3; rep++ {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exec.RunNode(n, env, inputs); err != nil {
					runErr = err
					b.FailNow()
				}
			}
		})
		if runErr != nil {
			return ExecRow{}, 0, runErr
		}
		if rep == 0 || r.NsPerOp() < res.NsPerOp() {
			res = r
		}
	}
	return ExecRow{
		Name:        name,
		Workers:     workers,
		Iterations:  res.N,
		NsPerOp:     res.NsPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		Digest:      fmt.Sprintf("%016x", digest),
	}, digest, nil
}

// BenchExec runs the exec benchmark pipeline: per-operator serial-vs-
// morsel rows at 4 workers, then the full workload end-to-end at worker
// counts 1/2/4/8, all digest-checked against the serial baseline.
func BenchExec(c Config) (ExecRows, error) {
	var rows ExecRows
	f, err := newExecFixture(c.Data)
	if err != nil {
		return nil, err
	}

	serialEnv := f.env(exec.SerialWorkers)
	for _, oc := range execOpCases {
		built, err := logical.NewBuilder(f.cat).BuildSQL(oc.sql)
		if err != nil {
			return nil, fmt.Errorf("benchexec: build %s: %w", oc.name, err)
		}
		node := findKind(built, oc.kind)
		if node == nil {
			return nil, fmt.Errorf("benchexec: no %v node in %q", oc.kind, oc.sql)
		}
		// Precompute the operator's inputs once, serially; both engines
		// then measure exactly one operator over identical inputs.
		var inputs []*storage.Table
		if oc.kind != logical.KindExtract {
			for _, child := range node.Children {
				t, err := exec.Run(child, serialEnv, nil)
				if err != nil {
					return nil, fmt.Errorf("benchexec: %s inputs: %w", oc.name, err)
				}
				inputs = append(inputs, t)
			}
		}
		base, baseDigest, err := f.benchNode("exec/"+oc.name+"/serial", node, inputs, exec.SerialWorkers)
		if err != nil {
			return nil, err
		}
		base.Workers = 0
		base.SpeedupVsBaseline = 1
		rows = append(rows, base)
		row, digest, err := f.benchNode(fmt.Sprintf("exec/%s/workers=4", oc.name), node, inputs, 4)
		if err != nil {
			return nil, err
		}
		if digest != baseDigest {
			return nil, fmt.Errorf("benchexec: %s: morsel output diverged from serial (digest %016x vs %016x)", oc.name, digest, baseDigest)
		}
		row.DigestMatchesBaseline = true
		if row.NsPerOp > 0 {
			row.SpeedupVsBaseline = float64(base.NsPerOp) / float64(row.NsPerOp)
		}
		rows = append(rows, row)
	}

	// End-to-end: the full 32-query workload over raw logs.
	benchWorkload := func(name string, workers int) (ExecRow, uint64, error) {
		digest, err := f.runWorkload(workers)
		if err != nil {
			return ExecRow{}, 0, err
		}
		var runErr error
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f.runWorkload(workers); err != nil {
					runErr = err
					b.FailNow()
				}
			}
		})
		if runErr != nil {
			return ExecRow{}, 0, runErr
		}
		return ExecRow{
			Name:        name,
			Workers:     workers,
			Iterations:  res.N,
			NsPerOp:     res.NsPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			Digest:      fmt.Sprintf("%016x", digest),
		}, digest, nil
	}
	base, baseDigest, err := benchWorkload("exec/workload/serial", exec.SerialWorkers)
	if err != nil {
		return nil, err
	}
	base.Workers = 0
	base.SpeedupVsBaseline = 1
	rows = append(rows, base)
	for _, w := range execWorkerCounts {
		row, digest, err := benchWorkload(fmt.Sprintf("exec/workload/workers=%d", w), w)
		if err != nil {
			return nil, err
		}
		if digest != baseDigest {
			return nil, fmt.Errorf("benchexec: workload outputs diverged from serial at workers=%d (digest %016x vs %016x)", w, digest, baseDigest)
		}
		row.DigestMatchesBaseline = true
		if row.NsPerOp > 0 {
			row.SpeedupVsBaseline = float64(base.NsPerOp) / float64(row.NsPerOp)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
