package multistore

// White-box tests for the cross-query reuse plane: semantic-cache hits
// serving digest-identical answers, strict invalidation on every trigger
// (log appends, generation bumps, reorganization, crash recovery, audit
// quarantine), deterministic single-flight piggybacking, and the
// guarantee that reuse-enabled execution never changes what a query
// answers. They reach into the plane's registry and version mirror, so
// they live inside the package.

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"miso/internal/data"
	"miso/internal/storage"
	"miso/internal/workload"
)

func newReuseSystem(t *testing.T, v Variant, mutate func(*Config)) *System {
	t.Helper()
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	cfg := DefaultConfig(v)
	cfg.SetBudgets(cat, 2.0, 10<<30)
	cfg.Reuse.Enabled = true
	if mutate != nil {
		mutate(&cfg)
	}
	sys := New(cfg, cat)
	if err := sys.ProvideFutureWorkload(workload.SQLs()); err != nil {
		t.Fatalf("future workload: %v", err)
	}
	return sys
}

func reuseTweetLine(t *testing.T, id int64) string {
	t.Helper()
	b, err := json.Marshal(map[string]any{
		"tweet_id": id, "user_id": int64(1), "ts": int64(1357000000),
		"text": "amazing burger #food", "hashtag": "food", "lang": "en",
		"retweets": int64(300), "followers": int64(5000),
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestReuseCacheHitIdenticalToColdExecution runs the workload twice on a
// reuse-enabled system: every second-pass query must be a cache hit whose
// answer (schema + rows, via ChecksumData — result-table names embed the
// physical plan, which legitimately evolves with view capture) is
// identical to what a reuse-disabled system computes cold. Reorgs are
// disabled so the cache survives the full double pass.
func TestReuseCacheHitIdenticalToColdExecution(t *testing.T) {
	catOff, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfgOff := DefaultConfig(VariantMSMiso)
	cfgOff.SetBudgets(catOff, 2.0, 10<<30)
	cfgOff.ReorgEvery = 0
	off := New(cfgOff, catOff)
	if err := off.ProvideFutureWorkload(workload.SQLs()); err != nil {
		t.Fatal(err)
	}
	on := newReuseSystem(t, VariantMSMiso, func(c *Config) { c.ReorgEvery = 0 })

	sqls := workload.SQLs()
	coldSums := make([]uint64, len(sqls))
	for i, sql := range sqls {
		rep, err := off.Run(sql)
		if err != nil {
			t.Fatalf("off query %d: %v", i, err)
		}
		coldSums[i] = storage.ChecksumData(rep.Result)
	}
	for i, sql := range sqls {
		rep, err := on.Run(sql)
		if err != nil {
			t.Fatalf("on query %d: %v", i, err)
		}
		if got := storage.ChecksumData(rep.Result); got != coldSums[i] {
			t.Fatalf("query %d: reuse-enabled first pass diverged from cold execution", i)
		}
	}
	for i, sql := range sqls {
		rep, err := on.Run(sql)
		if err != nil {
			t.Fatalf("repeat query %d: %v", i, err)
		}
		if !rep.CacheHit {
			t.Errorf("repeat query %d executed cold, want cache hit", i)
		}
		if rep.Total() != 0 {
			t.Errorf("repeat query %d charged %f simulated seconds, want 0", i, rep.Total())
		}
		if got := storage.ChecksumData(rep.Result); got != coldSums[i] {
			t.Fatalf("repeat query %d: cached answer diverged from cold execution", i)
		}
	}
	m := on.Metrics()
	if m.CacheHits != len(sqls) {
		t.Errorf("CacheHits = %d, want %d", m.CacheHits, len(sqls))
	}
	if m.Queries != 2*len(sqls) {
		t.Errorf("Queries = %d, want %d", m.Queries, 2*len(sqls))
	}
	if err := on.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReuseInvalidationOnAppend: an append within a generation changes
// the log's content version, so a warm cache must neither serve the old
// answer nor be consulted under the old fingerprint.
func TestReuseInvalidationOnAppend(t *testing.T) {
	sys := newReuseSystem(t, VariantMSMiso, nil)
	count := `SELECT COUNT(*) AS n FROM tweets WHERE hashtag = 'food' AND retweets > 250`
	before, err := sys.Run(count)
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := sys.Run(count); err != nil || !rep.CacheHit {
		t.Fatalf("warmup repeat: err=%v hit=%v", err, rep.CacheHit)
	}
	if _, err := sys.AppendToLog(data.TweetsLog, []string{
		reuseTweetLine(t, 2_000_001), reuseTweetLine(t, 2_000_002),
	}); err != nil {
		t.Fatal(err)
	}
	if st := sys.ReuseStats().Cache; st.Entries != 0 || st.Invalidations == 0 {
		t.Fatalf("append did not clear the cache: %+v", st)
	}
	after, err := sys.Run(count)
	if err != nil {
		t.Fatal(err)
	}
	if after.CacheHit {
		t.Fatal("post-append query served from cache")
	}
	if after.Result.Rows[0][0].I != before.Result.Rows[0][0].I+2 {
		t.Errorf("count %d -> %d, want +2", before.Result.Rows[0][0].I, after.Result.Rows[0][0].I)
	}
	// The fresh answer re-caches under the new content version.
	if rep, err := sys.Run(count); err != nil || !rep.CacheHit {
		t.Fatalf("post-append repeat: err=%v hit=%v", err, rep.CacheHit)
	}
}

// TestReuseInvalidationOnGenerationBump: RefreshLog resets the log (a
// LogFile.Reset generation bump); the cache clears and the version
// mirror advances even when the refresh carries content equal in length.
func TestReuseInvalidationOnGenerationBump(t *testing.T) {
	sys := newReuseSystem(t, VariantMSMiso, nil)
	count := "SELECT COUNT(*) AS n FROM tweets"
	if _, err := sys.Run(count); err != nil {
		t.Fatal(err)
	}
	if rep, err := sys.Run(count); err != nil || !rep.CacheHit {
		t.Fatalf("warmup repeat: err=%v hit=%v", err, rep.CacheHit)
	}
	gen0, lines0, ok := sys.reuse.LogVersion(data.TweetsLog)
	if !ok {
		t.Fatal("version mirror missing tweets")
	}
	if _, err := sys.RefreshLog(data.TweetsLog, []string{
		reuseTweetLine(t, 1), reuseTweetLine(t, 2), reuseTweetLine(t, 3),
	}); err != nil {
		t.Fatal(err)
	}
	gen1, lines1, ok := sys.reuse.LogVersion(data.TweetsLog)
	if !ok || gen1 != gen0+1 {
		t.Fatalf("generation %d -> %d, want +1", gen0, gen1)
	}
	if lines0 == lines1 {
		t.Logf("line counts happen to match (%d); the generation alone must separate fingerprints", lines0)
	}
	if st := sys.ReuseStats().Cache; st.Entries != 0 {
		t.Fatalf("refresh did not clear the cache: %+v", st)
	}
	rep, err := sys.Run(count)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHit {
		t.Fatal("post-refresh query served from cache")
	}
	if rep.Result.Rows[0][0].I != 3 {
		t.Errorf("refreshed count = %d, want 3", rep.Result.Rows[0][0].I)
	}
}

// TestReuseInvalidationOnReorganize: an explicit mid-soak reorganization
// clears the cache at phase start (the drain-barrier trigger), and
// queries re-cache afterward.
func TestReuseInvalidationOnReorganize(t *testing.T) {
	sys := newReuseSystem(t, VariantMSMiso, nil)
	sqls := workload.SQLs()
	for i := 0; i < 4; i++ {
		if _, err := sys.Run(sqls[i]); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if st := sys.ReuseStats().Cache; st.Entries == 0 {
		t.Fatal("nothing cached before reorg")
	}
	if err := sys.Reorganize(); err != nil {
		t.Fatalf("reorganize: %v", err)
	}
	if st := sys.ReuseStats().Cache; st.Entries != 0 || st.Invalidations == 0 {
		t.Fatalf("reorg did not clear the cache: %+v", st)
	}
	rep, err := sys.Run(sqls[0])
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHit {
		t.Fatal("post-reorg query served from cache")
	}
	if rep2, err := sys.Run(sqls[0]); err != nil || !rep2.CacheHit {
		t.Fatalf("post-reorg repeat: err=%v hit=%v", err, rep2.CacheHit)
	}
}

// TestReuseInvalidationOnRecover: a crash + WAL replay builds a fresh
// System whose reuse plane starts empty — recovery never trusts cached
// materializations — and post-recovery answers match pre-crash ones.
func TestReuseInvalidationOnRecover(t *testing.T) {
	sys := newReuseSystem(t, VariantMSMiso, func(c *Config) {
		c.CheckpointEvery = 4
	})
	sqls := workload.SQLs()
	var want []uint64
	for i := 0; i < 6; i++ {
		rep, err := sys.Run(sqls[i])
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		want = append(want, storage.ChecksumData(rep.Result))
	}
	if sys.ReuseStats().Cache.Entries == 0 {
		t.Fatal("nothing cached before crash")
	}

	cfg := sys.cfg
	twin, _, err := Recover(cfg, sys.Catalog(), sys.Durability().Latest(), sys.Durability().WAL())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if st := twin.ReuseStats().Cache; st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("recovered system inherited cache state: %+v", st)
	}
	for i := 0; i < 6; i++ {
		rep, err := twin.Run(sqls[i])
		if err != nil {
			t.Fatalf("post-recovery query %d: %v", i, err)
		}
		if rep.CacheHit {
			t.Fatalf("post-recovery query %d served from a cache that should be empty", i)
		}
		if got := storage.ChecksumData(rep.Result); got != want[i] {
			t.Fatalf("post-recovery query %d diverged from pre-crash answer", i)
		}
	}
}

// TestReuseInvalidationOnAuditQuarantine: when the audit plane
// quarantines an unrepairable corrupt view, every cached entry is
// dropped — results computed while the view was live may carry its bytes.
func TestReuseInvalidationOnAuditQuarantine(t *testing.T) {
	sys := newReuseSystem(t, VariantMSMiso, nil)
	runPrefix(t, sys, 6)
	if sys.ReuseStats().Cache.Entries == 0 {
		t.Fatal("nothing cached before quarantine")
	}

	victim, _ := pickRecomputable(sys)
	if victim == nil {
		t.Fatal("no view materialized")
	}
	rotted := victim.Table.Clone()
	rotTable(rotted, 0.5)
	victim.Table = rotted
	// Break the name↔signature link (keeping the registered name, which
	// is the store's map key) so the repair path cannot recompute the
	// view: the audit must quarantine instead.
	victim.Sig = "scan(bogus)"

	viols, _, err := sys.AuditViews("", 0, true)
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	quarantined := false
	for _, v := range viols {
		if v.Quarantined {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatalf("audit did not quarantine: %+v", viols)
	}
	if st := sys.ReuseStats().Cache; st.Entries != 0 || st.Invalidations == 0 {
		t.Fatalf("quarantine did not clear the cache: %+v", st)
	}
}

// waitFollowers blocks until the flight registry has seen n follower
// joins (the counter is cumulative), failing the test after ~5s.
func waitFollowers(t *testing.T, sys *System, n int) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if sys.reuse.flight.Stats().Followers >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no follower joined the flight (stats %+v)", sys.reuse.flight.Stats())
}

// TestReusePiggyback deterministically exercises the single-flight path:
// with a leader call held open for a fingerprint, a concurrent identical
// query joins as follower and books the leader's published table as a
// zero-cost piggybacked report.
func TestReusePiggyback(t *testing.T) {
	sys := newReuseSystem(t, VariantMSMiso, nil)
	sql := workload.SQLs()[0]
	cold, err := sys.Run(sql)
	if err != nil {
		t.Fatal(err)
	}

	fp, ok := sys.fingerprintSQL(sql)
	if !ok {
		t.Fatal("workload query did not fingerprint")
	}
	call, leader := sys.reuse.flight.Join(fp)
	if !leader {
		t.Fatal("fingerprint unexpectedly in flight")
	}
	done := make(chan *QueryReport, 1)
	errs := make(chan error, 1)
	go func() {
		rep, err := sys.RunContext(context.Background(), sql)
		if err != nil {
			errs <- err
			return
		}
		done <- rep
	}()
	waitFollowers(t, sys, 1)
	sys.reuse.flight.Complete(fp, call, cold.Result, storage.ChecksumData(cold.Result), nil)
	select {
	case err := <-errs:
		t.Fatalf("follower: %v", err)
	case rep := <-done:
		if !rep.Piggybacked {
			t.Fatal("follower did not piggyback")
		}
		if rep.Total() != 0 {
			t.Errorf("piggybacked query charged %f seconds, want 0", rep.Total())
		}
		if storage.ChecksumTable(rep.Result) != storage.ChecksumTable(cold.Result) {
			t.Fatal("piggybacked answer diverged from the leader's")
		}
	}
	if m := sys.Metrics(); m.Piggybacked != 1 {
		t.Errorf("Piggybacked = %d, want 1", m.Piggybacked)
	}
	// A failed leader must push followers onto cold execution, never
	// sharing the failure.
	call2, leader2 := sys.reuse.flight.Join(fp)
	if !leader2 {
		t.Fatal("fingerprint still in flight")
	}
	done2 := make(chan *QueryReport, 1)
	go func() {
		rep, err := sys.RunContext(context.Background(), sql)
		if err != nil {
			errs <- err
			return
		}
		done2 <- rep
	}()
	waitFollowers(t, sys, 2)
	sys.reuse.flight.Complete(fp, call2, nil, 0, errLeaderFailed)
	select {
	case err := <-errs:
		t.Fatalf("fallback follower: %v", err)
	case rep := <-done2:
		if rep.Piggybacked {
			t.Fatal("follower shared a failed leader's flight")
		}
		if storage.ChecksumTable(rep.Result) != storage.ChecksumTable(cold.Result) {
			t.Fatal("fallback answer diverged")
		}
	}
}
