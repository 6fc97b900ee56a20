// Cache soak: the cross-query reuse plane under a repeated concurrent
// workload. Two identically configured MS-MISO systems serve the same
// sessions×rounds submission schedule through the serving frontend — one
// with the reuse plane disabled (every query executes cold), one with it
// enabled (repeats hit the semantic result cache, concurrent identical
// queries piggyback on the leader's flight). The report records the
// throughput gain, hit rate, and dedup ratio, and the acceptance gate
// requires every reuse-served answer to be digest-identical to the cold
// system's. BenchCache's report is BENCH_cache.json.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"miso/internal/faults"
	"miso/internal/multistore"
	"miso/internal/serve"
	"miso/internal/storage"
	"miso/internal/workload"
)

// CacheConfig parameterizes the cache soak.
type CacheConfig struct {
	Exp Config
	// Sessions is the number of concurrent client sessions; all sessions
	// walk the workload in the same order, so identical queries overlap
	// and the single-flight path is exercised alongside the cache.
	Sessions int
	// Rounds is how many full workload passes each session submits.
	Rounds int
	// Workers and Queue configure the serving frontend.
	Workers int
	Queue   int
	// CacheBytes caps the semantic result cache (0 = the plane default).
	CacheBytes int64
}

// DefaultCache returns the cache soak defaults.
func DefaultCache(cfg Config) CacheConfig {
	return CacheConfig{Exp: cfg, Sessions: 4, Rounds: 3, Workers: 4}
}

// CacheRows is the cache soak's result.
type CacheRows struct {
	Sessions int `json:"sessions"`
	Rounds   int `json:"rounds"`

	// Throughput: the same submission schedule against the reuse-disabled
	// and reuse-enabled backends.
	Submitted  int     `json:"submitted"`
	OffSeconds float64 `json:"off_seconds"`
	OnSeconds  float64 `json:"on_seconds"`
	OffQPS     float64 `json:"off_qps"`
	OnQPS      float64 `json:"on_qps"`
	SpeedupX   float64 `json:"speedup_x"`

	// Reuse-plane accounting from the enabled run.
	Hits        int     `json:"hits"`
	Misses      int     `json:"misses"`
	Piggybacked int     `json:"piggybacked"`
	SubplanHits int     `json:"subplan_hits"`
	HitRate     float64 `json:"hit_rate"`
	DedupRatio  float64 `json:"dedup_ratio"`

	// Correctness: every answer served by the reuse-enabled run (cached,
	// piggybacked, or cold) digests identically to the cold system's
	// answer for the same SQL.
	DigestsMatch bool `json:"digests_match"`

	// Drain-barrier trigger: after the timed soak, an explicit
	// serve.Reorganize with the reorg hook wired to InvalidateReuse must
	// leave the cache empty.
	ReorgHookFired   bool `json:"reorg_hook_fired"`
	EntriesAfterSoak int  `json:"entries_after_soak"`
	EntriesPostReorg int  `json:"entries_post_reorg"`
}

// Checks declares the soak's acceptance gate: reuse wins at least 2x
// throughput on the repeated workload, the cache actually served hits,
// answers are digest-identical to cold execution, and the serve
// drain-barrier invalidation trigger works.
func (r *CacheRows) Checks() []Check {
	return []Check{
		check("speedup_x", r.SpeedupX, ">=", 2),
		check("hit_rate", r.HitRate, ">", 0),
		checkTrue("digests_match", r.DigestsMatch),
		checkTrue("reorg_hook_fired", r.ReorgHookFired),
		check("entries_post_reorg", float64(r.EntriesPostReorg), "==", 0),
	}
}

// WriteText renders the report as a human-readable summary.
func (r *CacheRows) WriteText(w io.Writer) {
	fprintf(w, "cache soak: %d sessions x %d rounds, %d queries\n",
		r.Sessions, r.Rounds, r.Submitted)
	fprintf(w, "  reuse off: %.2fs (%.0f q/s)   reuse on: %.2fs (%.0f q/s)   speedup %.2fx\n",
		r.OffSeconds, r.OffQPS, r.OnSeconds, r.OnQPS, r.SpeedupX)
	fprintf(w, "  cache: %d hits / %d misses (hit rate %.2f)   piggybacked %d (dedup %.2f)   subplan hits %d\n",
		r.Hits, r.Misses, r.HitRate, r.Piggybacked, r.DedupRatio, r.SubplanHits)
	fprintf(w, "  digests match cold execution: %v   reorg drain-barrier cleared cache: %v (%d -> %d entries)\n",
		r.DigestsMatch, r.ReorgHookFired, r.EntriesAfterSoak, r.EntriesPostReorg)
}

// newCacheSystem builds an MS-MISO backend for the soak, with the fault
// plane off whatever the sweep rate. Automatic reorganization is disabled
// on both sides so the two runs execute the same schedule against a
// stable design (the drain-barrier invalidation is exercised explicitly
// after the timed section).
func (cc CacheConfig) newCacheSystem(enabled bool) (*multistore.System, error) {
	return cc.Exp.newSystem(multistore.VariantMSMiso, func(mc *multistore.Config) {
		mc.Faults = faults.Profile{}
		mc.ReorgEvery = 0
		mc.Reuse = multistore.ReuseConfig{Enabled: enabled, CacheBytes: cc.CacheBytes}
	})
}

// cacheSoakRun drives sessions×rounds workload passes through srv. Every
// result is folded into digests: the first answer seen for a SQL pins the
// expected data digest (schema + rows, name-independent) and every later
// answer — from either system — must match it.
func cacheSoakRun(srv *serve.Server, sessions, rounds int, mu *sync.Mutex, digests map[string]uint64, match *bool) (time.Duration, int, error) {
	sqls := workload.SQLs()
	var (
		wg      sync.WaitGroup
		errMu   sync.Mutex
		hardErr error
	)
	start := time.Now()
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(session int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, sql := range sqls {
					rep, err := srv.Do(context.Background(), sql)
					if err != nil {
						errMu.Lock()
						if hardErr == nil {
							hardErr = fmt.Errorf("experiments: cache soak session %d round %d query %d: %w", session, r, i, err)
						}
						errMu.Unlock()
						return
					}
					d := storage.ChecksumData(rep.Result)
					mu.Lock()
					if want, ok := digests[sql]; !ok {
						digests[sql] = d
					} else if want != d {
						*match = false
					}
					mu.Unlock()
				}
			}
		}(s)
	}
	wg.Wait()
	return time.Since(start), sessions * rounds * len(sqls), hardErr
}

// BenchCache runs the cache soak: the reuse-disabled baseline, the
// reuse-enabled run against the same schedule, and the explicit
// drain-barrier invalidation through the serving frontend.
func BenchCache(cc CacheConfig) (*CacheRows, error) {
	rep := &CacheRows{
		Sessions: cc.Sessions,
		Rounds:   cc.Rounds,
	}
	var (
		mu      sync.Mutex
		digests = map[string]uint64{}
		match   = true
	)

	offSys, err := cc.newCacheSystem(false)
	if err != nil {
		return nil, err
	}
	offSrv := serve.NewServer(serve.Config{Workers: cc.Workers, QueueDepth: cc.Queue}, offSys)
	offDur, submitted, err := cacheSoakRun(offSrv, cc.Sessions, cc.Rounds, &mu, digests, &match)
	offSrv.Close()
	if err != nil {
		return nil, err
	}

	onSys, err := cc.newCacheSystem(true)
	if err != nil {
		return nil, err
	}
	onSrv := serve.NewServer(serve.Config{Workers: cc.Workers, QueueDepth: cc.Queue}, onSys)
	onSrv.SetReorgHook(onSys.InvalidateReuse)
	onDur, _, err := cacheSoakRun(onSrv, cc.Sessions, cc.Rounds, &mu, digests, &match)
	if err != nil {
		onSrv.Close()
		return nil, err
	}

	rep.Submitted = submitted
	rep.OffSeconds = offDur.Seconds()
	rep.OnSeconds = onDur.Seconds()
	if rep.OffSeconds > 0 {
		rep.OffQPS = float64(submitted) / rep.OffSeconds
	}
	if rep.OnSeconds > 0 {
		rep.OnQPS = float64(submitted) / rep.OnSeconds
	}
	if rep.OnSeconds > 0 && rep.OffSeconds > 0 {
		rep.SpeedupX = rep.OffSeconds / rep.OnSeconds
	}

	m := onSys.Metrics()
	rep.Hits = m.CacheHits
	rep.Misses = m.CacheMisses
	rep.Piggybacked = m.Piggybacked
	rep.SubplanHits = m.SubplanHits
	if hm := m.CacheHits + m.CacheMisses; hm > 0 {
		rep.HitRate = float64(m.CacheHits) / float64(hm)
	}
	rep.DedupRatio = float64(m.Piggybacked) / float64(submitted)
	rep.DigestsMatch = match

	// Drain-barrier trigger: an explicit reorganization through the
	// frontend runs the hook under the write gate with no query in
	// flight; the cache must come out empty.
	rep.EntriesAfterSoak = onSys.ReuseStats().Cache.Entries
	if err := onSrv.Reorganize(); err != nil {
		onSrv.Close()
		return nil, fmt.Errorf("experiments: cache soak reorganize: %w", err)
	}
	onSrv.Close()
	rep.EntriesPostReorg = onSys.ReuseStats().Cache.Entries
	rep.ReorgHookFired = rep.EntriesAfterSoak > 0 && rep.EntriesPostReorg == 0

	if err := onSys.CheckInvariants(); err != nil {
		return nil, err
	}
	if err := offSys.CheckInvariants(); err != nil {
		return nil, err
	}
	return rep, nil
}

// Cache is the cache mode: the soak at its default shape.
func Cache(c Config) (*CacheRows, error) { return BenchCache(DefaultCache(c)) }
