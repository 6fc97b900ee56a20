package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"miso/internal/govern"
	"miso/internal/multistore"
	"miso/internal/serve"
	"miso/internal/workload"
)

// SoakConfig parameterizes the concurrent-serving soak: Sessions client
// goroutines each submit Queries queries (cycling through the 32-query
// workload) against one serve.Server over a single system.
type SoakConfig struct {
	Config
	// Variant is the system under soak (MS-MISO by default).
	Variant multistore.Variant
	// Sessions is the number of concurrent client sessions.
	Sessions int
	// Queries is the number of queries each session submits.
	Queries int
	// Workers / Queue / Timeout configure the serving frontend; zero
	// values take the serve package defaults (Timeout zero disables the
	// per-query deadline).
	Workers int
	Queue   int
	Timeout time.Duration
	// ReorgEvery forces an online reorganization (through the drain
	// barrier) after every n completed submissions across all sessions;
	// zero disables forced reorgs.
	ReorgEvery int
}

// DefaultSoak returns the acceptance-soak shape: 8 sessions replaying
// the full workload once each.
func DefaultSoak(base Config) SoakConfig {
	return SoakConfig{
		Config:   base,
		Variant:  multistore.VariantMSMiso,
		Sessions: 8,
		Queries:  len(workload.SQLs()),
		Workers:  4,
		Queue:    8,
		Timeout:  30 * time.Second,
	}
}

// SoakResult reports one soak run: wall-clock throughput and latency of
// the serving plane plus the backend's simulated TTI accounting.
type SoakResult struct {
	Cfg      SoakConfig
	Wall     time.Duration
	QPS      float64
	P50, P99 time.Duration
	Serve    serve.Metrics
	System   multistore.Metrics
	// InvariantErr is non-nil when the backend's catalog invariants did
	// not hold at exit.
	InvariantErr error
}

// Soak runs the concurrent-serving soak. Errors other than sheds and
// deadline/cancel abandons fail the run; the serving metrics' accounting
// invariant and the backend's catalog invariants are checked at exit.
func Soak(cfg SoakConfig) (*SoakResult, error) {
	if cfg.Variant == "" {
		cfg.Variant = multistore.VariantMSMiso
	}
	if cfg.Sessions <= 0 {
		cfg.Sessions = 8
	}
	if cfg.Queries <= 0 {
		cfg.Queries = len(workload.SQLs())
	}
	sys, err := cfg.Config.newSystem(cfg.Variant)
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.Config{
		Workers:      cfg.Workers,
		QueueDepth:   cfg.Queue,
		QueryTimeout: cfg.Timeout,
	}, sys)

	sqls := workload.SQLs()
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		latencies []time.Duration
		submitted int
		hardErr   error
	)
	start := time.Now()
	for s := 0; s < cfg.Sessions; s++ {
		wg.Add(1)
		go func(session int) {
			defer wg.Done()
			for i := 0; i < cfg.Queries; i++ {
				sql := sqls[(session+i)%len(sqls)]
				t0 := time.Now()
				_, err := srv.Do(context.Background(), sql)
				lat := time.Since(t0)
				mu.Lock()
				submitted++
				reorgDue := cfg.ReorgEvery > 0 && submitted%cfg.ReorgEvery == 0
				switch {
				case err == nil:
					latencies = append(latencies, lat)
				case errors.Is(err, serve.ErrShed),
					errors.Is(err, context.DeadlineExceeded),
					errors.Is(err, context.Canceled),
					errors.Is(err, govern.ErrMemLimit),
					errors.Is(err, govern.ErrInternal):
					// Expected serving outcomes — sheds, deadline/cancel
					// abandons, memory-budget aborts, contained panics —
					// counted by the server.
				default:
					if hardErr == nil {
						hardErr = fmt.Errorf("experiments: soak session %d query %d: %w", session, i, err)
					}
				}
				mu.Unlock()
				if reorgDue {
					if err := srv.Reorganize(); err != nil {
						mu.Lock()
						if hardErr == nil {
							hardErr = fmt.Errorf("experiments: soak online reorg: %w", err)
						}
						mu.Unlock()
					}
				}
			}
		}(s)
	}
	wg.Wait()
	wall := time.Since(start)
	srv.Close()
	if hardErr != nil {
		return nil, hardErr
	}

	m := srv.Metrics()
	if err := m.Check(); err != nil {
		return nil, err
	}
	res := &SoakResult{
		Cfg:          cfg,
		Wall:         wall,
		Serve:        m,
		System:       sys.Metrics(),
		InvariantErr: sys.CheckInvariants(),
	}
	if wall > 0 {
		res.QPS = float64(m.Completed) / wall.Seconds()
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if n := len(latencies); n > 0 {
		res.P50 = latencies[n/2]
		res.P99 = latencies[n*99/100]
	}
	return res, nil
}

// WriteText renders the soak report.
func (r *SoakResult) WriteText(w io.Writer) {
	m := r.Serve
	fprintf(w, "Serving soak: %d sessions x %d queries, %d workers, queue %d, %s (%s)\n",
		r.Cfg.Sessions, r.Cfg.Queries, r.Cfg.Workers, r.Cfg.Queue, r.Cfg.Variant, rateLabel(r.Cfg.FaultRate))
	fprintf(w, "wall %-10s throughput %.1f q/s   latency p50 %s  p99 %s\n",
		r.Wall.Round(time.Millisecond), r.QPS,
		r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond))
	fprintf(w, "submitted %d: completed %d, shed %d, timed out %d, canceled %d, mem-aborted %d, panics contained %d, failed %d\n",
		m.Submitted, m.Completed, m.Sheds, m.Timeouts, m.Canceled, m.Aborted, m.PanicsContained, m.Failed)
	fprintf(w, "breaker: %d trips, %d probes; degraded %d; reorgs %d (%d drain cancels)\n",
		m.BreakerTrips, m.BreakerProbes, m.Degraded, m.Reorgs, m.ReorgCancels)
	sm := r.System
	fprintf(w, "backend TTI %.1fs (hv %.1f, dw %.1f, xfer %.1f, tune %.1f, etl %.1f, recovery %.1f)\n",
		sm.TTI(), sm.HVExe, sm.DWExe, sm.Transfer, sm.Tune, sm.ETL, sm.Recovery)
	if r.InvariantErr != nil {
		fprintf(w, "INVARIANT VIOLATION: %v\n", r.InvariantErr)
	} else {
		fprintf(w, "catalog invariants held at exit\n")
	}
}

// Serve is the serve mode: the soak at its default shape.
func Serve(c Config) (*SoakResult, error) { return Soak(DefaultSoak(c)) }

// Checks declares the soak's exit verdict: the backend's catalog
// invariants hold.
func (r *SoakResult) Checks() []Check {
	return []Check{checkTrue("invariants hold at exit", r.InvariantErr == nil)}
}

func rateLabel(rate float64) string {
	if rate <= 0 {
		return "no faults"
	}
	return fmt.Sprintf("%.0f%% faults", 100*rate)
}
