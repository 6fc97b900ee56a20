// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5): the split-plan profile (Fig 3), the two-query
// motivation (Section 3.2), the five-variant TTI comparison (Fig 4), the
// TTI and query-time CDFs (Fig 5), store utilization (Fig 6), the tuning
// technique comparison (Fig 7), the storage budget sweep (Fig 8), the
// spare-capacity timelines (Fig 9), and the mutual-impact table (Table 2).
// Each experiment returns structured results and renders a plain-text
// table; absolute numbers are simulated seconds, and the comparison targets
// are the paper's shapes (who wins, by what factor, where crossovers fall).
package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"miso/internal/data"
	"miso/internal/faults"
	"miso/internal/multistore"
	"miso/internal/optimizer"
	"miso/internal/workload"
)

func emptyDesign() optimizer.Design { return optimizer.EmptyDesign() }

// Config parameterizes an experiment run.
type Config struct {
	// Data is the dataset configuration; DefaultConfig is paper scale.
	Data data.Config
	// BudgetMultiple is the view storage budget as a multiple of each
	// store's base size (2.0 in the main experiments).
	BudgetMultiple float64
	// TransferBudget is Bt in bytes (10 GB in the paper; calibrated to
	// this workload's view-size distribution, see EXPERIMENTS.md).
	TransferBudget int64
	// FaultRate applies a uniform fault-injection profile across all
	// sites; zero (the default) leaves the fault plane disabled.
	FaultRate float64
	// FaultSeed seeds the injector's deterministic RNG.
	FaultSeed int64
	// TuneWorkers bounds the tuner's what-if worker pool (core.Config.
	// TuneWorkers); <= 1 keeps costing serial. Designs are identical at
	// any worker count, only Tune wall-clock changes.
	TuneWorkers int
	// ExecWorkers selects both stores' execution engine (multistore.
	// Config.ExecWorkers / exec.Env.Workers semantics): 0 is the morsel
	// engine at GOMAXPROCS, n > 0 bounds its pool, exec.SerialWorkers is
	// the legacy serial engine. Results are byte-identical at every
	// setting.
	ExecWorkers int
	// EnduranceTenants, EnduranceQueries and EnduranceDur override the
	// endurance mode's client population, served-query horizon and
	// wall-clock cap; zero keeps DefaultEndurance's.
	EnduranceTenants int
	EnduranceQueries int
	EnduranceDur     time.Duration

	// runs lets one mode reuse another's runs in the same process: the
	// fig5 mode renders the fig4 mode's Figure 4 runs. Default and Small
	// allocate it; copies share it; a zero Config shares nothing.
	runs *sharedRuns
}

// sharedRuns holds the last Fig4Shared result and its configuration.
type sharedRuns struct {
	sync.Mutex
	fig4cfg Config
	fig4    *Fig4Result
}

// Default returns the paper's main configuration.
func Default() Config {
	return Config{
		Data:           data.DefaultConfig(),
		BudgetMultiple: 2.0,
		TransferBudget: 10 << 30,
		runs:           &sharedRuns{},
	}
}

// Small returns a quick configuration for tests.
func Small() Config {
	return Config{
		Data:           data.SmallConfig(),
		BudgetMultiple: 2.0,
		TransferBudget: 10 << 30,
		runs:           &sharedRuns{},
	}
}

// newSystem builds a system for the variant under this configuration.
func (c Config) newSystem(v multistore.Variant) (*multistore.System, error) {
	cat, err := data.Generate(c.Data)
	if err != nil {
		return nil, err
	}
	cfg := multistore.DefaultConfig(v)
	cfg.SetBudgets(cat, c.BudgetMultiple, c.TransferBudget)
	cfg.Faults = faults.Uniform(c.FaultRate)
	cfg.FaultSeed = c.FaultSeed
	cfg.Tuner.TuneWorkers = c.TuneWorkers
	cfg.ExecWorkers = c.ExecWorkers
	sys := multistore.New(cfg, cat)
	if err := sys.ProvideFutureWorkload(workload.SQLs()); err != nil {
		return nil, err
	}
	return sys, nil
}

// runWorkload executes the full 32-query workload on a fresh system.
func (c Config) runWorkload(v multistore.Variant) (*multistore.System, error) {
	sys, err := c.newSystem(v)
	if err != nil {
		return nil, err
	}
	for i, sql := range workload.SQLs() {
		if _, err := sys.Run(sql); err != nil {
			return nil, fmt.Errorf("experiments: %s query %d (%s): %w",
				v, i, workload.Evolving()[i].Name, err)
		}
	}
	return sys, nil
}

// cumulativeTTI reconstructs the per-query cumulative TTI series: ETL is
// paid before the first query, each reorganization before the query it
// precedes, then the query's own execution time.
func cumulativeTTI(sys *multistore.System) []float64 {
	reorgAt := map[int]float64{}
	for _, r := range sys.ReorgLog() {
		reorgAt[r.BeforeSeq] += r.Seconds
	}
	m := sys.Metrics()
	cum := m.ETL
	out := make([]float64, 0, len(sys.Reports()))
	for _, rep := range sys.Reports() {
		cum += reorgAt[rep.Seq]
		cum += rep.Total()
		out = append(out, cum)
	}
	return out
}

func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}
