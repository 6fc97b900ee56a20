// Command misobench regenerates the tables and figures of the paper's
// evaluation section plus the extension pipelines. Every experiment is a
// named mode in one table: -modes lists them, -mode runs any set of them,
// and -all runs every paper figure and table.
//
// Each mode prints its result; a mode with an artifact also writes its
// JSON report to that file in the current directory. A mode that declares
// checks prints them after its result and makes misobench exit 1 when one
// fails.
//
// Usage:
//
//	misobench -modes                        # list every mode and its artifact
//	misobench -mode fig4                    # Figure 4 (five-variant TTI comparison)
//	misobench -mode fig3.2,table2           # any modes by name
//	misobench -all -scale small             # every paper figure/table, quickly
//	misobench -mode chaos -scale small      # fault-injection sweep (extension)
//	misobench -mode benchexec -scale small  # exec engine benchmarks -> BENCH_exec.json
//	misobench -mode endurance -scale small -endurancetenants 60 -endurancequeries 80 -endurancedur 90s
//
// Profiling: -cpuprofile and -memprofile write pprof profiles covering
// whatever experiments the invocation runs (see README.md).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"miso/internal/experiments"
)

// mode is one registered experiment: a stable name, what it produces, the
// artifact file its report is written to (empty when it only prints), and
// its runner.
type mode struct {
	name     string
	desc     string
	artifact string
	run      func(experiments.Config) (*experiments.Report, error)
}

var modes = []mode{
	{"fig3", "Figure 3: per-query HV vs DW execution profile", "", experiments.Run(experiments.Fig3)},
	{"fig3.2", "Section 3.2: the two-query transfer experiment", "", experiments.Run(experiments.Sec32)},
	{"fig4", "Figure 4: five-variant TTI comparison", "", experiments.Run(experiments.Fig4Shared)},
	{"fig5", "Figure 5: TTI speedup over HV-OP", "", experiments.Run(experiments.Fig5Shared)},
	{"fig6", "Figure 6: per-query time across the evolving workload", "", experiments.Run(experiments.Fig6All)},
	{"fig7", "Figure 7: tuning policy comparison", "", experiments.Run(experiments.Fig7)},
	{"fig8", "Figure 8: transfer budget sensitivity", "", experiments.Run(experiments.Fig8)},
	{"fig9", "Figure 9: storage budget sensitivity", "", experiments.Run(experiments.Fig9)},
	{"table2", "Table 2: mutual impact of sharing the DW", "", experiments.Run(experiments.Table2)},
	{"order", "workload order sensitivity (extension)", "", experiments.Run(experiments.OrderSensitivity)},
	{"chaos", "fault-injection sweep (robustness extension)", "", experiments.Run(experiments.Chaos)},
	{"crash", "crash-recovery sweep (durability extension)", "", experiments.Run(experiments.CrashSweep)},
	{"benchexec", "exec benchmark pipeline: morsel engine vs serial baseline", "BENCH_exec.json", experiments.Run(experiments.BenchExec)},
	{"benchgov", "governance pipeline: cancellation storm, panic containment, memory budgets", "BENCH_governance.json", experiments.Run(experiments.BenchGovern)},
	{"serve", "concurrent-serving soak (robustness extension)", "", experiments.Run(experiments.Serve)},
	{"scenarios", "overload scenario matrix: flash crowd, tenant skew, diurnal, drift churn, ETL storm, DW brownout", "BENCH_scenarios.json", experiments.Run(experiments.Scenarios)},
	{"cache", "cross-query reuse soak: semantic result cache + shared-flight piggybacking vs cold execution", "BENCH_cache.json", experiments.Run(experiments.Cache)},
	{"endurance", "long-horizon adversarial endurance harness: closed-loop tenants, bit-rot injection, self-healing audit", "BENCH_endurance.json", experiments.Run(experiments.Endurance)},
}

// paperModes are the modes -all runs: every paper figure and table plus
// the order-sensitivity extension.
var paperModes = []string{"fig3", "fig3.2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table2", "order"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the selected modes and returns the exit code: 0
// on success, 1 when a mode fails or misses a check, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("misobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	all := fs.Bool("all", false, "regenerate every paper figure and table")
	listModes := fs.Bool("modes", false, "list every registered mode and exit")
	modeList := fs.String("mode", "", "comma-separated mode names to run (see -modes)")
	scale := fs.String("scale", "paper", "dataset scale: paper or small")
	faultRate := fs.Float64("faultrate", 0, "uniform fault-injection rate applied to every experiment (0 disables)")
	faultSeed := fs.Int64("faultseed", 42, "seed for the deterministic fault injector")
	tuneWorkers := fs.Int("tuneworkers", 0, "tuner what-if worker pool size for all experiments (<= 1 keeps costing serial)")
	execWorkers := fs.Int("execworkers", 0, "execution engine for all experiments: 0 = morsel engine at GOMAXPROCS, n = n morsel workers, -1 = legacy serial engine")
	enduranceTenants := fs.Int("endurancetenants", 0, "endurance: closed-loop client/tenant population (0 = default 200)")
	enduranceQueries := fs.Int("endurancequeries", 0, "endurance: served-query horizon (0 = default 150)")
	enduranceDur := fs.Duration("endurancedur", 0, "endurance: wall-clock cap (0 = default 3m)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile covering the whole run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *listModes {
		printModes(stdout)
		return 0
	}
	var names []string
	if *all {
		names = append(names, paperModes...)
	}
	for _, name := range strings.Split(*modeList, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	targets := map[string]bool{}
	for _, name := range names {
		if lookup(name) == nil {
			fmt.Fprintf(stderr, "unknown mode %q; registered modes:\n", name)
			printModes(stderr)
			return 2
		}
		targets[name] = true
	}
	if len(targets) == 0 {
		fmt.Fprintln(stderr, "nothing to do; pass -mode or -all (see -modes and -h)")
		return 2
	}
	if *scale != "paper" && *scale != "small" {
		fmt.Fprintf(stderr, "unknown scale %q; want paper or small\n", *scale)
		return 2
	}

	cfg := experiments.Default()
	if *scale == "small" {
		cfg = experiments.Small()
	}
	cfg.FaultRate = *faultRate
	cfg.FaultSeed = *faultSeed
	cfg.TuneWorkers = *tuneWorkers
	cfg.ExecWorkers = *execWorkers
	cfg.EnduranceTenants = *enduranceTenants
	cfg.EnduranceQueries = *enduranceQueries
	cfg.EnduranceDur = *enduranceDur

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer writeHeapProfile(*memProfile, stderr)
	}

	for _, m := range modes {
		if !targets[m.name] {
			continue
		}
		start := time.Now()
		rep, err := m.run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "experiment %s failed: %v\n", m.name, err)
			return 1
		}
		rep.Mode = m.name
		rep.Rows.WriteText(stdout)
		if m.artifact != "" {
			if err := writeArtifact(m.artifact, rep); err != nil {
				fmt.Fprintf(stderr, "experiment %s: %v\n", m.name, err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %s\n", m.artifact)
		}
		rep.WriteChecks(stdout)
		if !rep.Pass {
			fmt.Fprintf(stderr, "experiment %s failed one or more checks\n", m.name)
			return 1
		}
		fmt.Fprintf(stdout, "[%s done in %s wall clock]\n\n", m.name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

func lookup(name string) *mode {
	for i := range modes {
		if modes[i].name == name {
			return &modes[i]
		}
	}
	return nil
}

func printModes(w io.Writer) {
	fmt.Fprintf(w, "%-12s %-24s %s\n", "MODE", "ARTIFACT", "DESCRIPTION")
	for _, m := range modes {
		art := m.artifact
		if art == "" {
			art = "-"
		}
		fmt.Fprintf(w, "%-12s %-24s %s\n", m.name, art, m.desc)
	}
}

func writeArtifact(path string, rep *experiments.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeHeapProfile(path string, stderr io.Writer) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(stderr, "memprofile: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(stderr, "memprofile: %v\n", err)
	}
}
