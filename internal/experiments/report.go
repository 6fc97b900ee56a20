package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"miso/internal/data"
	"miso/internal/workload"
)

// Rows is one mode's typed result; it renders itself as plain text.
type Rows interface {
	WriteText(w io.Writer)
}

// Gated is a result that declares acceptance checks. Checks is declared
// data: it returns the same list for any result, the zero value included,
// and a missing measurement reads as zero.
type Gated interface {
	Rows
	Checks() []Check
}

// Env is the shared report header: where the run happened and at what
// scale.
type Env struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Scale is "paper" or "small".
	Scale string `json:"scale"`
}

// env returns the header for a run under this configuration.
func (c Config) env() Env {
	scale := "paper"
	if c.Data.NumTweets == data.SmallConfig().NumTweets {
		scale = "small"
	}
	return Env{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Scale:      scale,
	}
}

// Check is one declared acceptance criterion: Got compared with Bound by
// Op (one of >=, >, <=, ==). Boolean verdicts are encoded as 1 (true) or
// 0 (false) and compared == 1.
type Check struct {
	Name  string  `json:"name"`
	Got   float64 `json:"got"`
	Op    string  `json:"op"`
	Bound float64 `json:"bound"`
	Pass  bool    `json:"pass"`
}

// check builds a Check, evaluating its comparison. An unknown operator
// never passes.
func check(name string, got float64, op string, bound float64) Check {
	var pass bool
	switch op {
	case ">=":
		pass = got >= bound
	case ">":
		pass = got > bound
	case "<=":
		pass = got <= bound
	case "==":
		pass = got == bound
	}
	return Check{Name: name, Got: got, Op: op, Bound: bound, Pass: pass}
}

// checkTrue declares that a boolean verdict must hold.
func checkTrue(name string, v bool) Check {
	return check(name, b2f(v), "==", 1)
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// Report is what every misobench mode returns: its typed rows, the
// shared header, and its declared checks. Pass is true when every check
// passed (a mode without checks always passes).
type Report struct {
	Mode   string  `json:"mode"`
	Env    Env     `json:"env"`
	Rows   Rows    `json:"rows"`
	Checks []Check `json:"checks"`
	Pass   bool    `json:"pass"`
}

// newReport assembles a report for rows produced under c, evaluating the
// checks the rows declare.
func newReport(c Config, rows Rows) *Report {
	r := &Report{Env: c.env(), Rows: rows, Pass: true}
	if g, ok := rows.(Gated); ok {
		r.Checks = g.Checks()
	}
	for _, ch := range r.Checks {
		if !ch.Pass {
			r.Pass = false
		}
	}
	return r
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteChecks renders the header and one line per check; it writes
// nothing for a report without checks.
func (r *Report) WriteChecks(w io.Writer) {
	if len(r.Checks) == 0 {
		return
	}
	e := r.Env
	fprintf(w, "checks (%s/%s, %d CPU, GOMAXPROCS %d, %s, scale=%s):\n",
		e.GOOS, e.GOARCH, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Scale)
	width := 0
	for _, c := range r.Checks {
		width = max(width, len(c.Name))
	}
	for _, c := range r.Checks {
		mark := "ok  "
		if !c.Pass {
			mark = "FAIL"
		}
		fprintf(w, "  [%s] %-*s  %s %s %s\n", mark, width, c.Name, fmtNum(c.Got), c.Op, fmtNum(c.Bound))
	}
}

func fmtNum(f float64) string {
	if f == float64(int64(f)) {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%.3f", f)
}

// Run adapts an experiment to a mode runner: its report carries the
// experiment's result and, when the result is Gated, its checks.
func Run[R Rows](run func(Config) (R, error)) func(Config) (*Report, error) {
	return func(c Config) (*Report, error) {
		r, err := run(c)
		if err != nil {
			return nil, err
		}
		return newReport(c, r), nil
	}
}

// Fig4Shared is Fig4 that also keeps its result in c for Fig5Shared.
func Fig4Shared(c Config) (*Fig4Result, error) {
	r, err := Fig4(c)
	if err != nil {
		return nil, err
	}
	if c.runs != nil {
		c.runs.Lock()
		c.runs.fig4cfg, c.runs.fig4 = c, r
		c.runs.Unlock()
	}
	return r, nil
}

// Fig5Shared is Fig5 over the Fig4Shared result kept in c when its
// configuration matches, and over fresh Fig 4 runs otherwise.
func Fig5Shared(c Config) (*Fig5Result, error) {
	var base *Fig4Result
	if c.runs != nil {
		c.runs.Lock()
		if c.runs.fig4cfg == c {
			base = c.runs.fig4
		}
		c.runs.Unlock()
	}
	return Fig5(c, base)
}

// Fig6All is Fig6 over the whole evolving workload.
func Fig6All(c Config) (*Fig6Result, error) {
	names := make([]string, 0, len(workload.Evolving()))
	for _, q := range workload.Evolving() {
		names = append(names, q.Name)
	}
	return Fig6(c, names)
}
