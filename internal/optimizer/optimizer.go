// Package optimizer implements the multistore query optimizer. Given a raw
// logical plan and a (real or hypothetical) placement of views across the
// stores, it enumerates split points — downward-closed cuts of the plan
// whose HV-side subtrees execute in the big data store and whose outputs
// migrate into DW temp space for the remainder — rewrites each side with
// the views available in that store, costs the alternatives with the
// stores' what-if interfaces plus the transfer model, and picks the
// cheapest. UDF-bearing operators are pinned to HV; raw-log extraction can
// only happen in HV, unless a DW-resident view already covers the subtree,
// in which case the query can bypass HV entirely.
package optimizer

import (
	"fmt"
	"strings"

	"miso/internal/dw"
	"miso/internal/hv"
	"miso/internal/logical"
	"miso/internal/stats"
	"miso/internal/transfer"
	"miso/internal/views"
)

// Design is a placement of views across the two stores — the multistore
// physical design M = <Vh, Vd> of the paper.
type Design struct {
	HV *views.Set
	DW *views.Set
}

// EmptyDesign returns a design with no views in either store.
func EmptyDesign() Design {
	return Design{HV: views.NewSet(), DW: views.NewSet()}
}

// Cut is one migrated subtree of a multistore plan.
type Cut struct {
	// Node is the raw subtree that ends in HV (before HV-side rewriting).
	Node *logical.Node
	// HVPlan is the subtree rewritten with the HV views, or nil when the
	// subtree is answered directly by a DW-resident view.
	HVPlan *logical.Node
	// DWView is the DW-side rewrite when a DW view covers the subtree
	// (no HV work, no transfer).
	DWView *logical.Node
	// TempName is the temp-space name the DW part reads the migrated
	// working set under.
	TempName string
	// EstBytes is the estimated size of the migrated working set.
	EstBytes int64
}

// MultiPlan is one complete multistore execution alternative.
type MultiPlan struct {
	// HVOnly is set when the entire query executes in HV.
	HVOnly bool
	// HVPlan is the full rewritten plan for HV-only execution.
	HVPlan *logical.Node
	// Cuts are the migrated subtrees for split execution.
	Cuts []Cut
	// DWPart is the remainder executed in DW, reading cut outputs via
	// ViewScans; nil for HV-only plans.
	DWPart *logical.Node

	// Estimated cost components in simulated seconds.
	EstHV, EstTransfer, EstDW float64
	// EstTransferBytes is the total estimated migrated bytes.
	EstTransferBytes int64
}

// EstTotal is the plan's total estimated cost.
func (p *MultiPlan) EstTotal() float64 { return p.EstHV + p.EstTransfer + p.EstDW }

// Explain renders the multistore plan for humans: where each part runs,
// what migrates, and the estimated cost breakdown.
func (p *MultiPlan) Explain() string {
	var b strings.Builder
	if p.HVOnly {
		fmt.Fprintf(&b, "HV-only plan (est %.1fs):\n", p.EstHV)
		b.WriteString(indent(p.HVPlan.String(), "  "))
		return b.String()
	}
	fmt.Fprintf(&b, "split plan (est %.1fs = HV %.1f + transfer %.1f + DW %.1f):\n",
		p.EstTotal(), p.EstHV, p.EstTransfer, p.EstDW)
	for i, cut := range p.Cuts {
		if cut.DWView != nil {
			fmt.Fprintf(&b, "cut %d: answered by a DW-resident view\n", i)
			b.WriteString(indent(cut.DWView.String(), "  "))
			continue
		}
		fmt.Fprintf(&b, "cut %d: executes in HV, migrates ~%.2f GB as %s\n",
			i, float64(cut.EstBytes)/1e9, cut.TempName)
		b.WriteString(indent(cut.HVPlan.String(), "  "))
	}
	b.WriteString("remainder executes in DW:\n")
	b.WriteString(indent(p.DWPart.String(), "  "))
	return b.String()
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n") + "\n"
}

// Optimizer plans queries across the two stores.
type Optimizer struct {
	hv   *hv.Store
	dw   *dw.Store
	est  *stats.Estimator
	tcfg transfer.Config

	// MaxPlans caps split enumeration per query.
	MaxPlans int
	// DisableSplits restricts planning to HV-only execution (used by the
	// HV-ONLY and HV-OP system variants).
	DisableSplits bool
	// ReuseProbe, when set, reports whether the cross-query reuse cache
	// holds the materialized subresult for a cut subtree; such a cut then
	// charges no HV execution cost, steering plan choice toward cached
	// work. The probe must be safe for concurrent calls (EnumeratePlans
	// runs under the tuner's parallel what-if workers) and must not
	// mutate optimizer state; costing with a nil probe is unchanged.
	ReuseProbe func(*logical.Node) bool
}

// New creates an optimizer over the two stores.
func New(h *hv.Store, d *dw.Store, est *stats.Estimator, tcfg transfer.Config) *Optimizer {
	return &Optimizer{hv: h, dw: d, est: est, tcfg: tcfg, MaxPlans: 256}
}

// RewriteWithViews rewrites the plan greedily top-down, replacing each
// subtree by the best matching view in the set. It returns the (possibly
// unchanged) plan. The rewrite overwrites every child slot, so only the
// nodes on a rewritten path are copied (shallowly); subtrees the rewrite
// leaves alone stay shared.
func RewriteWithViews(n *logical.Node, set *views.Set) *logical.Node {
	if set != nil && set.Len() > 0 {
		if m, ok := set.BestMatch(n); ok {
			if r, err := m.Rewrite(); err == nil {
				return r
			}
		}
	}
	if len(n.Children) == 0 {
		return n
	}
	c := n.CloneShallow()
	changed := false
	for i := range c.Children {
		nc := RewriteWithViews(c.Children[i], set)
		if nc != c.Children[i] {
			changed = true
		}
		c.Children[i] = nc
	}
	if !changed {
		return n
	}
	return c
}

// enumerateCuts lists candidate frontiers: each frontier is a set of
// subtree roots that execute in HV (or resolve to DW views), with
// everything above running in DW. The frontier {root} (HV-only) is NOT
// included; it is handled separately.
func (o *Optimizer) enumerateCuts(n *logical.Node, limit int) [][]*logical.Node {
	options := [][]*logical.Node{{n}}
	if n.Kind == logical.KindExtract || n.Kind == logical.KindScan ||
		n.Kind == logical.KindViewScan || len(n.Children) == 0 {
		return options
	}
	// For n to run in DW, its own expressions must be UDF-free.
	if n.UsesUDFHere() {
		return options
	}
	combos := [][]*logical.Node{nil}
	for _, c := range n.Children {
		childOpts := o.enumerateCuts(c, limit)
		var next [][]*logical.Node
		for _, base := range combos {
			for _, co := range childOpts {
				merged := make([]*logical.Node, 0, len(base)+len(co))
				merged = append(merged, base...)
				merged = append(merged, co...)
				next = append(next, merged)
				if len(next) >= limit {
					break
				}
			}
			if len(next) >= limit {
				break
			}
		}
		combos = next
	}
	options = append(options, combos...)
	if len(options) > limit {
		options = options[:limit]
	}
	return options
}

// cutEval memoizes the frontier-independent evaluation of one cut subtree
// within a single plan enumeration: its DW-view rewrite (when one covers
// it), or its HV rewrite, estimated output, HV cost and transfer cost.
// The same subtree appears in many enumerated frontiers; evaluating it
// once per EnumeratePlans call instead of once per frontier removes the
// dominant repeated work from the what-if path. Only the migrated working
// set's temp name differs per frontier (it is positional), so that stays
// in buildPlan. Every memoized value is a pure function of the node and
// the design, which EnumeratePlans holds fixed.
type cutEval struct {
	dwView *logical.Node // non-nil when a DW-resident view answers the cut
	hvPlan *logical.Node
	st     stats.Stat
	hvCost float64
	xfer   float64
}

func (o *Optimizer) evalCut(cutNode *logical.Node, d Design, memo map[*logical.Node]*cutEval) *cutEval {
	if ce, ok := memo[cutNode]; ok {
		return ce
	}
	ce := &cutEval{}
	memo[cutNode] = ce
	if d.DW != nil {
		if m, ok := d.DW.BestMatch(cutNode); ok {
			if r, err := m.Rewrite(); err == nil {
				ce.dwView = r
				return ce
			}
		}
	}
	ce.st = o.est.Estimate(cutNode)
	ce.hvPlan = RewriteWithViews(cutNode, d.HV)
	ce.hvCost = o.hv.CostPlan(ce.hvPlan)
	ce.xfer = transfer.Cost(o.tcfg, ce.st.Bytes).Total()
	return ce
}

// buildPlan assembles and costs the multistore plan for one frontier.
// The what-if stats of the hypothetical migrated working sets live in a
// plan-local overlay rather than the shared estimator cache, so buildPlan
// never mutates shared state: concurrent costing calls reusing the same
// temp names (ws_0, ws_1, ...) cannot clobber each other.
func (o *Optimizer) buildPlan(raw *logical.Node, frontier []*logical.Node, d Design, memo map[*logical.Node]*cutEval) (*MultiPlan, error) {
	plan := &MultiPlan{}
	var totalBytes int64

	// Replace each frontier subtree in the DW part.
	replace := map[*logical.Node]*logical.Node{}
	var overlay map[string]stats.Stat
	for i, cutNode := range frontier {
		cut := Cut{Node: cutNode, TempName: fmt.Sprintf("ws_%d", i)}
		ce := o.evalCut(cutNode, d, memo)
		if ce.dwView != nil {
			cut.DWView = ce.dwView
			replace[cutNode] = ce.dwView
			plan.Cuts = append(plan.Cuts, cut)
			continue
		}
		cut.HVPlan = ce.hvPlan
		cut.EstBytes = ce.st.Bytes
		totalBytes += ce.st.Bytes
		if overlay == nil {
			overlay = make(map[string]stats.Stat, len(frontier))
		}
		overlay["viewscan("+cut.TempName+")"] = ce.st
		replace[cutNode] = logical.NewViewScan(cut.TempName, cutNode.Schema())
		if o.ReuseProbe == nil || !o.ReuseProbe(cutNode) {
			plan.EstHV += ce.hvCost
		}
		plan.EstTransfer += ce.xfer
		plan.Cuts = append(plan.Cuts, cut)
	}
	plan.EstTransferBytes = totalBytes

	dwPart, err := substitute(raw, replace)
	if err != nil {
		return nil, err
	}
	if dwPart.UsesUDF() {
		return nil, fmt.Errorf("optimizer: DW part contains a UDF")
	}
	plan.DWPart = dwPart
	plan.EstDW = o.dw.CostPlanWith(dwPart, overlay)
	return plan, nil
}

// substitute clones the tree, swapping replaced subtrees.
func substitute(n *logical.Node, replace map[*logical.Node]*logical.Node) (*logical.Node, error) {
	if r, ok := replace[n]; ok {
		return r, nil
	}
	if len(n.Children) == 0 {
		return nil, fmt.Errorf("optimizer: leaf %s not covered by any cut", n.Kind)
	}
	c := n.CloneShallow()
	for i := range n.Children {
		nc, err := substitute(n.Children[i], replace)
		if err != nil {
			return nil, err
		}
		c.Children[i] = nc
	}
	return c, nil
}

// hvOnlyPlan builds and costs full-HV execution.
func (o *Optimizer) hvOnlyPlan(raw *logical.Node, d Design) *MultiPlan {
	p := RewriteWithViews(raw, d.HV)
	return &MultiPlan{HVOnly: true, HVPlan: p, EstHV: o.hv.CostPlan(p)}
}

// EnumeratePlans returns every candidate multistore plan with estimated
// costs: the HV-only plan first, then one plan per enumerated split.
//
// Concurrency contract: EnumeratePlans (and Choose/Cost above it) is a
// pure read of the stores, the estimator, and the design — it records no
// stats, stages no tables, and draws no faults — so any number of
// goroutines may cost plans concurrently, provided the raw plan's node
// signatures were prewarmed (logical.Node.PrewarmSignatures) and nothing
// concurrently mutates the design's view sets or the catalog.
func (o *Optimizer) EnumeratePlans(raw *logical.Node, d Design) []*MultiPlan {
	plans := []*MultiPlan{o.hvOnlyPlan(raw, d)}
	if o.DisableSplits {
		return plans
	}
	memo := map[*logical.Node]*cutEval{}
	for _, frontier := range o.enumerateCuts(raw, o.MaxPlans) {
		if len(frontier) == 1 && frontier[0] == raw {
			continue // HV-only already covered
		}
		p, err := o.buildPlan(raw, frontier, d, memo)
		if err != nil {
			continue // invalid split (UDF above the cut, etc.)
		}
		plans = append(plans, p)
	}
	return plans
}

// Choose returns the cheapest multistore plan for the query under the
// design.
func (o *Optimizer) Choose(raw *logical.Node, d Design) (*MultiPlan, error) {
	plans := o.EnumeratePlans(raw, d)
	if len(plans) == 0 {
		return nil, fmt.Errorf("optimizer: no feasible plan")
	}
	best := plans[0]
	for _, p := range plans[1:] {
		if p.EstTotal() < best.EstTotal() {
			best = p
		}
	}
	return best, nil
}

// Cost is the what-if interface: the estimated cost of the query's best
// plan under a hypothetical design.
func (o *Optimizer) Cost(raw *logical.Node, d Design) float64 {
	best, err := o.Choose(raw, d)
	if err != nil {
		return 0
	}
	return best.EstTotal()
}
