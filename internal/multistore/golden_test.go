package multistore_test

import (
	"runtime"
	"testing"

	"miso/internal/data"
	"miso/internal/faults"
	"miso/internal/multistore"
	"miso/internal/workload"
)

// TestStateDigestGolden pins the durable state every variant reaches on
// the full workload under three fault profiles. The constants were
// recorded before MS-LRU's split-plan execution was folded into the
// shared executor; any drift in what a variant executes, captures,
// retains or charges changes a digest here. Queries that fail are
// skipped, as a fault storm makes some exhaust their retries.
func TestStateDigestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests pinned on amd64 only: Go may fuse multiply-adds on %s, which moves simulated seconds by an ULP", runtime.GOARCH)
	}
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	profiles := []struct {
		name   string
		faults faults.Profile
	}{
		{"none", faults.Profile{}},
		{"dw-query-0.5", faults.Profile{}.With(faults.SiteDWQuery, 0.5)},
		{"uniform-0.3", faults.Uniform(0.3)},
	}
	variants := []multistore.Variant{
		multistore.VariantHVOnly, multistore.VariantDWOnly,
		multistore.VariantMSBasic, multistore.VariantHVOp,
		multistore.VariantMSMiso, multistore.VariantMSOff,
		multistore.VariantMSLru, multistore.VariantMSOra,
	}
	golden := map[string]uint64{
		"none/HV-ONLY":          0x62bde218f7483bc8,
		"none/DW-ONLY":          0xe6de474d357f5956,
		"none/MS-BASIC":         0x479275e9ba4bd2d4,
		"none/HV-OP":            0x83fce268fd7b45d8,
		"none/MS-MISO":          0xb6683fcb64549018,
		"none/MS-OFF":           0x45b9490183462500,
		"none/MS-LRU":           0x8d7ee47c3f03b82e,
		"none/MS-ORA":           0x6a24c1777fb4230c,
		"dw-query-0.5/HV-ONLY":  0x62bde218f7483bc8,
		"dw-query-0.5/DW-ONLY":  0x0852f40e75faf7a2,
		"dw-query-0.5/MS-BASIC": 0x0e316b017ec226b9,
		"dw-query-0.5/HV-OP":    0x83fce268fd7b45d8,
		"dw-query-0.5/MS-MISO":  0x965860ed5d412ec1,
		"dw-query-0.5/MS-OFF":   0x78a4bd4d155a3524,
		"dw-query-0.5/MS-LRU":   0x7f6eaf3957bd70e5,
		"dw-query-0.5/MS-ORA":   0xfe66a69e8a48f848,
		"uniform-0.3/HV-ONLY":   0xb8f2cc526ffc3924,
		"uniform-0.3/DW-ONLY":   0xe54222292965036d,
		"uniform-0.3/MS-BASIC":  0x5d786ddd1fe21af8,
		"uniform-0.3/HV-OP":     0xd260a83ec5a2359f,
		"uniform-0.3/MS-MISO":   0x86b301c58064e18e,
		"uniform-0.3/MS-OFF":    0x544d3bc7170ca928,
		"uniform-0.3/MS-LRU":    0x6f88baa458ffef34,
		"uniform-0.3/MS-ORA":    0x0e8d2cc71ff08cd3,
	}
	for _, p := range profiles {
		for _, v := range variants {
			name := p.name + "/" + string(v)
			t.Run(name, func(t *testing.T) {
				cfg := multistore.DefaultConfig(v)
				cfg.SetBudgets(cat, 2.0, 10<<30)
				cfg.Faults = p.faults
				cfg.FaultSeed = 11
				cfg.Retry = faults.RetryPolicy{MaxAttempts: 2, BaseBackoff: 1, BackoffFactor: 2, MaxBackoff: 4}
				sys := multistore.New(cfg, cat)
				if err := sys.ProvideFutureWorkload(workload.SQLs()); err != nil {
					t.Fatalf("future workload: %v", err)
				}
				for _, sql := range workload.SQLs() {
					_, _ = sys.Run(sql) // a query that fails is skipped
				}
				got := sys.StateDigest()
				if want, ok := golden[name]; !ok || got != want {
					t.Errorf("state digest %#016x, golden %#016x", got, want)
				}
			})
		}
	}
}
