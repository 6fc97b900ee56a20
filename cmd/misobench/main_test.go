package main

import (
	"bytes"
	"strings"
	"testing"

	"miso/internal/experiments"
)

func TestModeTableNamesUnique(t *testing.T) {
	names, artifacts := map[string]bool{}, map[string]bool{}
	for _, m := range modes {
		if m.name == "" || m.desc == "" || m.run == nil {
			t.Errorf("incomplete mode entry %+v", m)
		}
		if names[m.name] {
			t.Errorf("duplicate mode name %q", m.name)
		}
		names[m.name] = true
		if m.artifact == "" {
			continue
		}
		if artifacts[m.artifact] {
			t.Errorf("duplicate artifact %q", m.artifact)
		}
		artifacts[m.artifact] = true
	}
	for _, name := range paperModes {
		if !names[name] {
			t.Errorf("-all names unregistered mode %q", name)
		}
	}
}

// TestArtifactModesDeclareChecks requires every mode that writes an
// artifact to gate it: its result type must declare at least one check.
func TestArtifactModesDeclareChecks(t *testing.T) {
	results := map[string]experiments.Gated{
		"benchexec": experiments.ExecRows(nil),
		"benchgov":  &experiments.GovernRows{},
		"scenarios": &experiments.ScenarioRows{},
		"cache":     &experiments.CacheRows{},
		"endurance": &experiments.EnduranceRows{},
	}
	for _, m := range modes {
		if m.artifact == "" {
			continue
		}
		rows, ok := results[m.name]
		if !ok {
			t.Errorf("artifact mode %q has no gated result type listed here", m.name)
			continue
		}
		if len(rows.Checks()) == 0 {
			t.Errorf("artifact mode %q declares no checks", m.name)
		}
		delete(results, m.name)
	}
	for name := range results {
		t.Errorf("%q is listed as an artifact mode but the table writes no artifact for it", name)
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "fig42"},
		{"-mode", "bench"},
		{"-chaos"},
		{"-fig", "4"},
		{"-benchexecout", "x.json", "-mode", "benchexec"},
		{},
		{"-mode", "fig3", "-scale", "huge"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("misobench %s: exit %d, want 2 (stderr %q)", strings.Join(args, " "), code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("misobench %s wrote to stdout: %q", strings.Join(args, " "), stdout.String())
		}
	}
}

func TestModesListing(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-modes"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-modes exit %d: %s", code, stderr.String())
	}
	for _, m := range modes {
		if !strings.Contains(stdout.String(), m.name) {
			t.Errorf("-modes output lacks %q", m.name)
		}
	}
}
