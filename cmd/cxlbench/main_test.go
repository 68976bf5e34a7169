package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cxlalloc/internal/chaos"
	"cxlalloc/internal/fabric"
	"cxlalloc/internal/server"
)

// Every cxlbench command CI runs parses, and names registered
// experiments: a flag renamed or removed fails here, not in a CI job.
// Files under /tmp/ move to a temporary directory, where each -replay
// file is a one-spec schedule.
func TestCIInvocationsParse(t *testing.T) {
	raw, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	cmds := regexp.MustCompile(`go run (?:-race )?\./cmd/cxlbench (.*)`).FindAllStringSubmatch(string(raw), -1)
	if len(cmds) < 8 {
		t.Fatalf("found %d cxlbench commands in ci.yml; the pattern no longer matches them", len(cmds))
	}
	dir := t.TempDir()
	for _, m := range cmds {
		args := strings.Fields(m[1])
		for i, a := range args {
			if !strings.HasPrefix(a, "/tmp/") {
				continue
			}
			args[i] = filepath.Join(dir, filepath.Base(a))
			if i > 0 && args[i-1] == "-replay" {
				if err := chaos.SaveSchedule(args[i], []chaos.FaultSpec{{Kind: chaos.FaultThreadKill}}); err != nil {
					t.Fatal(err)
				}
			}
		}
		inv, err := parse(args, io.Discard)
		if err != nil {
			t.Errorf("cxlbench %s: %v", m[1], err)
			continue
		}
		if len(inv.exps) == 0 {
			t.Errorf("cxlbench %s: names no experiment", m[1])
		}
	}
}

// A flag that no named experiment owns is a usage error, whoever does
// own it.
func TestFlagOfAnotherExperimentIsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "slo", "-fabric-grace", "1s"},
		{"-exp", "chaos", "-persist-mask", "0x1"},
		{"-exp", "all", "-duration", "5s"},
		{"-exp", "slo", "-lease", "1s"},
		{"-exp", "table1", "-workloads", "YCSB-A"},
	} {
		if _, err := parse(args, io.Discard); err == nil || !strings.Contains(err.Error(), "belongs to") {
			t.Errorf("cxlbench %s: err = %v, want a flag-ownership error", strings.Join(args, " "), err)
		}
	}
	if _, err := parse([]string{"-exp", "livechaos,slochaos", "-lease", "1s"}, io.Discard); err != nil {
		t.Errorf("a flag two named experiments declare: %v", err)
	}
}

// Each experiment flag's default is its config's default: the flag binds
// into the config, so -h prints the value a run without the flag uses.
func TestExperimentFlagDefaultsAreConfigDefaults(t *testing.T) {
	live, fab := chaos.DefaultLiveConfig(), fabric.DefaultChaosConfig()
	slo, per := server.DefaultSLOConfig(), chaos.DefaultPersistConfig()
	want := map[string]map[string]any{
		"fig8":        {"workloads": ""},
		"persist":     {"persist-point": "", "persist-mask": "", "persist-cap": per.SubsetCap, "persist-samples": per.Samples, "persist-mutate": per.SkipOplogFlush, "persist-mutate-fence": per.SkipCommitFence},
		"livechaos":   {"duration": live.Duration, "lease": live.LeaseWall, "replay": "", "schedule-out": ""},
		"slo":         {"slo-window": slo.Window, "slo-rates": rates(slo.Rates)},
		"slochaos":    {"slo-window": slo.Window, "lease": slo.LeaseWall},
		"fabricchaos": {"duration": fab.Duration, "fabric-grace": fab.DarkGrace, "replay": "", "schedule-out": ""},
	}
	for _, e := range experiments() {
		declared := 0
		if e.flags != nil {
			e.flags.VisitAll(func(f *flag.Flag) {
				declared++
				w, ok := want[e.name][f.Name]
				if !ok {
					t.Errorf("-exp %s declares -%s, which this test does not know", e.name, f.Name)
				} else if got := fmt.Sprint(w); f.DefValue != got {
					t.Errorf("-exp %s -%s defaults to %q, its config to %q", e.name, f.Name, f.DefValue, got)
				}
			})
		}
		if declared != len(want[e.name]) {
			t.Errorf("-exp %s declares %d flags, want %d", e.name, declared, len(want[e.name]))
		}
	}
}
