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

// Every cxlbench command that CI runs or README shows parses, and names
// registered experiments: a flag renamed or removed fails here, not in a
// CI job or a reader's shell. A trailing "# ..." comment is not part of
// the command. Files under /tmp/ and -replay files move to a temporary
// directory, where each -replay file is a one-spec schedule.
func TestCIInvocationsParse(t *testing.T) {
	cmdRE := regexp.MustCompile(`go run (?:-race )?\./cmd/cxlbench ([^#\n]*)`)
	dir := t.TempDir()
	for _, src := range []struct {
		path string
		min  int
	}{
		{"../../.github/workflows/ci.yml", 8},
		{"../../README.md", 14},
	} {
		raw, err := os.ReadFile(src.path)
		if err != nil {
			t.Fatal(err)
		}
		cmds := cmdRE.FindAllStringSubmatch(string(raw), -1)
		if len(cmds) < src.min {
			t.Fatalf("found %d cxlbench commands in %s; the pattern no longer matches them", len(cmds), src.path)
		}
		for _, m := range cmds {
			cmd := strings.TrimSpace(m[1])
			args := strings.Fields(cmd)
			for i, a := range args {
				replay := i > 0 && args[i-1] == "-replay"
				if !strings.HasPrefix(a, "/tmp/") && !replay {
					continue
				}
				args[i] = filepath.Join(dir, filepath.Base(a))
				if replay {
					if err := chaos.SaveSchedule(args[i], []chaos.FaultSpec{{Kind: chaos.FaultThreadKill}}); err != nil {
						t.Fatal(err)
					}
				}
			}
			inv, err := parse(args, io.Discard)
			if err != nil {
				t.Errorf("%s: cxlbench %s: %v", src.path, cmd, err)
				continue
			}
			if len(inv.exps) == 0 {
				t.Errorf("%s: cxlbench %s: names no experiment", src.path, cmd)
			}
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
	live, fab := server.DefaultLiveConfig(), fabric.DefaultChaosConfig()
	slo, per := server.DefaultSLOConfig(), chaos.DefaultPersistConfig()
	want := map[string]map[string]any{
		"fig8":        {"workloads": ""},
		"persist":     {"persist-point": "", "persist-mask": "", "persist-cap": per.SubsetCap, "persist-samples": per.Samples, "persist-mutate": per.SkipOplogFlush, "persist-mutate-record": per.LateHandoffRecord},
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
