package chaos

// Adversarial persistence sweep: the strongest crash model the substrate
// supports. The plain chaos sweep resolves every crash with
// WritebackAll — the weakest adversary, under which recovery would pass
// even if the allocator omitted every flush. This sweep crosses every
// instrumented crash point with every persist subset of the crashed
// thread's in-play cache lines (the lines written since its last
// completed fence — exactly the window the §3.2.2 flush/fence discipline
// governs; see memsim/persist.go for the drain-horizon model): each
// in-play line independently persists or reverts to its durable floor,
// then recovery runs and the full invariant suite plus a drain-time
// ledger audit must hold.
//
// When the window has n ≤ SubsetCap lines the sweep enumerates all 2^n
// subsets; above the cap it runs drop-all plus seeded random subsets and
// records that it capped. On a failing cell the dropped-line set is
// delta-debugged down to a 1-minimal counterexample and a one-line
// deterministic repro is emitted (crash point + persist mask + seed).

import (
	"errors"
	"fmt"
	"strings"

	"cxlalloc/internal/atomicx"
	"cxlalloc/internal/core"
	"cxlalloc/internal/memsim"
	"cxlalloc/internal/xrand"
)

// PersistConfig parameterizes a persist sweep.
type PersistConfig struct {
	Script

	// SubsetCap bounds exhaustive enumeration: a crash window of n ≤
	// SubsetCap in-play lines gets all 2^n persist subsets; a larger
	// window is sampled instead (and counted in Report.Capped).
	SubsetCap int
	// Samples is how many cells a capped window gets: drop-all plus
	// Samples-1 seeded random subsets.
	Samples int

	// Points optionally restricts the sweep to a subset of the
	// discovered crash points (exact names). Nil sweeps all of them.
	Points []string

	// SkipOplogFlush runs the sweep against the deliberately broken
	// allocator variant (core.Config.SkipOplogFlush) — the mutation
	// meta-test proving the sweep detects a missing protocol flush.
	SkipOplogFlush bool

	// LateHandoffRecord runs the sweep against the variant that stores
	// the magazine pop's handoff record after its commit fence
	// (core.Config.LateHandoffRecord) — the meta-test proving the sweep
	// guards the one-line pop of DESIGN.md §7.1.
	LateHandoffRecord bool
}

// DefaultPersistConfig returns a sweep sized like DefaultConfig, with an
// enumeration cap that keeps the worst window to ~1k cells.
func DefaultPersistConfig() PersistConfig {
	return PersistConfig{Script: defaultScript, SubsetCap: 10, Samples: 24}
}

// cell is c's persist cell: point armed on an HWcc pod built with c's
// mutant, the armed crash resolved under pol (nil: writeback-all) and
// answered as a thread crash with manual recovery.
func (c *PersistConfig) cell(point string, pol persistPolicy) cell {
	return cell{Script: c.Script, device: atomicx.ModeHWcc, point: point, mode: ModeThreadCrash,
		policy: pol, skipOplogFlush: c.SkipOplogFlush, lateHandoffRecord: c.LateHandoffRecord}
}

func (c *PersistConfig) validate() error {
	if err := c.Script.validate(); err != nil {
		return err
	}
	if c.SubsetCap < 1 || c.SubsetCap > 20 {
		return fmt.Errorf("chaos: SubsetCap %d out of range (1..20)", c.SubsetCap)
	}
	if c.Samples < 1 {
		return fmt.Errorf("chaos: Samples %d must be positive", c.Samples)
	}
	return nil
}

// PersistPoint is the per-crash-point outcome of a persist sweep.
type PersistPoint struct {
	Point  string `json:"point"`
	Window int    `json:"window"` // in-play lines at the probe crash
	Cells  int    `json:"cells"`  // persist-subset cells run (incl. probe)
	Capped bool   `json:"capped"` // window > SubsetCap: sampled, not enumerated
}

// PersistViolation is one failing cell, minimized to a 1-minimal
// dropped-line set with a deterministic repro line.
type PersistViolation struct {
	Point   string  `json:"point"`
	Mask    uint64  `json:"mask"`   // persist mask of the failing cell
	Window  int     `json:"window"` // in-play lines at the crash
	Err     string  `json:"err"`
	MinMask uint64  `json:"min_mask"`    // persist mask after delta-debugging
	MinDrop []int32 `json:"min_dropped"` // the minimal dropped line set
	MinErr  string  `json:"min_err"`     // failure the minimal cell produces
	Repro   string  `json:"repro"`       // one-line deterministic reproduction
}

// PersistReport is a persist sweep's full outcome.
type PersistReport struct {
	Seed      uint64 `json:"seed"`
	SubsetCap int    `json:"subset_cap"`
	Samples   int    `json:"samples"`
	Mutated   bool   `json:"mutated"` // SkipOplogFlush meta-test run

	Points  []PersistPoint `json:"points"`
	Unfired []string       `json:"unfired,omitempty"` // points whose probe crash never fired

	CellsRun     int    `json:"cells_run"`     // total subset cells (incl. probes, excl. minimization)
	Capped       int    `json:"capped"`        // windows that exceeded SubsetCap
	LinesDropped uint64 `json:"lines_dropped"` // in-play lines dropped across all cells

	Violations []PersistViolation `json:"violations,omitempty"`
	Errors     []string           `json:"errors,omitempty"` // harness-level failures (coverage, nondeterminism)
}

// Ok reports whether the sweep met the gate: every point's probe fired,
// every cell (enumerated or sampled) recovered invariant- and
// ledger-clean, and no harness-level error occurred.
func (r *PersistReport) Ok() bool {
	return len(r.Unfired) == 0 && len(r.Violations) == 0 && len(r.Errors) == 0
}

// Summary returns a one-line outcome for logs.
func (r *PersistReport) Summary() string {
	status := "OK"
	if !r.Ok() {
		status = "FAIL"
	}
	kind := "persist"
	if r.Mutated {
		kind = "persist[mutated]"
	}
	return fmt.Sprintf("%s %s: %d points, %d subset cells (%d capped windows), %d lines dropped, %d violations, seed=%d",
		kind, status, len(r.Points), r.CellsRun, r.Capped, r.LinesDropped, len(r.Violations), r.Seed)
}

// persistPolicy is a cell's crash resolution, chosen once the window
// size is known (the decider learns it only at the crash).
type persistPolicy func(n int) memsim.CrashPolicy

// persistAll is the probe's policy: every in-play line persists.
func persistAll(int) memsim.CrashPolicy { return memsim.CrashPolicy{Kind: memsim.PersistAll} }

func subsetPolicy(mask uint64) persistPolicy {
	return func(int) memsim.CrashPolicy {
		return memsim.CrashPolicy{Kind: memsim.PersistSubset, Mask: mask}
	}
}

// PersistSweep runs the full adversarial persistence gate: discover the
// crash points, then for each point probe the crash window and sweep
// persist subsets over it, recovering and auditing after every cell.
func PersistSweep(cfg PersistConfig) (*PersistReport, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rep := &PersistReport{
		Seed: cfg.Seed, SubsetCap: cfg.SubsetCap, Samples: cfg.Samples,
		Mutated: cfg.SkipOplogFlush || cfg.LateHandoffRecord,
	}

	// Same teeth check as the chaos sweep: the workload must reach the
	// interesting transitions, or the sweep passes vacuously. This sweep
	// runs on an incoherent device, where the magazines are live — their
	// refill, pop, and drain windows must be attacked too.
	musts := append([]string{"small.alloc.post-take", "huge.alloc.post-link",
		"small.magalloc.post-take", "small.magrefill.post-oplog",
		"small.magrefill.pre-commit", "small.magfree.post-put",
		"small.magdrain.post-oplog", "small.magdrain.pre-commit",
		"small.magdrain.post-clear",
		// The small heap's classic take, which only a slab's last block
		// reaches on this device, and the local free that reattaches it.
		"small.detach.post-oplog", "small.local-free.post-reattach"},
		core.RecoveryCrashPoints...)
	points, missing, err := discover(cfg.cell("", nil), musts)
	if err != nil {
		return nil, err
	}
	rep.Errors = missing

	if len(cfg.Points) > 0 {
		// A point filter waives the coverage musts, but not its own
		// points: a filter naming a point the script never visits would
		// otherwise pass with nothing swept.
		rep.Errors = nil
		for _, p := range cfg.Points {
			if !contains(points, p) {
				rep.Errors = append(rep.Errors, fmt.Sprintf("point %q never visited at seed %d", p, cfg.Seed))
			}
		}
		var kept []string
		for _, p := range points {
			if contains(cfg.Points, p) {
				kept = append(kept, p)
			}
		}
		points = kept
	}

	for _, point := range points {
		sweepPersistPoint(cfg, point, rep)
	}
	return rep, nil
}

// sweepPersistPoint probes one crash point's in-play window, then runs
// every (or a sample of) persist subsets over it.
func sweepPersistPoint(cfg PersistConfig, point string, rep *PersistReport) {
	probe := runCell(cfg.cell(point, persistAll))
	rep.CellsRun++
	rep.LinesDropped += probe.snap.Chaos.LinesDroppedAtCrash
	if !probe.fired {
		rep.Unfired = append(rep.Unfired, point)
		return
	}
	pp := PersistPoint{Point: point, Window: len(probe.window), Cells: 1}
	if probe.err != "" {
		// Even the all-persist probe failed: that is a plain chaos bug,
		// not a persistence one, but it still fails the gate.
		rep.Violations = append(rep.Violations, PersistViolation{
			Point: point, Mask: probe.mask, Window: len(probe.window),
			Err: "probe (persist-all): " + probe.err,
		})
		rep.Points = append(rep.Points, pp)
		return
	}

	n := pp.Window
	var cells []persistPolicy
	var masks []uint64 // parallel to cells; ^0 = mask unknown (random, n>64)
	if n == 0 {
		// Empty window: the probe covered the only subset.
	} else if n <= cfg.SubsetCap {
		// Exhaustive: every proper subset. The all-ones mask is the
		// probe, already run.
		full := uint64(1)<<uint(n) - 1
		for m := uint64(0); m < full; m++ {
			cells = append(cells, subsetPolicy(m))
			masks = append(masks, m)
		}
	} else {
		pp.Capped = true
		rep.Capped++
		// Sampled: drop-all, then seeded random subsets. Masks are drawn
		// here (not via PersistRandom) so every cell is replayable as an
		// explicit subset; windows beyond 64 lines fall back to
		// PersistRandom and skip minimization.
		cells = append(cells, subsetPolicy(0))
		masks = append(masks, 0)
		rng := xrand.New(cfg.Seed ^ xrand.Mix(hashPoint(point)))
		for i := 1; i < cfg.Samples; i++ {
			if n <= 64 {
				m := rng.Uint64() & (^uint64(0) >> uint(64-n))
				cells = append(cells, subsetPolicy(m))
				masks = append(masks, m)
			} else {
				seed := rng.Uint64()
				cells = append(cells, func(int) memsim.CrashPolicy {
					return memsim.CrashPolicy{Kind: memsim.PersistRandom, Seed: seed}
				})
				masks = append(masks, ^uint64(0))
			}
		}
	}

	for ci, pol := range cells {
		res := runCell(cfg.cell(point, pol))
		rep.CellsRun++
		pp.Cells++
		rep.LinesDropped += res.snap.Chaos.LinesDroppedAtCrash
		if !res.fired {
			rep.Errors = append(rep.Errors, fmt.Sprintf(
				"%s: probe fired but subset cell %d did not: nondeterministic workload", point, ci))
			continue
		}
		if len(res.window) != n {
			rep.Errors = append(rep.Errors, fmt.Sprintf(
				"%s: window changed between probe (%d lines) and cell %d (%d lines): nondeterministic workload",
				point, n, ci, len(res.window)))
			continue
		}
		if res.err == "" {
			continue
		}
		v := PersistViolation{
			Point: point, Mask: masks[ci], Window: n, Err: res.err,
		}
		if res.sized {
			v.Mask = res.mask
			v.MinMask, v.MinDrop, v.MinErr = minimizeCell(cfg, point, res.window, res.mask, res.err)
			v.Repro = ReproLine(cfg, point, v.MinMask)
		} else {
			v.MinErr = res.err
			v.Repro = fmt.Sprintf("(window of %d lines exceeds the 64-bit mask: rerun PersistSweep with Points=[%q], Seed=%d)",
				n, point, cfg.Seed)
		}
		rep.Violations = append(rep.Violations, v)
	}
	rep.Points = append(rep.Points, pp)
}

// minimizeCell delta-debugs a failing cell's dropped-line set to a
// 1-minimal counterexample: repeatedly re-persist one dropped line at a
// time; if the run still fails without it, the line was not needed.
// Terminates when a full pass removes nothing, so every remaining
// dropped line is individually necessary.
func minimizeCell(cfg PersistConfig, point string, window []int32, mask uint64, firstErr string) (uint64, []int32, string) {
	n := len(window)
	full := uint64(1)<<uint(n) - 1
	cur, curErr := mask, firstErr
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			bit := uint64(1) << uint(i)
			if cur&bit != 0 {
				continue // line already persists
			}
			try := cur | bit
			if try == full {
				continue // dropping nothing is the probe; it passed
			}
			if res := runCell(cfg.cell(point, subsetPolicy(try))); res.err != "" {
				cur, curErr = try, res.err
				changed = true
			}
		}
	}
	var dropped []int32
	for i := 0; i < n; i++ {
		if cur&(1<<uint(i)) == 0 {
			dropped = append(dropped, window[i])
		}
	}
	return cur, dropped, curErr
}

// ReproLine renders the one-line deterministic reproduction of a persist
// cell: crash point + persist mask + seed (plus the mutation flag when
// the broken allocator variant was under test).
func ReproLine(cfg PersistConfig, point string, mask uint64) string {
	mut := ""
	if cfg.SkipOplogFlush {
		mut = " -persist-mutate"
	}
	if cfg.LateHandoffRecord {
		mut += " -persist-mutate-record"
	}
	return fmt.Sprintf("go run ./cmd/cxlbench -exp persist -seed %d -persist-point %s -persist-mask 0x%x%s",
		cfg.Seed, point, mask, mut)
}

// ReplayPersistCell reruns a single persist cell — the repro path. It
// returns the window size observed and the cell's failure (nil if the
// cell recovers clean, which for a reported violation means the replay
// environment diverged).
func ReplayPersistCell(cfg PersistConfig, point string, mask uint64) (int, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	res := runCell(cfg.cell(point, subsetPolicy(mask)))
	if !res.fired {
		return 0, fmt.Errorf("chaos: crash point %q never fired (wrong point name or seed?)", point)
	}
	if res.err != "" {
		return len(res.window), errors.New(res.err)
	}
	return len(res.window), nil
}

// effectiveMask returns the persist mask pol resolves to over an n-line
// window, and whether that mask is exact (windows beyond 64 lines are
// not representable).
func effectiveMask(pol memsim.CrashPolicy, n int) (uint64, bool) {
	if n > 64 {
		return 0, false
	}
	full := uint64(0)
	if n > 0 {
		full = ^uint64(0) >> uint(64-n)
	}
	switch pol.Kind {
	case memsim.PersistAll:
		return full, true
	case memsim.PersistNone:
		return 0, true
	case memsim.PersistSubset:
		return pol.Mask & full, true
	case memsim.PersistRandom:
		rng := xrand.New(pol.Seed)
		m := uint64(0)
		for i := 0; i < n; i++ {
			if rng.Uint64()&1 != 0 {
				m |= 1 << uint(i)
			}
		}
		return m, true
	default:
		return 0, false
	}
}

// hashPoint derives a stable per-point seed component.
func hashPoint(s string) uint64 {
	h := uint64(1469598103934665603) // FNV-1a
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// FormatPersistReport renders the report for cxlbench.
func FormatPersistReport(r *PersistReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Summary())
	fmt.Fprintf(&b, "  subset cap: %d (windows above it sampled with %d cells)\n", r.SubsetCap, r.Samples)
	capped := 0
	for _, p := range r.Points {
		if p.Capped {
			capped++
		}
	}
	fmt.Fprintf(&b, "  windows: %d points probed, %d capped; %d total cells, %d lines dropped\n",
		len(r.Points), capped, r.CellsRun, r.LinesDropped)
	for _, p := range r.Points {
		if p.Window > 0 {
			note := ""
			if p.Capped {
				note = " (capped)"
			}
			fmt.Fprintf(&b, "    %-32s window=%d cells=%d%s\n", p.Point, p.Window, p.Cells, note)
		}
	}
	for _, u := range r.Unfired {
		fmt.Fprintf(&b, "  UNFIRED: %s\n", u)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(&b, "  ERROR: %s\n", e)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  VIOLATION at %s mask=0x%x window=%d: %s\n", v.Point, v.Mask, v.Window, v.Err)
		if v.Repro != "" {
			fmt.Fprintf(&b, "    minimized: mask=0x%x dropped-lines=%v: %s\n", v.MinMask, v.MinDrop, v.MinErr)
			fmt.Fprintf(&b, "    repro: %s\n", v.Repro)
		}
	}
	return b.String()
}
