package chaos

// The livechaos fault schedule. A record-mode run draws faults from a
// seeded stream and logs one FaultSpec per injection, stamped with the
// pod logical-clock time the arming happened at; a replay run executes
// a loaded schedule verbatim, waiting for each spec's at_tick before
// applying it, so the injection timeline — what was armed, against
// whom, with which seeds, at which pod-clock instant — reproduces
// bit-for-bit. Outcomes (who actually died, which persist masks were
// drawn) are reporting data, not part of the plan: wall-clock
// scheduling may drift between runs, and the correctness gates must
// hold under every drift.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// FaultKind is one class of online fault injection.
type FaultKind string

const (
	// FaultThreadKill arms random crash points for one victim thread;
	// it dies mid-operation, unscripted, and only the watchdog may
	// repair it.
	FaultThreadKill FaultKind = "thread-kill"
	// FaultProcKill arms every thread of one process; once all are
	// dead the process itself is killed (mappings revoked). The dead
	// process never restarts — its slots are adopted by survivors.
	FaultProcKill FaultKind = "proc-kill"
	// FaultNMPBurst arms a bounded burst of deterministic mCAS faults
	// on the NMP unit; traffic must ride through on the sw_flush_cas
	// fallback.
	FaultNMPBurst FaultKind = "nmp-burst"

	// Fabric faults (fabricchaos). FaultPodKill arms every live thread
	// of one pod; once all have died in-op every process of the pod is
	// killed, its heartbeat plane stalls, and the fabric monitor must
	// fail its shards over to surviving pods.
	FaultPodKill FaultKind = "pod-kill"
	// FaultPodFence partitions one pod: its device is unreachable for
	// both traffic and failover copies. The fabric must hold the pod's
	// shards dark (no false takeover — the bytes cannot be rescued
	// through a partition) until the fence heals after HealTicks.
	FaultPodFence FaultKind = "pod-fence"
	// FaultMigInterrupt starts a live shard migration and kills the
	// migrator after it completes Step; the stalled handoff must be
	// re-claimed and re-driven by the monitor.
	FaultMigInterrupt FaultKind = "mig-interrupt"
)

// FaultSpec is one planned injection, NDJSON-serializable.
type FaultSpec struct {
	I      int       `json:"i"`
	AtTick uint64    `json:"at_tick"` // pod logical clock at injection
	Kind   FaultKind `json:"kind"`

	// Kill faults.
	Victims     []int   `json:"victims,omitempty"` // tids armed
	Proc        int     `json:"proc,omitempty"`    // proc-kill: process index
	ArmProb     float64 `json:"arm_prob,omitempty"`
	ArmSeed     uint64  `json:"arm_seed,omitempty"`
	PersistSeed uint64  `json:"persist_seed,omitempty"` // CrashDiscard seed base

	// NMP bursts.
	NMPMode  string `json:"nmp_mode,omitempty"` // "timeout" | "unavailable"
	NMPCount int    `json:"nmp_count,omitempty"`

	// Fabric faults. All omitempty so single-pod schedules stay
	// byte-identical to their pre-fabric encoding.
	Pod       int    `json:"pod,omitempty"`        // pod-kill/pod-fence: target pod
	Shard     int    `json:"shard,omitempty"`      // mig-interrupt: shard to migrate
	TargetPod int    `json:"target_pod,omitempty"` // mig-interrupt: destination pod
	Step      string `json:"step,omitempty"`       // mig-interrupt: die after this step
	HealTicks uint64 `json:"heal_ticks,omitempty"` // pod-fence: fabric-clock ticks until heal
}

// FaultOutcome records what one spec actually did in this run.
type FaultOutcome struct {
	I          int       `json:"i"`
	Kind       FaultKind `json:"kind"`
	Died       []int     `json:"died,omitempty"`
	ProcKilled bool      `json:"proc_killed,omitempty"`
	Note       string    `json:"note,omitempty"`
}

// WriteSchedule serializes specs as NDJSON, one spec per line.
func WriteSchedule(w io.Writer, specs []FaultSpec) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range specs {
		if err := enc.Encode(&specs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSchedule parses an NDJSON schedule.
func ReadSchedule(r io.Reader) ([]FaultSpec, error) {
	dec := json.NewDecoder(r)
	var out []FaultSpec
	for {
		var s FaultSpec
		if err := dec.Decode(&s); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("chaos: bad schedule line %d: %w", len(out)+1, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// LoadSchedule reads an NDJSON schedule file.
func LoadSchedule(path string) ([]FaultSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSchedule(f)
}

// SaveSchedule writes an NDJSON schedule file.
func SaveSchedule(path string, specs []FaultSpec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteSchedule(f, specs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SameSchedule reports whether two schedules are identical — the replay
// gate: a replayed run must emit exactly the schedule it loaded.
func SameSchedule(a, b []FaultSpec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.I != y.I || x.AtTick != y.AtTick || x.Kind != y.Kind ||
			x.Proc != y.Proc || x.ArmProb != y.ArmProb || x.ArmSeed != y.ArmSeed ||
			x.PersistSeed != y.PersistSeed || x.NMPMode != y.NMPMode || x.NMPCount != y.NMPCount ||
			x.Pod != y.Pod || x.Shard != y.Shard || x.TargetPod != y.TargetPod ||
			x.Step != y.Step || x.HealTicks != y.HealTicks {
			return false
		}
		if len(x.Victims) != len(y.Victims) {
			return false
		}
		for j := range x.Victims {
			if x.Victims[j] != y.Victims[j] {
				return false
			}
		}
	}
	return true
}
