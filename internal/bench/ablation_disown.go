package bench

import (
	"fmt"

	"cxlalloc/internal/alloc"
	"cxlalloc/internal/core"
)

// RunAblationDisown demonstrates why the disowned slab state exists
// (§3.2.1). The workload is the adversarial mix the state is designed
// for: every slab receives at least one remote free while active, then
// fills, then its blocks are freed by a mix of threads.
//
//   - With disown (cxlalloc): the slab is disowned when it fills, every
//     subsequent free takes the remote path, the countdown reaches
//     zero, and the freeing thread steals and recycles the slab. The
//     heap stays flat across rounds.
//   - Without disown (ablation): the slab detaches with mixed state —
//     the countdown never reaches zero (some blocks were freed locally)
//     and the bitset never fills (some were freed remotely) — so the
//     slab is permanently unreclaimable and the heap grows every round.
func RunAblationDisown(sc Scale, rounds int) ([]Row, error) {
	if rounds == 0 {
		rounds = len(disownClasses)
	}
	var rows []Row
	for _, noDisown := range []bool{false, true} {
		name := "cxlalloc"
		if noDisown {
			name = "cxlalloc-no-disown"
		}
		fac := NewCXLFactory(CXLVariant{Name: name, NoDisown: noDisown, Procs: 1}, sc.ArenaBytes)
		inst, err := fac.New(2)
		if err != nil {
			return nil, err
		}
		completed := mixedFreeRounds(inst.A, core.SmallSlabSize, rounds)
		sLen, _ := inst.Heap.HeapLengths(0)
		rows = append(rows, Row{
			Experiment: "ablation-disown",
			Workload:   fmt.Sprintf("mixed-free x%d rounds", rounds),
			Allocator:  name,
			Threads:    2,
			Ops:        completed,
			PSSBytes:   inst.A.Footprint().PSS(),
			Extra: map[string]string{
				"heapSlabs": fmt.Sprint(sLen),
			},
		})
		releaseMemory()
	}
	return rows, nil
}

// disownClasses are the size classes the pathological pattern cycles
// through: the owner uses a class once and never again, so a locally
// freed block in a detached slab is never re-allocated.
var disownClasses = []int{8, 16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024}

// mixedFreeRounds runs the paper's §3.2.1 pathological pattern: per
// round, fill a slab of a size class the owner will never use again, a
// remote free landing while the slab is active, then one local free and
// all remaining frees remote. Returns the number of completed ops.
func mixedFreeRounds(a alloc.Allocator, slabSize, rounds int) int {
	ops := 0
	for r := 0; r < rounds; r++ {
		size := disownClasses[r%len(disownClasses)]
		blocks := slabSize / size
		first, err := a.Alloc(0, size)
		if err != nil {
			return ops
		}
		a.Free(1, first) // remote free while the slab is active
		// Allocate exactly the slab's remaining capacity so the round
		// touches one slab only.
		ptrs := make([]alloc.Ptr, 0, blocks-1)
		for i := 0; i < blocks-1; i++ {
			p, err := a.Alloc(0, size)
			if err != nil {
				return ops
			}
			ptrs = append(ptrs, p)
		}
		ops += blocks
		// One local free, the rest remote; the owner then abandons the
		// class. With disown, the slab was disowned when it filled, so
		// every free (including thread 0's) takes the remote path and
		// the countdown reaches zero: the slab is wholly reclaimed.
		// Without it, the slab keeps its owner, the locally freed block
		// is stranded in a class nobody allocates from again, and the
		// slab can never be stolen.
		for i, p := range ptrs {
			if i == 0 {
				a.Free(0, p)
			} else {
				a.Free(1, p)
			}
		}
	}
	return ops
}
