// Package nmp simulates the near-memory-processing logic the paper
// prototypes in the Intel Agilex 7 FPGA (§4, Figure 6). The NMP sits in
// front of the device-biased region of CXL memory and provides a
// memory-based compare-and-swap (mCAS) for pods whose hardware has no
// inter-host cache coherence.
//
// Interface contract reproduced from the paper:
//
//   - To initiate an mCAS, a thread performs a "special write" (spwr) of
//     its operands — expected value, swap value, target address — to a
//     per-thread cache line in the spwr region.
//   - To retrieve the response, the thread performs a "special read"
//     (sprd) from its per-thread line in the sprd region, which triggers
//     the operation and returns a success bit plus the previous value.
//   - At the end of each sprd, the unit checks its register array for any
//     other in-progress spwr/sprd pair with a matching target address and
//     fails the competing operation (Figure 6(b)). The simulator keeps a
//     count of in-progress registers and skips the check when the
//     completing pair was the only one — the check could not have found
//     anything, so no outcome changes.
//   - On success, subsequent operations are stalled until the swap value
//     has been written to memory — for a given address only one
//     spwr/sprd pair is ever in progress.
//
// The target region must never be CPU-cached (the paper marks it
// uncachable via MTRRs); in the simulator the targets are HWcc-region
// words, which are uncached by construction.
package nmp

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cxlalloc/internal/memsim"
	"cxlalloc/internal/telemetry"
	"cxlalloc/internal/xrand"
)

// MaxThreads is the size of the unit's register array: one spwr/sprd
// register pair per hardware thread, addressed by thread ID, mirroring
// the per-thread cache lines of the FPGA prototype.
const MaxThreads = 512

type pending struct {
	addr     int // HWcc word index (the device-biased target)
	expect   uint64
	swap     uint64
	inFlight bool // spwr issued, sprd not yet completed
	failed   bool // a competing op committed to the same address
}

// Stats counts NMP activity for the evaluation.
type Stats struct {
	SpWrs     uint64
	SpRds     uint64
	Successes uint64
	Failures  uint64
	Conflicts uint64 // operations failed by the same-address check
	// FaultsInjected counts mCAS operations rejected by injected device
	// faults (chaos testing; zero in normal operation).
	FaultsInjected uint64
	// Loads and Stores count uncached accesses through the unit's data
	// path (Load/Store), the HWcc reads and writes that are not mCAS.
	Loads  uint64
	Stores uint64
}

// dataCounts is one thread's data-path counters, padded to a cache line
// so Load and Store never write a line another thread's do.
type dataCounts struct {
	loads  atomic.Uint64
	stores atomic.Uint64
	_      [48]byte
}

// FaultMode selects the class of injected device failure.
type FaultMode int

const (
	// FaultNone disables fault injection.
	FaultNone FaultMode = iota
	// FaultTimeout models an op that is accepted but never completes:
	// the requester pays the spwr+sprd latency and then observes a
	// timeout instead of a result. Nothing is committed to memory.
	FaultTimeout
	// FaultUnavailable models a unit that rejects new operations
	// outright (link down, unit resetting). The requester learns
	// immediately; nothing is committed.
	FaultUnavailable
)

// Fault-injection errors returned by TryMCAS.
var (
	ErrTimeout     = errors.New("nmp: mCAS operation timed out")
	ErrUnavailable = errors.New("nmp: unit unavailable")
)

// FaultPlan arms fault injection on a unit. Faults apply only to mCAS
// operations (the unit's compute path); plain Load/Store continue to
// work, modeling a unit whose .mem data path survives while its
// operation pipeline is down.
//
// With Prob == 0, the next Count mCAS attempts fault deterministically,
// then the plan disarms. With Prob > 0, each attempt faults with that
// probability (seeded, reproducible); Count > 0 then caps the total
// number of injected faults, Count == 0 leaves the plan armed forever.
type FaultPlan struct {
	Mode  FaultMode
	Count int
	Prob  float64
	Seed  uint64
}

// Unit is one NMP instance managing the device-biased region of a
// device. All methods are safe for concurrent use; internally the unit
// serializes commits, which is exactly the serialization the hardware
// provides and the source of mCAS's atomicity.
type Unit struct {
	dev *memsim.Device
	lat *memsim.Latency

	mu    sync.Mutex
	regs  [MaxThreads]pending
	stats Stats // Loads and Stores live in data, summed by Stats()
	// inFlight is the number of registers with an spwr issued and no
	// sprd yet. An abandoned op (a second spwr to the same register) is
	// counted once.
	inFlight int
	scans    uint64 // register-array scans performed (tests)
	faults   FaultPlan
	frng     *xrand.Rand

	// armed mirrors faults.Mode != FaultNone so the common, fault-free
	// mCAS does not take mu a third time just to find no plan.
	armed atomic.Bool
	data  [MaxThreads]dataCounts
}

// New returns a unit managing dev's HWcc (device-biased) words, with
// latencies drawn from lat (which may be nil or disabled).
func New(dev *memsim.Device, lat *memsim.Latency) *Unit {
	return &Unit{dev: dev, lat: lat}
}

// inject applies one latency component if a model is attached.
func (u *Unit) inject(f func(*memsim.Latency)) {
	if u.lat != nil {
		f(u.lat)
	}
}

// SpWr stores the operand triple into thread tid's register, beginning
// an mCAS of word addr from expect to swap. Issuing a second SpWr before
// reading the result of the first abandons the first operation, as a
// second uncached write to the same spwr line would on hardware.
func (u *Unit) SpWr(tid int, addr int, expect, swap uint64) {
	if tid < 0 || tid >= MaxThreads {
		panic(fmt.Sprintf("nmp: thread ID %d out of range", tid))
	}
	u.inject(func(l *memsim.Latency) { l.Inject(l.MCASSpWr) })
	u.mu.Lock()
	if !u.regs[tid].inFlight {
		u.inFlight++
	}
	u.regs[tid] = pending{addr: addr, expect: expect, swap: swap, inFlight: true}
	u.stats.SpWrs++
	u.mu.Unlock()
}

// SpRd triggers thread tid's pending mCAS and returns the previous value
// at the target together with the success bit. Calling SpRd with no
// pending SpWr panics: it corresponds to reading a response line with no
// operation outstanding, a software bug.
func (u *Unit) SpRd(tid int) (old uint64, ok bool) {
	u.inject(func(l *memsim.Latency) { l.Inject(l.MCASSpRd) })
	u.mu.Lock()
	defer u.mu.Unlock()
	p := &u.regs[tid]
	if !p.inFlight {
		panic(fmt.Sprintf("nmp: SpRd from thread %d with no pending SpWr", tid))
	}
	u.stats.SpRds++
	// The unit is busy for the duration of the compare (+ write on
	// success); holding the mutex while spinning models the serialized
	// service pipeline of the hardware unit.
	u.inject(func(l *memsim.Latency) { l.Inject(l.MCASService) })

	p.inFlight = false
	u.inFlight--
	if p.failed {
		// A competing spwr/sprd pair to the same address committed while
		// this operation was in progress (Figure 6(b), T2-N).
		u.stats.Failures++
		u.stats.Conflicts++
		return u.dev.HWccLoad(p.addr), false
	}
	old = u.dev.HWccLoad(p.addr)
	if old != p.expect {
		u.stats.Failures++
		u.failCompeting(tid, p.addr)
		return old, false
	}
	u.dev.HWccStore(p.addr, p.swap)
	u.stats.Successes++
	u.failCompeting(tid, p.addr)
	return old, true
}

// failCompeting implements the end-of-sprd register-array scan: any
// other in-flight operation targeting addr is marked failed. The caller
// has already retired its own register, so a zero count means no other
// register is in flight and the scan has nothing to find.
func (u *Unit) failCompeting(tid, addr int) {
	if u.inFlight == 0 {
		return
	}
	u.scans++
	for i := range u.regs {
		if i == tid {
			continue
		}
		if u.regs[i].inFlight && u.regs[i].addr == addr {
			u.regs[i].failed = true
		}
	}
}

// MCAS performs a full spwr/sprd pair: compare word addr against expect
// and, on match, write swap. It returns the previous value and whether
// the swap was performed. This is the primitive cxlalloc substitutes for
// CAS on pods with no HWcc. MCAS panics if a fault plan fires; callers
// that must survive device faults use TryMCAS.
func (u *Unit) MCAS(tid int, addr int, expect, swap uint64) (old uint64, ok bool) {
	old, ok, err := u.TryMCAS(tid, addr, expect, swap)
	if err != nil {
		panic(fmt.Sprintf("nmp: MCAS on faulted unit: %v", err))
	}
	return old, ok
}

// TryMCAS is MCAS with device faults surfaced as errors. When an armed
// FaultPlan fires, no spwr/sprd pair is issued and nothing is committed
// to memory; the caller may retry or fall back to another coherence
// path (atomicx degrades to sw_flush_cas).
func (u *Unit) TryMCAS(tid int, addr int, expect, swap uint64) (old uint64, ok bool, err error) {
	if err := u.maybeFault(); err != nil {
		if telemetry.Enabled() {
			kind := uint32(FaultUnavailable)
			if err == ErrTimeout {
				kind = uint32(FaultTimeout)
			}
			telemetry.Emit(tid, telemetry.EvNMPFault, uint64(addr), kind)
		}
		return 0, false, err
	}
	u.SpWr(tid, addr, expect, swap)
	old, ok = u.SpRd(tid)
	return old, ok, nil
}

// InjectFaults arms plan on the unit. A Mode of FaultNone (or ClearFaults)
// disarms. Safe to call while operations are in flight.
func (u *Unit) InjectFaults(plan FaultPlan) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.faults = plan
	u.armed.Store(plan.Mode != FaultNone)
	if plan.Prob > 0 {
		u.frng = xrand.New(plan.Seed)
	} else {
		u.frng = nil
	}
}

// ClearFaults disarms fault injection.
func (u *Unit) ClearFaults() { u.InjectFaults(FaultPlan{}) }

// maybeFault decides whether the current mCAS attempt faults, updating
// the plan's budget. A timeout fault still costs the spwr/sprd latency
// (the requester waited for a response that never came).
func (u *Unit) maybeFault() error {
	if !u.armed.Load() {
		return nil
	}
	u.mu.Lock()
	p := &u.faults
	mode := p.Mode
	fire := false
	switch {
	case mode == FaultNone:
	case p.Prob > 0:
		// Probabilistic, optionally capped at Count total faults.
		if u.frng.Float64() < p.Prob && (p.Count == 0 || int(u.stats.FaultsInjected) < p.Count) {
			fire = true
		}
	case p.Count > 0:
		// Deterministic: the next Count attempts fault, then disarm.
		fire = true
		p.Count--
		if p.Count == 0 {
			p.Mode = FaultNone
			u.armed.Store(false)
		}
	default:
		// Prob == 0, Count == 0: every attempt faults until cleared.
		fire = true
	}
	if fire {
		u.stats.FaultsInjected++
	}
	u.mu.Unlock()
	if !fire {
		return nil
	}
	if mode == FaultTimeout {
		u.inject(func(l *memsim.Latency) { l.Inject(l.MCASSpWr + l.MCASSpRd) })
		return ErrTimeout
	}
	return ErrUnavailable
}

// Load performs an uncached read of device-biased word addr through the
// NMP data path.
func (u *Unit) Load(tid int, addr int) uint64 {
	u.inject(func(l *memsim.Latency) { l.Inject(l.CXLLoad) })
	u.dataOf(tid).loads.Add(1)
	return u.dev.HWccLoad(addr)
}

// Store performs an uncached write of device-biased word addr through
// the NMP data path. Plain stores do not participate in mCAS conflict
// detection (as on the prototype, where only spwr/sprd pairs are
// serialized); software must not mix plain stores and mCAS on the same
// word concurrently.
func (u *Unit) Store(tid int, addr int, v uint64) {
	u.inject(func(l *memsim.Latency) { l.Inject(l.CXLStore) })
	u.dataOf(tid).stores.Add(1)
	u.dev.HWccStore(addr, v)
}

// dataOf returns the counter block tid's data-path accesses go to. The
// data path takes any tid (it has no per-thread register), so the index
// is folded rather than checked; Stats sums every block.
func (u *Unit) dataOf(tid int) *dataCounts {
	return &u.data[uint(tid)%MaxThreads]
}

// Stats returns a snapshot of the unit's counters.
func (u *Unit) Stats() Stats {
	u.mu.Lock()
	st := u.stats
	u.mu.Unlock()
	for i := range u.data {
		st.Loads += u.data[i].loads.Load()
		st.Stores += u.data[i].stores.Load()
	}
	return st
}
