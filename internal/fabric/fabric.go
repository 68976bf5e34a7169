// Package fabric is the multi-pod routing and placement layer: N Pod
// instances behind one shard-addressed front door. The kvstore
// keyspace is split into shards placed on pods by a consistent-hash
// ring with virtual nodes; every request resolves key → shard → owner
// pod and is stamped with the shard's routing epoch, which the owning
// server's execution-time gate re-validates — so an op admitted before
// a handoff can never execute against the old owner.
//
// The safety story reuses the paper's intra-pod machinery one level
// up. A pod is "dark" when its heartbeat plane (the pod logical clock,
// ticked by every Thread.Run) stops advancing, or when fault injection
// fences its device off. Shard handoff — live migration and pod-loss
// failover alike — is arbitrated by a per-shard fenced claim word
// (generation-counted, takeover-capable, exactly like a thread-slot
// claim), and ownership changes only through one atomic CAS of the
// routing word that bumps the epoch: copy → verify → flip → drain.
// Readers racing a migration see the old owner (frozen, immutable) or
// the new owner (verified complete) — never a half-moved shard.
//
// Pod memory outlives pod hosts (the CXL premise): a dark pod's device
// is still readable, so failover is rescue-and-copy — recover the dead
// slots, settle in-flight crashed writes against store ground truth,
// then migrate every owned shard out. A *fenced* pod is the one case
// with no honest failover: the bytes are unreachable, so flipping
// ownership would manufacture lost acks. The monitor holds fenced
// pods' shards dark until the fence heals.
package fabric

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cxlalloc"
	"cxlalloc/internal/alloc"
	"cxlalloc/internal/atomicx"
	"cxlalloc/internal/crash"
	"cxlalloc/internal/kvstore"
	"cxlalloc/internal/server"
	"cxlalloc/internal/telemetry"
)

// Config parameterizes a Fabric. Zero fields take the documented
// defaults.
type Config struct {
	Pods    int // pod count (default 3)
	Threads int // serving thread slots per pod (default 4); slot Threads is the control agent
	Procs   int // process groups per pod (default 2)
	Shards  int // keyspace shards (default 16)
	Buckets int // kvstore buckets per pod (default 1024)

	QueueCap int    // per-group admission queue bound
	Seed     uint64 // placement/ring hashing salt only; 0 is valid

	DarkGrace time.Duration // heartbeat stall before a pod is declared dark (default 250ms)
	MigStall  time.Duration // claim age before a stalled migration is retaken (default 100ms)

	// DecodeVer is passed through to each pod's server (crashed-delete
	// resolution).
	DecodeVer func(keyID int, val []byte) (uint64, error)
	// Injectors, when non-nil, installs one crash injector per pod
	// (chaos runs); len must equal Pods.
	Injectors []*crash.Injector
}

const (
	freezeWait = 3 * time.Second  // max wait for a frozen shard's pins to drain
	pendWait   = 10 * time.Second // failover: max wait for pending crashed writes to settle
)

func (c Config) withDefaults() Config {
	if c.Pods == 0 {
		c.Pods = 3
	}
	if c.Threads == 0 {
		c.Threads = 4
	}
	if c.Procs == 0 {
		c.Procs = 2
	}
	if c.Shards == 0 {
		c.Shards = 16
	}
	if c.Buckets == 0 {
		c.Buckets = 1024
	}
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	if c.DarkGrace == 0 {
		c.DarkGrace = 250 * time.Millisecond
	}
	if c.MigStall == 0 {
		c.MigStall = 100 * time.Millisecond
	}
	return c
}

func (c Config) validate() error {
	if c.Pods < 2 {
		return fmt.Errorf("fabric: need >= 2 pods (got %d)", c.Pods)
	}
	if c.Threads < c.Procs || c.Procs < 1 {
		return fmt.Errorf("fabric: need Threads >= Procs >= 1 (got %d/%d)", c.Threads, c.Procs)
	}
	if c.Pods > maxPods {
		return fmt.Errorf("fabric: at most %d pods (got %d)", maxPods, c.Pods)
	}
	if c.Injectors != nil && len(c.Injectors) != c.Pods {
		return fmt.Errorf("fabric: Injectors must have one entry per pod")
	}
	return nil
}

// podNode couples one Pod with its store, server front end, and the
// monitor's per-pod health state.
type podNode struct {
	id       int
	pod      *cxlalloc.Pod
	store    *kvstore.Store
	procs    []*cxlalloc.Process
	ctrl     *cxlalloc.Process // control process hosting the agent slot
	agentTid int
	srv      *server.Server

	// reads counts, per shard, the reads the gate let execute here that
	// have not finished; readDone[s] is shard s's release, built once so
	// the read path allocates nothing.
	reads    []readPin
	readDone []func()

	// agent is the control thread used for preload, migration copies,
	// and failover rescue work — never a serving worker slot, so agent
	// ops and worker ops never race one Thread handle.
	agentMu sync.Mutex
	agent   *cxlalloc.Thread

	// Health state, owned by the monitor (atomics: read by the router).
	fenced         atomic.Bool // device partitioned off: no traffic, no copies
	dying          atomic.Bool // kill in progress: not a migration endpoint
	dark           atomic.Bool // heartbeat plane stalled
	decommissioned atomic.Bool // failed over; out of the ring for good
	lastClock      atomic.Uint64
	lastAdvance    atomic.Int64 // unixnano of last observed clock advance

	orphMu  sync.Mutex
	orphans []cxlalloc.Ptr
}

func (n *podNode) addOrphan(p cxlalloc.Ptr) {
	n.orphMu.Lock()
	n.orphans = append(n.orphans, p)
	n.orphMu.Unlock()
}

// agentRun executes fn(agentTid) on the pod's control thread,
// re-minting the handle first if the slot is dead (rescue recovery) or
// its process was killed. Errors mean fn crashed to an injected fault
// or the slot could not be revived; the caller retries or aborts.
func (n *podNode) agentRun(fn func(tid int)) error {
	n.agentMu.Lock()
	defer n.agentMu.Unlock()
	if n.agent != nil && n.agent.Process().Dead() {
		n.agent = nil
	}
	if n.agent == nil {
		if n.pod.Heap().Alive(n.agentTid) {
			th, err := n.pod.ThreadOf(n.agentTid)
			if err != nil {
				return fmt.Errorf("fabric: pod %d agent handle: %w", n.id, err)
			}
			n.agent = th
		} else {
			np := n.pod.NewProcess()
			th, rep, err := np.Recover(n.agentTid)
			if err != nil {
				return fmt.Errorf("fabric: pod %d agent recovery: %w", n.id, err)
			}
			if rep.PendingAlloc != 0 {
				n.addOrphan(rep.PendingAlloc)
			}
			n.agent = th
		}
	}
	if c := n.agent.Run(func() { fn(n.agentTid) }); c != nil {
		n.agent = nil
		return fmt.Errorf("fabric: pod %d agent crashed at %s", n.id, c.Point)
	}
	return nil
}

// routable reports whether the router may send traffic to this pod.
func (n *podNode) routable() bool {
	return !n.dark.Load() && !n.fenced.Load() && !n.decommissioned.Load()
}

// endpoint reports whether this pod may be a migration source or
// destination right now.
func (n *podNode) endpoint() bool {
	return n.routable() && !n.dying.Load()
}

// Fabric is the routing/placement layer. It implements
// server.Submitter, so a server.Client drives it exactly like a single
// Server.
type Fabric struct {
	cfg   Config
	pods  []*podNode
	shard []shardSlot
	// writeDone[s] is shard s's write release, built once so the write
	// path allocates nothing.
	writeDone []func()

	ringMu sync.Mutex
	ring   *ring

	migMu sync.Mutex
	migs  map[int]*migration

	stopped  atomic.Bool
	stopOnce sync.Once
	monWG    sync.WaitGroup

	vioMu      sync.Mutex
	violations []string

	mttrMu sync.Mutex
	mttrs  []time.Duration

	podDarks, podHeals, podFencesN  atomic.Uint64
	failoversN, falseShardTakeovers atomic.Uint64
	migStarts, migFlips, migRetakes atomic.Uint64
	migInterruptsN, migAborts       atomic.Uint64
	routerRejects                   atomic.Uint64

	// testHookPreInstall, when set, runs in drive just before the
	// destination install: tests park a driver there to make it the
	// slow-but-alive holder a retake supersedes.
	testHookPreInstall func(m *migration)
}

// New builds the pods, stores, servers (workers start immediately,
// idling), initial shard placement, and the pod-liveness monitor.
func New(cfg Config) (*Fabric, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f := &Fabric{cfg: cfg, migs: make(map[int]*migration)}
	for i := 0; i < cfg.Pods; i++ {
		n, err := f.buildPod(i)
		if err != nil {
			return nil, err
		}
		f.pods = append(f.pods, n)
	}
	f.ring = buildRing(cfg.Pods, cfg.Seed, func(p int) bool { return true })
	f.shard = make([]shardSlot, cfg.Shards)
	f.writeDone = make([]func(), cfg.Shards)
	for s := range f.shard {
		f.shard[s].word.Store(packWord(f.ring.place(uint64(s), cfg.Seed), shardServing, 1))
		f.writeDone[s] = f.shard[s].unpin
	}
	for _, n := range f.pods {
		n.lastAdvance.Store(time.Now().UnixNano())
	}
	f.monWG.Add(1)
	go f.monitor()
	return f, nil
}

// buildPod constructs one pod with Threads serving slots grouped over
// Procs processes, plus one control process owning the agent slot.
func (f *Fabric) buildPod(i int) (*podNode, error) {
	cfg := f.cfg
	pc := cxlalloc.DefaultConfig()
	pc.NumThreads = cfg.Threads + 1
	// Same headroom reasoning as the SLO harness: the working set must
	// sit well under the soft watermark, and a migration temporarily
	// doubles a shard's footprint on the destination.
	pc.MaxSmallSlabs = 256
	pc.MaxLargeSlabs = 64
	pc.HugeRegionSize = 1 << 20
	pc.NumReservations = 8
	pc.DescsPerThread = 16
	pc.NumHazards = 8
	pc.UnsizedThreshold = 2
	pc.Mode = atomicx.ModeMCAS
	if cfg.Injectors != nil && cfg.Injectors[i] != nil {
		pc.Crash = cfg.Injectors[i]
		pc.TrackPersist = true
	}
	n := &podNode{id: i, agentTid: cfg.Threads, reads: make([]readPin, cfg.Shards), readDone: make([]func(), cfg.Shards)}
	for s := range n.reads {
		n.readDone[s] = n.reads[s].done
	}
	pod, err := cxlalloc.NewPodWith(cxlalloc.PodConfig{
		Config:      pc,
		AutoRecover: true,
		// Effectively infinite intra-pod lease: thread-slot watchdog
		// repair is the single-pod experiments' subject; here the unit
		// of failure is the whole pod, and an intra-pod repair racing a
		// pod-level failover would blur the false-takeover ground truth.
		// A lease nobody can take is not worth an mCAS every few ticks to
		// extend, so it is never renewed either.
		Liveness: cxlalloc.NoExpiryLiveness,
		OnEvent: func(ev cxlalloc.LivenessEvent) {
			if ev.Kind == cxlalloc.LivenessRepair && ev.Report.PendingAlloc != 0 {
				n.addOrphan(ev.Report.PendingAlloc)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	n.pod = pod
	n.procs = make([]*cxlalloc.Process, cfg.Procs)
	for g := range n.procs {
		n.procs[g] = pod.NewProcess()
	}
	groups := make([][]int, cfg.Procs)
	for tid := 0; tid < cfg.Threads; tid++ {
		g := tid % cfg.Procs
		if _, err := n.procs[g].AttachThreadID(tid); err != nil {
			return nil, err
		}
		groups[g] = append(groups[g], tid)
	}
	n.ctrl = pod.NewProcess()
	agent, err := n.ctrl.AttachThreadID(n.agentTid)
	if err != nil {
		return nil, err
	}
	n.agent = agent
	n.store = kvstore.New(alloc.NewCXL(pod.Heap(), "cxlalloc"), cfg.Buckets, cfg.Threads+1)
	n.srv = server.New(server.Config{
		Pod:       pod,
		Store:     n.store,
		Groups:    groups,
		QueueCap:  cfg.QueueCap,
		DecodeVer: cfg.DecodeVer,
		Gate:      f.gateFor(i),
	})
	return n, nil
}

// ShardOfKey maps key bytes to a shard (FNV-1a mod Shards).
func (f *Fabric) ShardOfKey(key []byte) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return int(h % uint64(f.cfg.Shards))
}

// Submit routes r by shard ownership: resolve key → shard, stamp the
// routing epoch, and hand off to the owner pod's server — or reject
// with a re-routeable typed error if the owner is dark, fenced, or
// decommissioned (the breaker idea, extended from "process dead" to
// "pod dark"), or if the shard is frozen mid-handoff and r is a write.
func (f *Fabric) Submit(r *server.Request) {
	s := f.ShardOfKey(r.Key)
	sl := &f.shard[s]
	w := sl.word.Load()
	owner := wordOwner(w)
	r.Shard, r.ShardEpoch = s, wordEpoch(w)
	n := f.pods[owner]
	if !n.routable() {
		f.routerRejects.Add(1)
		server.Reject(r, &PodDarkError{Pod: owner})
		return
	}
	if wordState(w) == shardFrozen && r.Op != server.OpGet {
		f.routerRejects.Add(1)
		server.Reject(r, &ShardFrozenError{Shard: s})
		return
	}
	n.srv.Submit(r)
}

// gateFor builds pod p's execution-time ownership check. Writes pin
// the shard (freeze waits for pins to drain) with a pin-then-recheck
// so a pin can never slip in after a freeze observed zero; reads keep
// serving through a handoff — a frozen shard's source copy is
// immutable — and count themselves per pod, so the drain that deletes
// the source copy after the flip waits for the reads still on it.
func (f *Fabric) gateFor(p int) func(r *server.Request) (func(), error) {
	return func(r *server.Request) (func(), error) {
		sl := &f.shard[r.Shard]
		w := sl.word.Load()
		if wordOwner(w) != p || wordEpoch(w) != r.ShardEpoch || f.pods[p].decommissioned.Load() {
			return nil, &ShardMovedError{Shard: r.Shard}
		}
		if r.Op == server.OpGet {
			// No pin against a freeze: a frozen source copy is immutable.
			// But the post-flip drain deletes that copy, so a read counts
			// itself here (pin-then-recheck, as below) and the drain waits.
			pin := &f.pods[p].reads[r.Shard]
			pin.Add(1)
			if w := sl.word.Load(); wordOwner(w) != p || wordEpoch(w) != r.ShardEpoch {
				pin.done()
				return nil, &ShardMovedError{Shard: r.Shard}
			}
			return f.pods[p].readDone[r.Shard], nil
		}
		if wordState(w) != shardServing {
			return nil, &ShardFrozenError{Shard: r.Shard}
		}
		sl.pins.Add(1)
		if sl.word.Load() != w {
			sl.pins.Add(-1)
			return nil, &ShardFrozenError{Shard: r.Shard}
		}
		return f.writeDone[r.Shard], nil
	}
}

// Tick is the fabric logical clock: the sum of every pod's logical
// clock. Monotone (decommissioned pods stop contributing but never
// regress), and it advances as long as any pod serves — the fault
// schedule's at_tick timeline.
func (f *Fabric) Tick() uint64 {
	var t uint64
	for _, n := range f.pods {
		t += n.pod.Heap().ClockNow(0)
	}
	return t
}

// Owner returns shard s's current owner pod and routing epoch.
func (f *Fabric) Owner(s int) (pod int, epoch uint64) {
	w := f.shard[s].word.Load()
	return wordOwner(w), wordEpoch(w)
}

// OwnedShards returns the shards currently owned by pod p.
func (f *Fabric) OwnedShards(p int) []int {
	var out []int
	for s := range f.shard {
		if wordOwner(f.shard[s].word.Load()) == p {
			out = append(out, s)
		}
	}
	return out
}

// Pod returns pod i's Pod (tests, audits).
func (f *Fabric) Pod(i int) *cxlalloc.Pod { return f.pods[i].pod }

// Store returns pod i's kvstore (audits; direct access is only safe at
// quiescence or through agent/worker threads).
func (f *Fabric) Store(i int) *kvstore.Store { return f.pods[i].store }

// Server returns pod i's front end.
func (f *Fabric) Server(i int) *server.Server { return f.pods[i].srv }

// AgentRun runs fn on pod i's control thread (preload, audits).
func (f *Fabric) AgentRun(i int, fn func(tid int)) error { return f.pods[i].agentRun(fn) }

// AgentTid returns the control slot index (== Threads).
func (f *Fabric) AgentTid() int { return f.cfg.Threads }

// Orphans drains pod i's adopted pending-alloc pointers.
func (f *Fabric) Orphans(i int) []cxlalloc.Ptr {
	n := f.pods[i]
	n.orphMu.Lock()
	out := n.orphans
	n.orphans = nil
	n.orphMu.Unlock()
	return out
}

// Decommissioned reports whether pod i has been failed over.
func (f *Fabric) Decommissioned(i int) bool { return f.pods[i].decommissioned.Load() }

// Endpoint reports whether pod i may source or receive a shard handoff
// right now (routable and not kill-in-progress). Harness eligibility
// checks use this.
func (f *Fabric) Endpoint(i int) bool { return f.pods[i].endpoint() }

// Fenced reports whether pod i is currently fenced off.
func (f *Fabric) Fenced(i int) bool { return f.pods[i].fenced.Load() }

// ShardState exposes shard s's full control state (harness planning:
// a migration can only start on a serving, unclaimed shard).
func (f *Fabric) ShardState(s int) (owner int, epoch uint64, frozen, claimed bool) {
	w := f.shard[s].word.Load()
	return wordOwner(w), wordEpoch(w), wordState(w) == shardFrozen, f.shard[s].claim.Load()&1 != 0
}

// MarkDying flags pod i as kill-in-progress: it stops being a
// migration endpoint, and a subsequent dark declaration is expected
// (not a false takeover). Traffic keeps flowing — acked writes must
// survive the kill regardless.
func (f *Fabric) MarkDying(i int) { f.pods[i].dying.Store(true) }

// AgentQuiesce takes pod i's agent lock while fn runs — the pod-kill
// injector holds it across KillProcess so the control thread is never
// marked crashed mid-operation (the crash model forbids out-of-band
// kills of running threads).
func (f *Fabric) AgentQuiesce(i int, fn func()) {
	n := f.pods[i]
	n.agentMu.Lock()
	defer n.agentMu.Unlock()
	fn()
}

func (f *Fabric) violation(msg string) {
	f.vioMu.Lock()
	if len(f.violations) < 64 {
		f.violations = append(f.violations, msg)
	}
	f.vioMu.Unlock()
}

// Violations returns the fabric-level invariant failures recorded so
// far (unsettled pends at failover, verify mismatches, …).
func (f *Fabric) Violations() []string {
	f.vioMu.Lock()
	defer f.vioMu.Unlock()
	return append([]string(nil), f.violations...)
}

// Stats is the fabric counter snapshot.
type Stats struct {
	PodDarks            uint64 `json:"pod_darks"`
	PodHeals            uint64 `json:"pod_heals"`
	PodFences           uint64 `json:"pod_fences"`
	Failovers           uint64 `json:"failovers"`
	FalseShardTakeovers uint64 `json:"false_shard_takeovers"`
	MigStarts           uint64 `json:"mig_starts"`
	MigFlips            uint64 `json:"mig_flips"`
	MigRetakes          uint64 `json:"mig_retakes"`
	MigInterrupts       uint64 `json:"mig_interrupts"`
	MigAborts           uint64 `json:"mig_aborts"`
	RouterRejects       uint64 `json:"router_rejects"`
}

// Stats returns the fabric's counters.
func (f *Fabric) Stats() Stats {
	return Stats{
		PodDarks:            f.podDarks.Load(),
		PodHeals:            f.podHeals.Load(),
		PodFences:           f.podFencesN.Load(),
		Failovers:           f.failoversN.Load(),
		FalseShardTakeovers: f.falseShardTakeovers.Load(),
		MigStarts:           f.migStarts.Load(),
		MigFlips:            f.migFlips.Load(),
		MigRetakes:          f.migRetakes.Load(),
		MigInterrupts:       f.migInterruptsN.Load(),
		MigAborts:           f.migAborts.Load(),
		RouterRejects:       f.routerRejects.Load(),
	}
}

// MTTRs returns each failover's dark-declared → shards-flipped span.
func (f *Fabric) MTTRs() []time.Duration {
	f.mttrMu.Lock()
	defer f.mttrMu.Unlock()
	return append([]time.Duration(nil), f.mttrs...)
}

// FalseTakeovers sums the thread-level watchdog ground truth across
// pods (the intra-pod gate; the fabric-level gate is Stats).
func (f *Fabric) FalseTakeovers() uint64 {
	var n uint64
	for _, p := range f.pods {
		n += p.pod.FalseTakeovers()
	}
	return n
}

// Quiesced reports whether no migration is in flight and every shard
// is serving from a routable owner (the convergence condition).
func (f *Fabric) Quiesced() bool {
	f.migMu.Lock()
	busy := len(f.migs) != 0
	f.migMu.Unlock()
	if busy {
		return false
	}
	for s := range f.shard {
		w := f.shard[s].word.Load()
		if wordState(w) != shardServing || !f.pods[wordOwner(w)].routable() {
			return false
		}
	}
	return true
}

// Stop shuts down the monitor and every pod's server. Idempotent.
func (f *Fabric) Stop() {
	f.stopOnce.Do(func() {
		f.stopped.Store(true)
		f.monWG.Wait()
		for _, n := range f.pods {
			n.srv.Stop()
		}
	})
}

func (f *Fabric) emit(kind telemetry.Kind, a uint64, arg uint32) {
	telemetry.Emit(0, kind, a, arg)
}
