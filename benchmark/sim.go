package main

import (
	"cxlalloc/internal/memsim"
	"cxlalloc/internal/telemetry"
)

// simNote states what the modelled clock is, in every output.
const simNote = "sim_ns_per_op is simulated time: counted device events priced by memsim.LatencyCXL " +
	"(the paper's §5.4 figures). The model is unvalidated (the repository holds no hardware reference) " +
	"and covers counted events only: cache hits, host compute, queueing and overlap cost nothing in it. " +
	"Every other metric is host time on this machine."

// addSnapshot sums the counters the benchmark reads into dst.
func addSnapshot(dst *telemetry.Snapshot, s telemetry.Snapshot) {
	dst.Cache.Loads += s.Cache.Loads
	dst.Cache.Hits += s.Cache.Hits
	dst.Cache.Stores += s.Cache.Stores
	dst.Cache.Fetches += s.Cache.Fetches
	dst.Cache.Writebacks += s.Cache.Writebacks
	dst.Cache.Flushes += s.Cache.Flushes
	dst.Cache.Fences += s.Cache.Fences
	dst.NMP.SpWrs += s.NMP.SpWrs
	dst.NMP.SpRds += s.NMP.SpRds
	dst.NMP.Successes += s.NMP.Successes
	dst.NMP.Failures += s.NMP.Failures
	dst.HW.MCASRetries += s.HW.MCASRetries
	dst.Alloc.SmallAllocs += s.Alloc.SmallAllocs
	dst.Alloc.LargeAllocs += s.Alloc.LargeAllocs
	dst.Alloc.HugeAllocs += s.Alloc.HugeAllocs
	dst.Liveness.Renews += s.Liveness.Renews
}

// simNanos prices a snapshot delta: the modelled device time of the
// events counted in d.
func simNanos(d telemetry.Snapshot) float64 {
	l := memsim.LatencyCXL()
	return float64(d.Cache.Fetches)*float64(l.CXLLoad) +
		float64(d.Cache.Writebacks)*float64(l.CXLStore) +
		float64(d.Cache.Flushes)*float64(l.FlushCost) +
		float64(d.NMP.SpWrs)*float64(l.MCASSpWr) +
		float64(d.NMP.SpRds)*float64(l.MCASSpRd) +
		float64(d.NMP.Successes+d.NMP.Failures)*float64(l.MCASService)
}
