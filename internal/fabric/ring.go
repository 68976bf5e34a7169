package fabric

import (
	"sort"

	"cxlalloc/internal/xrand"
)

// Consistent-hash placement: each in-ring pod contributes vnodes
// points on a 64-bit ring; shard s lives on the pod owning the first
// point clockwise from hash(s). Removing a pod (decommission) moves
// only that pod's shards — survivors' placements are stable, which is
// what bounds failover copy traffic to the dead pod's share.

const vnodes = 8

type ringPoint struct {
	hash uint64
	pod  int
}

type ring struct {
	pts []ringPoint
}

// buildRing hashes vnodes points per in-ring pod, salted by seed so
// placement is deterministic per fabric.
func buildRing(pods int, seed uint64, in func(pod int) bool) *ring {
	r := &ring{}
	for p := 0; p < pods; p++ {
		if !in(p) {
			continue
		}
		for v := 0; v < vnodes; v++ {
			h := xrand.Mix(seed ^ xrand.Mix(uint64(p)*0x9e3779b97f4a7c15+uint64(v)+0x7ab) ^ 0xfab81c)
			r.pts = append(r.pts, ringPoint{hash: h, pod: p})
		}
	}
	sort.Slice(r.pts, func(i, j int) bool {
		if r.pts[i].hash != r.pts[j].hash {
			return r.pts[i].hash < r.pts[j].hash
		}
		return r.pts[i].pod < r.pts[j].pod
	})
	return r
}

// place returns the owner pod for shard s (successor point on the
// ring, wrapping).
func (r *ring) place(s uint64, seed uint64) int {
	return r.placeWhere(s, seed, func(int) bool { return true })
}

// placeWhere walks clockwise from shard s's point to the first pod
// satisfying ok (failover target selection: the successor that is a
// live migration endpoint). Returns -1 if no pod qualifies.
func (r *ring) placeWhere(s uint64, seed uint64, ok func(pod int) bool) int {
	if len(r.pts) == 0 {
		return -1
	}
	h := xrand.Mix(seed ^ xrand.Mix(s+0x5a4d) ^ 0x1dea)
	start := sort.Search(len(r.pts), func(i int) bool { return r.pts[i].hash >= h })
	for i := 0; i < len(r.pts); i++ {
		p := r.pts[(start+i)%len(r.pts)].pod
		if ok(p) {
			return p
		}
	}
	return -1
}
