package cluster

import (
	"sort"
	"strconv"
)

// Job routing: a consistent-hash ring over the configured node set.
//
// The ring is built once, from every configured node — membership does not
// follow health. That keeps ownership stable: a spec's owner is the same on
// every node and across restarts, so singleflight dedup and journal
// placement agree cluster-wide. Health enters at routing time instead: when
// the ring owner is down, the entry node admits the spec itself (see
// routeOwner).

// ringVnodes is how many virtual nodes each node projects onto the ring.
// 64 keeps the keyspace split within a few percent of even for small
// clusters while the ring stays a few KiB.
const ringVnodes = 64

// fnv64a is the 64-bit FNV-1a hash — the suite's standalone workloads use
// the same family, and it avoids pulling hash/maphash's per-process seed
// into routing (owners must agree across processes).
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// ring is an immutable consistent-hash ring.
type ring struct {
	points []ringPoint // sorted by hash
	nodes  []string    // sorted node IDs
}

type ringPoint struct {
	hash uint64
	node string
}

// newRing builds the ring over the given node IDs.
func newRing(nodes []string) *ring {
	r := &ring{nodes: append([]string(nil), nodes...)}
	sort.Strings(r.nodes)
	r.points = make([]ringPoint, 0, len(r.nodes)*ringVnodes)
	for _, n := range r.nodes {
		for v := 0; v < ringVnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: fnv64a(n + "#" + strconv.Itoa(v)),
				node: n,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// owner returns the node owning key: the first vnode clockwise from the
// key's hash.
func (r *ring) owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := fnv64a(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}
