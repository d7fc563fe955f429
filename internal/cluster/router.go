package cluster

import (
	"sort"

	"zbp/internal/hashx"
)

// rendezvousOrder is highest-random-weight hashing on the result
// cache's canonical cell key: every coordinator (no shared state, no
// ring to rebalance) maps the same cell to the same backend, so a
// repeated cell lands where its cached bytes already live. When a
// backend drops out only its cells move (to their second choice);
// everything else stays put — exactly the property that keeps a warm
// fleet warm through membership churn. The first element is the
// primary; retries and the hedge walk the rest. cands is not mutated.
func rendezvousOrder(key uint64, cands []*backend) []*backend {
	out := append([]*backend(nil), cands...)
	weight := func(b *backend) uint64 { return hashx.Mix(key ^ b.idHash) }
	sort.SliceStable(out, func(i, j int) bool { return weight(out[i]) > weight(out[j]) })
	return out
}
